import pytest

from uuvnav.errors import PlanNotFound
from uuvnav.hddl import ground, parse_domain, parse_problem
from uuvnav.htn import format_plan_text, plan, plan_to_dict, validate


def setup(domain_text, problem_text):
    d = parse_domain(domain_text)
    p = parse_problem(problem_text, d)
    tables = ground(d, p)
    return tables, frozenset(p.init), p.htn, p.goal


BASE_DOMAIN = """
(define (domain lab)
  (:requirements :typing :hierarchy :method-preconditions :negative-preconditions)
  (:types item - object)
  (:predicates (have ?i - item) (packed ?i - item) (broken ?i - item))
  (:task acquire :parameters (?i - item))
  (:method m-pack
    :parameters (?i - item)
    :task (acquire ?i)
    :precondition (not (broken ?i))
    :ordered-subtasks (and (pick ?i) (pack ?i)))
  (:action pick
    :parameters (?i - item)
    :effect (have ?i))
  (:action pack
    :parameters (?i - item)
    :precondition (have ?i)
    :effect (packed ?i))
)
"""


def problem_text(htn, init="", goal=None):
    goal_s = f"(:goal {goal})" if goal else ""
    return f"""
    (define (problem lab-1)
      (:domain lab)
      (:objects widget gadget - item)
      (:htn :ordered-subtasks {htn})
      (:init {init})
      {goal_s})
    """


# ---------------------------------------------------------------------------
# Basic planning
# ---------------------------------------------------------------------------

def test_single_applicable_primitive():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (pick widget))"))
    result = plan(tables, s0, w0, goal)
    assert [s.task for s in result.steps] == [("pick", "widget")]


def test_single_method_decomposition_in_order():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (acquire widget))"))
    result = plan(tables, s0, w0, goal)
    assert [s.task for s in result.steps] == [("pick", "widget"), ("pack", "widget")]


def test_empty_network_gives_empty_plan():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("()"))
    result = plan(tables, s0, w0, goal)
    assert result.steps == ()


def test_unsatisfiable_precondition_is_unsolvable():
    tables, s0, w0, goal = setup(
        BASE_DOMAIN, problem_text("(and (pack widget))")
    )
    with pytest.raises(PlanNotFound):
        plan(tables, s0, w0, goal)


def test_method_precondition_blocks_decomposition():
    tables, s0, w0, goal = setup(
        BASE_DOMAIN, problem_text("(and (acquire widget))", init="(broken widget)")
    )
    with pytest.raises(PlanNotFound) as exc:
        plan(tables, s0, w0, goal)
    assert "exhausted" in exc.value.reason


def test_goal_checked_at_end():
    tables, s0, w0, goal = setup(
        BASE_DOMAIN,
        problem_text("(and (acquire widget))", goal="(packed gadget)"),
    )
    with pytest.raises(PlanNotFound):
        plan(tables, s0, w0, goal)


def test_goal_satisfied_by_plan_effects():
    tables, s0, w0, goal = setup(
        BASE_DOMAIN,
        problem_text("(and (acquire widget))", goal="(packed widget)"),
    )
    result = plan(tables, s0, w0, goal)
    assert len(result.steps) == 2


# ---------------------------------------------------------------------------
# Method ordering and backtracking
# ---------------------------------------------------------------------------

TWO_METHOD_DOMAIN = """
(define (domain pick2)
  (:requirements :typing :hierarchy :method-preconditions)
  (:types site - object)
  (:predicates (seen ?s - site) (via-a ?s - site) (via-b ?s - site))
  (:task visit :parameters (?s - site))
  (:method m-first
    :parameters (?s - site)
    :task (visit ?s)
    :ordered-subtasks (and (go-a ?s)))
  (:method m-second
    :parameters (?s - site)
    :task (visit ?s)
    :ordered-subtasks (and (go-b ?s)))
  (:action go-a :parameters (?s - site) :effect (and (seen ?s) (via-a ?s)))
  (:action go-b :parameters (?s - site) :effect (and (seen ?s) (via-b ?s)))
)
"""

PICK2_PROBLEM = """
(define (problem p2)
  (:domain pick2)
  (:objects s1 - site)
  (:htn :ordered-subtasks (and (visit s1)))
  (:init))
"""


def test_first_declared_method_wins_when_both_apply():
    tables, s0, w0, goal = setup(TWO_METHOD_DOMAIN, PICK2_PROBLEM)
    result = plan(tables, s0, w0, goal)
    assert [s.name for s in result.steps] == ["go-a"]


def test_backtracks_to_second_method_when_goal_requires_it():
    text = PICK2_PROBLEM.replace("(:init)", "(:init)\n  (:goal (via-b s1))")
    tables, s0, w0, goal = setup(TWO_METHOD_DOMAIN, text)
    result = plan(tables, s0, w0, goal)
    assert [s.name for s in result.steps] == ["go-b"]


RECURSIVE_DOMAIN = """
(define (domain loopy)
  (:requirements :typing :hierarchy)
  (:types thing - object)
  (:predicates (flag ?t - thing))
  (:task spin :parameters (?t - thing))
  (:method m-again
    :parameters (?t - thing)
    :task (spin ?t)
    :ordered-subtasks (and (touch ?t) (spin ?t)))
  (:action touch :parameters (?t - thing) :effect (flag ?t))
)
"""


def test_unbounded_recursion_hits_decomposition_budget():
    ptext = """
    (define (problem loop-1)
      (:domain loopy)
      (:objects t1 - thing)
      (:htn :ordered-subtasks (and (spin t1)))
      (:init))
    """
    tables, s0, w0, goal = setup(RECURSIVE_DOMAIN, ptext)
    with pytest.raises(PlanNotFound) as exc:
        plan(tables, s0, w0, goal, max_decompositions=50)
    assert "budget" in exc.value.reason


def test_determinism_identical_runs():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (acquire widget) (acquire gadget))"))
    r1 = plan(tables, s0, w0, goal)
    r2 = plan(tables, s0, w0, goal)
    assert r1 == r2
    assert r1.stats == r2.stats


# ---------------------------------------------------------------------------
# Completeness against brute-force decomposition enumeration
# ---------------------------------------------------------------------------

def brute_force_solvable(tables, s0, w0, goal, budget=10**4):
    """Exhaustively enumerate decomposition sequences; True iff any yields
    an executable primitive sequence (and satisfies the goal)."""
    from uuvnav.htn.planner import goal_satisfied

    counter = {"n": 0}

    def explore(state, agenda):
        counter["n"] += 1
        if counter["n"] > budget:
            return False
        if not agenda:
            return goal_satisfied(goal, state)
        head, rest = agenda[0], agenda[1:]
        if tables.is_primitive(head):
            action = tables.actions.get(head)
            if action is None or not action.applicable(state):
                return False
            return explore(action.apply(state), rest)
        found = False
        for m in tables.methods.get(head, ()):
            if m.applicable(state) and explore(state, list(m.subtasks) + rest):
                found = True
        return found

    return explore(frozenset(s0), list(w0))


@pytest.mark.parametrize(
    "htn,init,goal,",
    [
        ("(and (acquire widget))", "", None),
        ("(and (acquire widget))", "(broken widget)", None),
        ("(and (acquire widget) (acquire gadget))", "(broken gadget)", None),
        ("(and (pack widget))", "", None),
        ("(and (pick widget) (pack widget))", "", None),
        ("(and (acquire widget))", "", "(packed gadget)"),
        ("()", "", "(packed widget)"),
    ],
)
def test_planner_agrees_with_brute_force(htn, init, goal):
    tables, s0, w0, g = setup(BASE_DOMAIN, problem_text(htn, init=init, goal=goal))
    expect = brute_force_solvable(tables, s0, w0, g)
    try:
        plan(tables, s0, w0, g)
        found = True
    except PlanNotFound:
        found = False
    assert found == expect


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def tasks_of(result):
    return [step.task for step in result.steps]


def test_planner_output_validates():
    tables, s0, w0, goal = setup(
        BASE_DOMAIN, problem_text("(and (acquire widget) (acquire gadget))")
    )
    result = plan(tables, s0, w0, goal)
    verdict = validate(tables, s0, w0, tasks_of(result), goal)
    assert verdict.valid, verdict.reason


def test_swapped_steps_invalid_at_break_index():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (acquire widget))"))
    first, second = tasks_of(plan(tables, s0, w0, goal))
    verdict = validate(tables, s0, w0, [second, first], goal)
    assert not verdict.valid
    assert verdict.step_index == 0


def test_orphan_step_detected():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (pick widget))"))
    result = plan(tables, s0, w0, goal)
    verdict = validate(tables, s0, w0, tasks_of(result) + [("pick", "gadget")], goal)
    assert not verdict.valid
    assert "orphan" in verdict.reason


def test_empty_plan_against_demanding_network_is_orphan():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (acquire widget))"))
    verdict = validate(tables, s0, w0, [], goal)
    assert not verdict.valid


def test_goal_violation_detected_by_validator():
    tables, s0, w0, _ = setup(BASE_DOMAIN, problem_text("(and (pick widget))"))
    result = plan(tables, s0, w0, None)
    from uuvnav.hddl.ast import Literal

    verdict = validate(tables, s0, w0, tasks_of(result), (Literal("packed", ("widget",)),))
    assert not verdict.valid
    assert "goal" in verdict.reason


# ---------------------------------------------------------------------------
# Tree and serialization
# ---------------------------------------------------------------------------

def test_tree_links_steps_to_methods():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (acquire widget))"))
    result = plan(tables, s0, w0, goal)
    roots = [n for n in result.tree if n.id in result.roots]
    assert len(roots) == 1
    root = roots[0]
    assert root.kind == "method" and root.method == "m-pack"
    kids = [n for n in result.tree if n.id in root.children]
    assert [n.step for n in kids] == [0, 1]


def test_plan_to_dict_shape():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (acquire widget))"))
    result = plan(tables, s0, w0, goal)
    d = plan_to_dict(result)
    assert [s["name"] for s in d["steps"]] == ["pick", "pack"]
    assert d["stats"]["decompositions"] == result.stats.decompositions
    assert len(d["tree"]["nodes"]) == 3


def test_plan_text_mentions_every_step():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (acquire widget))"))
    text = format_plan_text(plan(tables, s0, w0, goal))
    assert "pick widget" in text and "pack widget" in text
