from pathlib import Path

import pytest

from uuvnav.errors import PlanNotFound
from uuvnav.hddl.ground import ground
from uuvnav.hddl.parser import parse_domain, parse_problem
from uuvnav.htn.planner import format_plan_text, plan, plan_to_dict
from uuvnav.htn.validate import Verdict, validate


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

def brute_force_plans(tables, s0, w0, goal=None, budget=10**4):
    """Exhaustively enumerate decomposition sequences; the set of every
    executable primitive sequence (as a tuple of ground tasks) that
    satisfies the goal. Fails rather than return a partial set when the
    enumeration exceeds the budget."""
    from uuvnav.htn.planner import goal_satisfied

    counter = {"n": 0}
    plans = set()

    def explore(state, agenda, steps):
        counter["n"] += 1
        assert counter["n"] <= budget, "brute-force budget exhausted"
        if not agenda:
            if goal_satisfied(goal, state):
                plans.add(steps)
            return
        head, rest = agenda[0], agenda[1:]
        if tables.is_primitive(head):
            action = tables.actions.get(head)
            if action is not None and action.applicable(state):
                explore(action.apply(state), rest, steps + (head,))
            return
        for m in tables.methods.get(head, ()):
            if m.applicable(state):
                explore(state, list(m.subtasks) + rest, steps)

    explore(frozenset(s0), list(w0), ())
    return plans


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
    expect = bool(brute_force_plans(tables, s0, w0, g))
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


def test_truncated_plan_ends_before_its_network_naming_no_step():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (acquire widget))"))
    steps = tasks_of(plan(tables, s0, w0, goal))
    verdict = validate(tables, s0, w0, steps[:-1], goal)
    assert verdict == Verdict(False, "plan ends before its task network is done", None)


def test_empty_plan_ends_before_its_network_naming_no_step():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (acquire widget))"))
    verdict = validate(tables, s0, w0, [], goal)
    assert verdict == Verdict(False, "plan ends before its task network is done", None)


def test_orphan_names_the_first_step_past_the_matched_prefix():
    tables, s0, w0, goal = setup(BASE_DOMAIN, problem_text("(and (pick widget))"))
    steps = tasks_of(plan(tables, s0, w0, goal))
    verdict = validate(tables, s0, w0, steps + [("pick", "gadget")], goal)
    assert verdict.step_index == len(steps)
    assert verdict.reason.startswith(f"orphan step {len(steps)}:")


REPO = Path(__file__).resolve().parent.parent


def bundled_mission():
    domain = parse_domain((REPO / "domains" / "uuv-nav.hddl").read_text())
    problem_path = REPO / "scenarios" / "problems" / "uuv1-mission.hddl"
    problem = parse_problem(problem_path.read_text(), domain)
    tables = ground(domain, problem)
    return tables, frozenset(problem.init), problem.htn, problem.goal


@pytest.mark.parametrize("budget", [0, 1])
def test_a_valid_plan_past_the_budget_blames_the_budget_not_a_step(budget):
    tables, s0, w0, goal = bundled_mission()
    steps = tasks_of(plan(tables, s0, w0, goal))
    assert len(steps) == 5
    verdict = validate(tables, s0, w0, steps, goal, max_decompositions=budget)
    assert verdict == Verdict(
        False, f"derivation search exceeded its budget of {budget} decompositions", None
    )


def test_the_bundled_plan_is_valid_once_the_budget_covers_its_derivation():
    tables, s0, w0, goal = bundled_mission()
    steps = tasks_of(plan(tables, s0, w0, goal))
    assert validate(tables, s0, w0, steps, goal, max_decompositions=2) == Verdict(
        True, "plan is valid", None
    )


def test_an_orphan_in_the_bundled_plan_is_an_orphan_under_the_default_budget():
    tables, s0, w0, goal = bundled_mission()
    steps = tasks_of(plan(tables, s0, w0, goal))
    verdict = validate(tables, s0, w0, steps + steps[-1:], goal)
    assert verdict.step_index == len(steps)
    assert verdict.reason.startswith(f"orphan step {len(steps)}:")


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
    (root, parent), *leaves = result.nodes
    assert parent is None and root.name == "m-pack"
    assert leaves == [(step, 0) for step in result.steps]
    assert [step.name for step in result.steps] == ["pick", "pack"]


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
