import pytest

from uuvnav.errors import GroundingError, HddlError
from uuvnav.hddl import (
    ground,
    parse_domain,
    parse_problem,
    print_domain,
    print_problem,
)

DOMAIN = """
(define (domain toy)
  (:requirements :typing :hierarchy :method-preconditions :negative-preconditions)
  (:types robot site - object)
  (:predicates (at ?r - robot ?s - site) (visited ?s - site) (blocked ?s - site))
  (:task survey :parameters (?r - robot ?s - site))
  (:method m-direct
    :parameters (?r - robot ?s - site)
    :task (survey ?r ?s)
    :precondition (not (blocked ?s))
    :ordered-subtasks (and (goto ?r ?s) (scan ?r ?s)))
  (:action goto
    :parameters (?r - robot ?s - site)
    :effect (at ?r ?s))
  (:action scan
    :parameters (?r - robot ?s - site)
    :precondition (at ?r ?s)
    :effect (visited ?s))
)
"""

PROBLEM = """
(define (problem toy-1)
  (:domain toy)
  (:objects r1 - robot s1 s2 - site)
  (:htn :ordered-subtasks (and (survey r1 s2)))
  (:init (at r1 s1))
)
"""


# ---------------------------------------------------------------------------
# Domain parsing
# ---------------------------------------------------------------------------

def test_parse_domain_counts():
    d = parse_domain(DOMAIN)
    assert d.name == "toy"
    assert len(d.actions) == 2
    assert len(d.methods) == 1
    assert len(d.tasks) == 1
    assert {p.name for p in d.predicates} == {"at", "visited", "blocked"}


def test_parse_action_only_domain():
    text = """
    (define (domain mini)
      (:requirements :typing)
      (:types thing - object)
      (:predicates (done ?t - thing))
      (:action finish :parameters (?t - thing) :effect (done ?t)))
    """
    d = parse_domain(text)
    assert len(d.actions) == 1
    assert len(d.methods) == 0
    assert len(d.tasks) == 0


def test_symbols_are_case_insensitive():
    d = parse_domain(DOMAIN.replace("(:task survey", "(:task SURVEY"))
    assert d.tasks[0].name == "survey"


def test_method_with_undeclared_task_cites_method():
    text = DOMAIN.replace(":task (survey ?r ?s)", ":task (explore ?r ?s)")
    with pytest.raises(HddlError) as exc:
        parse_domain(text)
    assert "m-direct" in str(exc.value)


def test_temporal_construct_rejected():
    text = DOMAIN.replace(
        ":precondition (at ?r ?s)", ":duration (= ?duration 5)"
    )
    with pytest.raises(HddlError) as exc:
        parse_domain(text)
    assert "temporal" in str(exc.value)


def test_unknown_requirement_rejected():
    text = DOMAIN.replace(":negative-preconditions", ":universal-preconditions")
    with pytest.raises(HddlError) as exc:
        parse_domain(text)
    assert ":universal-preconditions" in str(exc.value)


def test_partial_order_syntax_rejected():
    text = DOMAIN.replace(":ordered-subtasks", ":subtasks")
    with pytest.raises(HddlError) as exc:
        parse_domain(text)
    assert "totally" in str(exc.value)


def test_unbalanced_parenthesis_has_position():
    with pytest.raises(HddlError) as exc:
        parse_domain(DOMAIN.rstrip()[:-1])
    assert exc.value.line is not None


def test_error_message_carries_line_and_column():
    with pytest.raises(HddlError) as exc:
        parse_domain("(define (domain x) (:predicates (p ?a - ghost)))")
    msg = str(exc.value)
    assert msg.split(":")[0].isdigit() and msg.split(":")[1].isdigit()


def test_undeclared_predicate_in_effect():
    text = DOMAIN.replace("(visited ?s)", "(logged ?s)")
    with pytest.raises(HddlError) as exc:
        parse_domain(text)
    assert "logged" in str(exc.value)


def test_arity_mismatch_rejected():
    text = DOMAIN.replace(":effect (at ?r ?s)", ":effect (at ?r)")
    with pytest.raises(HddlError) as exc:
        parse_domain(text)
    assert "argument" in str(exc.value)


def test_unbound_variable_rejected():
    text = DOMAIN.replace(":effect (visited ?s)", ":effect (visited ?q)")
    with pytest.raises(HddlError):
        parse_domain(text)


def test_duplicate_action_rejected():
    text = DOMAIN.replace("(:action scan", "(:action goto", 1)
    with pytest.raises(HddlError) as exc:
        parse_domain(text)
    assert "duplicate" in str(exc.value) or "goto" in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "(define (domain d) (:predicates (p)) (:task t)"
            " (:method m :task (t) :precondition (p) :precondition () :ordered-subtasks ()))",
            "1:87: duplicate :precondition in method m",
        ),
        (
            "(define (domain d) (:task t) (:method m :task (t) :ordered-subtasks))",
            "1:51: :ordered-subtasks is missing its value",
        ),
    ],
    ids=["repeated-key", "missing-value"],
)
def test_method_keys_read_like_every_section(text, message):
    with pytest.raises(HddlError) as exc:
        parse_domain(text)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Problem parsing
# ---------------------------------------------------------------------------

def test_parse_problem_basic():
    d = parse_domain(DOMAIN)
    p = parse_problem(PROBLEM, d)
    assert p.init == (("at", "r1", "s1"),)
    assert p.htn.identifiers == ("t1",)
    assert p.htn.alpha("t1") == ("survey", ("r1", "s2"))
    assert p.goal is None


def test_parse_problem_empty_init_single_subtask():
    d = parse_domain(DOMAIN)
    text = PROBLEM.replace("(:init (at r1 s1))", "(:init)")
    text = text.replace("(survey r1 s2)", "(goto r1 s2)")
    p = parse_problem(text, d)
    assert p.init == ()
    assert len(p.htn.tasks) == 1


def test_parse_problem_undeclared_object_type():
    d = parse_domain(DOMAIN)
    with pytest.raises(HddlError):
        parse_problem(PROBLEM.replace("r1 - robot", "r1 - rover"), d)


def test_parse_problem_wrong_domain_name():
    d = parse_domain(DOMAIN)
    with pytest.raises(HddlError) as exc:
        parse_problem(PROBLEM.replace("(:domain toy)", "(:domain other)"), d)
    msg = str(exc.value)
    assert "other" in msg and "toy" in msg


def test_parse_problem_ill_typed_init():
    d = parse_domain(DOMAIN)
    with pytest.raises(HddlError):
        parse_problem(PROBLEM.replace("(at r1 s1)", "(at s1 r1)"), d)


def test_parse_problem_unknown_task():
    d = parse_domain(DOMAIN)
    with pytest.raises(HddlError):
        parse_problem(PROBLEM.replace("(survey r1 s2)", "(wander r1 s2)"), d)


def test_parse_problem_goal():
    d = parse_domain(DOMAIN)
    text = PROBLEM.replace("(:init", "(:goal (visited s2))\n  (:init")
    p = parse_problem(text, d)
    assert p.goal is not None
    assert p.goal[0].predicate == "visited"


SMALL_DOMAIN = (
    "(define (domain d) (:predicates (p ?x)) (:task t) (:method m :task (t) :ordered-subtasks ()))"
)


def small_problem(htn, goal=""):
    return f"(define (problem q) (:domain d) (:objects o) (:htn {htn}) (:init) {goal})"


@pytest.mark.parametrize(
    "htn, goal, message",
    [
        (
            ":ordered-subtasks (t) :ordered-subtasks ()",
            "",
            "1:74: duplicate :ordered-subtasks in :htn",
        ),
        (":ordered-subtasks", "", "1:52: :ordered-subtasks is missing its value"),
        (":duration 5 :ordered-subtasks (t)", "", "1:52: :duration is temporal HDDL"),
        ("ordered-subtasks (t)", "", "1:52: expected a :keyword in :htn, got 'ordered-subtasks'"),
        (":ordered-subtasks (t)", "(:goal (p o o))", "1:1: goal atom p takes 1 arguments, got 2"),
        (
            ":ordered-subtasks (t)",
            "(:goal (not (p z)))",
            "1:1: goal atom p references unknown object z",
        ),
    ],
    ids=["repeated-key", "missing-value", "temporal-key", "bare-key", "goal-arity", "goal-object"],
)
def test_problem_sections_checked_like_domain_sections(htn, goal, message):
    with pytest.raises(HddlError) as exc:
        parse_problem(small_problem(htn, goal), parse_domain(SMALL_DOMAIN))
    assert str(exc.value).startswith(message)


# ---------------------------------------------------------------------------
# Round-trip
# ---------------------------------------------------------------------------

def test_domain_roundtrip():
    d = parse_domain(DOMAIN)
    assert parse_domain(print_domain(d)) == d


def test_problem_roundtrip():
    d = parse_domain(DOMAIN)
    p = parse_problem(PROBLEM, d)
    assert parse_problem(print_problem(p), d) == p


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

GROUND_DOMAIN = """
(define (domain g)
  (:requirements :typing :hierarchy)
  (:types a b - object)
  (:predicates (p ?x - a) (q ?x - a ?y - b))
  (:task t :parameters (?x - a))
  (:method m
    :parameters (?x - a ?y - b)
    :task (t ?x)
    :ordered-subtasks (and (act ?x)))
  (:action act :parameters (?x - a) :effect (p ?x))
)
"""


def ground_problem(objects):
    text = f"""
    (define (problem gp)
      (:domain g)
      (:objects {objects})
      (:htn :ordered-subtasks ())
      (:init))
    """
    d = parse_domain(GROUND_DOMAIN)
    return d, parse_problem(text, d)


def test_ground_action_count_matches_object_count():
    d, p = ground_problem("x1 x2 x3 - a y1 - b")
    tables = ground(d, p)
    assert len(tables.actions) == 3


def test_ground_method_count_is_parameter_product():
    d, p = ground_problem("x1 x2 - a y1 y2 y3 - b")
    tables = ground(d, p)
    total = sum(len(ms) for ms in tables.methods.values())
    assert total == 6
    # all six decompose t over the two a-objects
    assert set(tables.methods.keys()) == {("t", "x1"), ("t", "x2")}


def test_ground_zero_objects_of_type():
    d, p = ground_problem("y1 - b")
    tables = ground(d, p)
    assert len(tables.actions) == 0
    assert len(tables.methods) == 0


def test_ground_cap_aborts_with_count():
    d, p = ground_problem("x1 x2 x3 - a y1 y2 - b")
    with pytest.raises(GroundingError) as exc:
        ground(d, p, instance_cap=4)
    assert "4" in str(exc.value)


def test_ground_count_equals_typed_product():
    # brute-force recount over type-consistent tuples
    d, p = ground_problem("x1 x2 - a y1 y2 - b")
    tables = ground(d, p)
    objs = dict(p.objects)
    a_objs = [o for o, t in p.objects if t == "a"]
    b_objs = [o for o, t in p.objects if t == "b"]
    assert len(tables.actions) == len(a_objs)
    assert sum(len(ms) for ms in tables.methods.values()) == len(a_objs) * len(b_objs)
    assert tables.instance_count == len(a_objs) + len(a_objs) * len(b_objs)


def test_ground_effects_instantiated():
    d, p = ground_problem("x1 - a y1 - b")
    tables = ground(d, p)
    act = tables.actions[("act", "x1")]
    assert act.add_eff == frozenset({("p", "x1")})
    assert act.applicable(frozenset())
    assert act.apply(frozenset()) == frozenset({("p", "x1")})


def test_ground_type_hierarchy_respected():
    text = """
    (define (domain h)
      (:requirements :typing)
      (:types base - object special - base)
      (:predicates (mark ?x - base))
      (:action tag :parameters (?x - base) :effect (mark ?x))
    )
    """
    d = parse_domain(text)
    ptext = """
    (define (problem hp)
      (:domain h)
      (:objects o1 - base o2 - special)
      (:htn :ordered-subtasks ())
      (:init))
    """
    p = parse_problem(ptext, d)
    tables = ground(d, p)
    # the special object is also a base, so both ground instances exist
    assert set(tables.actions.keys()) == {("tag", "o1"), ("tag", "o2")}
