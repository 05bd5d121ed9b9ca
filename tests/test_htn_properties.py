"""Property: on random problems over the bundled domain, every plan the
planner finds passes the independent validator, and the same plan with
any one step deleted does not. With two steps swapped or one step
substituted it passes exactly when brute-force enumeration lists the
mutated sequence as a plan of its own."""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from uuvnav.errors import PlanNotFound
from uuvnav.hddl.ast import ProblemAst
from uuvnav.hddl.ground import ground
from uuvnav.hddl.parser import parse_domain
from uuvnav.htn.planner import plan
from uuvnav.htn.validate import validate

from test_htn import brute_force_plans

DOMAIN_TEXT = (Path(__file__).resolve().parent.parent / "domains" / "uuv-nav.hddl").read_text()
DOMAIN = parse_domain(DOMAIN_TEXT)

# The bundled domain plus two test-only tasks whose two methods each give
# plans one swap (report) or one substitution (reach) apart, so mutating a
# found plan can also yield another valid plan.
ALTERNATIVES = parse_domain(
    DOMAIN_TEXT.rstrip()[:-1]
    + """
  (:task report :parameters (?u - uuv))
  (:method m-report-then-listen
    :parameters (?u - uuv)
    :task (report ?u)
    :ordered-subtasks (and (broadcast ?u) (await-broadcast ?u)))
  (:method m-listen-then-report
    :parameters (?u - uuv)
    :task (report ?u)
    :ordered-subtasks (and (await-broadcast ?u) (broadcast ?u)))

  (:task reach :parameters (?u - uuv ?b - beacon))
  (:method m-reach-by-navigation
    :parameters (?u - uuv ?b - beacon)
    :task (reach ?u ?b)
    :ordered-subtasks (navigate-to-beacon ?u ?b))
  (:method m-reach-by-transit
    :parameters (?u - uuv ?b - beacon)
    :task (reach ?u ?b)
    :ordered-subtasks (transit-leg ?u ?b)))
"""
)

# Derandomized, so every run checks the same examples.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw, alternatives=False):
    beacons = [f"b{i + 1}" for i in range(draw(st.integers(1, 4)))]
    uuvs = [f"u{i + 1}" for i in range(draw(st.integers(1, 3)))]
    init = [("beacon-active", b) for b in beacons if draw(st.booleans())]
    init += [("beacon-unreachable", b) for b in beacons if draw(st.booleans())]
    init += [("heard-broadcast", u) for u in uuvs if draw(st.booleans())]
    mission = st.tuples(
        st.just("mission"), st.sampled_from(uuvs), st.sampled_from(beacons), st.sampled_from(beacons)
    )
    rendezvous = st.tuples(st.just("rendezvous"), st.sampled_from(uuvs))
    kinds = [mission, rendezvous]
    if alternatives:
        kinds.append(st.tuples(st.just("report"), st.sampled_from(uuvs)))
        kinds.append(st.tuples(st.just("reach"), st.sampled_from(uuvs), st.sampled_from(beacons)))
    htn = draw(st.lists(st.one_of(kinds), min_size=1, max_size=4))
    return ProblemAst(
        name="generated",
        domain_name=DOMAIN.name,
        objects=tuple((u, "uuv") for u in uuvs) + tuple((b, "beacon") for b in beacons),
        init=tuple(init),
        htn=tuple(htn),
        goal=None,
    )


@PROPERTY
@given(problems())
def test_found_plans_validate_and_every_step_is_needed(problem):
    tables = ground(DOMAIN, problem)
    s0 = frozenset(problem.init)
    try:
        found = plan(tables, s0, problem.htn)
    except PlanNotFound:
        return
    steps = [action.task for action in found.steps]
    assert validate(tables, s0, problem.htn, steps).valid
    for i in range(len(steps)):
        shorter = steps[:i] + steps[i + 1 :]
        assert not validate(tables, s0, problem.htn, shorter).valid, i


@PROPERTY
@given(problems(alternatives=True))
def test_swapped_or_substituted_steps_validate_only_as_another_plan(problem):
    tables = ground(ALTERNATIVES, problem)
    s0 = frozenset(problem.init)
    try:
        found = plan(tables, s0, problem.htn)
    except PlanNotFound:
        return
    steps = tuple(action.task for action in found.steps)
    plans = brute_force_plans(tables, s0, problem.htn)
    assert steps in plans
    mutants = set()
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            swapped = list(steps)
            swapped[i], swapped[j] = steps[j], steps[i]
            mutants.add(tuple(swapped))
        for task in tables.actions:
            mutants.add(steps[:i] + (task,) + steps[i + 1 :])
    mutants.discard(steps)
    for mutant in mutants:
        assert validate(tables, s0, problem.htn, mutant).valid == (mutant in plans), mutant
