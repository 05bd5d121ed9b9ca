"""Property: on random problems over the bundled domain, every plan the
planner finds passes the independent validator, and the same plan with
any one step deleted does not."""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from uuvnav.errors import PlanNotFound
from uuvnav.hddl import ProblemAst, ground, parse_domain
from uuvnav.htn import plan, validate

DOMAIN = parse_domain(
    (Path(__file__).resolve().parent.parent / "domains" / "uuv-nav.hddl").read_text()
)

# Derandomized, so every run checks the same examples.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    beacons = [f"b{i + 1}" for i in range(draw(st.integers(1, 4)))]
    uuvs = [f"u{i + 1}" for i in range(draw(st.integers(1, 3)))]
    init = [("beacon-active", b) for b in beacons if draw(st.booleans())]
    init += [("beacon-unreachable", b) for b in beacons if draw(st.booleans())]
    init += [("heard-broadcast", u) for u in uuvs if draw(st.booleans())]
    mission = st.tuples(
        st.just("mission"), st.sampled_from(uuvs), st.sampled_from(beacons), st.sampled_from(beacons)
    )
    rendezvous = st.tuples(st.just("rendezvous"), st.sampled_from(uuvs))
    htn = draw(st.lists(st.one_of(mission, rendezvous), min_size=1, max_size=4))
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
