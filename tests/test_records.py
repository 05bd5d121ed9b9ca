"""The value semantics every record keeps: the behaviour each had as a
dataclass, pinned class by class.

- its repr is ``Name(field=value, ...)`` over its fields, in declaration
  order, leaving out ``DomainAst.supertypes`` and ``WorldState.periods``
  and ``grid``;
- it equals a record of its own class with equal fields, and nothing else;
- a frozen record hashes by value, and refuses any assignment or
  deletion with ``FrozenInstanceError``;
- a mutable record is unhashable and takes assignment.
"""

from dataclasses import FrozenInstanceError
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from uuvnav.config import ScenarioConfig, UuvSpec
from uuvnav.deploy import BeaconGraph, CellAssignment, DeploymentProblem, DeploymentResult
from uuvnav.geo import BathymetryGrid, MissionPolygon, Point2D
from uuvnav.hddl.ast import (
    ActionAst,
    DomainAst,
    Literal,
    MethodAst,
    PredicateDecl,
    ProblemAst,
    TaskDecl,
)
from uuvnav.hddl.ground import GroundAction, GroundMethod, GroundTables
from uuvnav.hddl.sexpr import SList, Symbol
from uuvnav.htn.planner import Plan, PlanStats
from uuvnav.htn.validate import Verdict
from uuvnav.monitor import Expectation, PlanningSetup
from uuvnav.record import Record
from uuvnav.sim.runner import SimulationReport
from uuvnav.sim.world import (
    PARAMS,
    ActionBehaviour,
    BeaconState,
    Detection,
    Event,
    Projection,
    UUVState,
    WorldParams,
    WorldState,
)


def grid():
    return BathymetryGrid(0.0, 0.0, 10.0, 1, 1, [5.0], -9999.0)


def triangle():
    return MissionPolygon((Point2D(0.0, 0.0), Point2D(10.0, 0.0), Point2D(10.0, 10.0)))


def sense():
    return GroundAction(
        "sense-beacon",
        ("u1", "b1"),
        frozenset({("at", "u1", "b1")}),
        frozenset(),
        frozenset({("heard", "u1", "b1")}),
        frozenset(),
    )


def spec():
    return UuvSpec("u1", Point2D(0.0, 0.0), Path("u1.hddl"))


def world():
    return WorldState(
        [UUVState("u1", Point2D(1.0, 2.0), Point2D(1.0, 2.0), 100.0, 0.0)],
        {"b1": BeaconState("b1", Point2D(0.0, 0.0))},
        WorldParams(tick=0.5),
    )


def domain():
    return DomainAst(
        "d",
        (":hierarchy",),
        (("uuv", "object"),),
        (PredicateDecl("at", ("uuv",)),),
        (TaskDecl("localize", (("?u", "uuv"),)),),
        (ActionAst("fix", (("?u", "uuv"),), (), (Literal("at", ("?u",)),)),),
        (MethodAst("m", (("?u", "uuv"),), ("localize", "?u"), (), (("fix", "?u"),)),),
    )


# Each record class: a maker whose every call gives an equal record, and
# the fields its repr shows and its equality compares, in order.
RECORDS = {
    Point2D: (lambda: Point2D(1.5, -2.0), ("x", "y")),
    BathymetryGrid: (
        grid,
        ("origin_x", "origin_y", "cell_size", "n_rows", "n_cols", "depth", "nodata_value"),
    ),
    MissionPolygon: (triangle, ("vertices",)),
    DeploymentProblem: (
        lambda: DeploymentProblem(grid(), triangle(), 2),
        ("grid", "poly", "n_beacons", "max_iterations", "volume_tolerance", "rng_seed"),
    ),
    CellAssignment: (
        lambda: CellAssignment(np.array([0]), np.array([0]), np.array([0]), 1),
        ("cell_rows", "cell_cols", "site_of", "n_sites"),
    ),
    DeploymentResult: (
        lambda: DeploymentResult(
            (Point2D(5.0, 5.0),), (5.0,), (500.0,), 500.0, 0.0, 3, True, (0.0,)
        ),
        (
            "beacon_positions",
            "beacon_depths",
            "cell_volumes",
            "v_tot",
            "objective",
            "iterations_used",
            "converged",
            "site_weights",
        ),
    ),
    BeaconGraph: (
        lambda: BeaconGraph((Point2D(0.0, 0.0), Point2D(3.0, 4.0)), 10.0),
        ("positions", "coverage_link_distance", "adjacency"),
    ),
    UuvSpec: (spec, ("id", "start", "problem")),
    ScenarioConfig: (
        lambda: ScenarioConfig(
            Path("out"), Path("chart.geojson"), Path("d.hddl"), WorldParams(), (spec(),)
        ),
        ("output_dir", "beacons", "domain", "world", "uuvs", "inactive_beacons"),
    ),
    Literal: (lambda: Literal("at", ("u1", "b1")), ("predicate", "args", "negated")),
    PredicateDecl: (lambda: PredicateDecl("at", ("uuv", "beacon")), ("name", "param_types")),
    TaskDecl: (lambda: TaskDecl("localize", (("?u", "uuv"),)), ("name", "parameters")),
    ActionAst: (
        lambda: ActionAst("fix", (("?u", "uuv"),), (Literal("at", ("?u",)),), ()),
        ("name", "parameters", "precondition", "effect"),
    ),
    MethodAst: (
        lambda: MethodAst("m", (("?u", "uuv"),), ("localize", "?u"), (), (("fix", "?u"),)),
        ("name", "parameters", "task", "precondition", "subtasks"),
    ),
    DomainAst: (
        domain,
        ("name", "requirements", "types", "predicates", "tasks", "actions", "methods"),
    ),
    ProblemAst: (
        lambda: ProblemAst(
            "p", "d", (("u1", "uuv"),), (("at", "u1"),), (("localize", "u1"),), None
        ),
        ("name", "domain_name", "objects", "init", "htn", "goal"),
    ),
    Symbol: (lambda: Symbol("at", 3, 7), ("text", "line", "col")),
    SList: (lambda: SList((Symbol("at", 3, 8),), 3, 7), ("items", "line", "col")),
    GroundAction: (sense, ("name", "args", "pos_pre", "neg_pre", "add_eff", "del_eff")),
    GroundMethod: (
        lambda: GroundMethod(
            "m", ("localize", "u1"), frozenset(), frozenset(), (("sense-beacon", "u1", "b1"),)
        ),
        ("name", "task", "pos_pre", "neg_pre", "subtasks"),
    ),
    GroundTables: (
        lambda: GroundTables({sense().task: sense()}, {}, frozenset({"sense-beacon"}), 1),
        ("actions", "methods", "action_names", "instance_count"),
    ),
    PlanStats: (lambda: PlanStats(5, 2), ("nodes_expanded", "decompositions")),
    Plan: (
        lambda: Plan((sense(),), ((sense(), None),), PlanStats(5, 2)),
        ("steps", "nodes", "stats"),
    ),
    Verdict: (lambda: Verdict(False, "orphan step 0", 0), ("valid", "reason", "step_index")),
    Expectation: (
        lambda: Expectation("u1", "b1", 10.0, 20.5),
        ("uuv_id", "beacon_id", "earliest", "latest"),
    ),
    PlanningSetup: (
        lambda: PlanningSetup(GroundTables({}, {}, frozenset(), 0), (("localize", "u1"),)),
        ("tables", "network", "goal"),
    ),
    WorldParams: (
        lambda: WorldParams(tick=0.5),
        (
            "tick",
            "step_cap",
            "uuv_speed",
            "acoustic_range",
            "comm_range",
            "pulse_period",
            "drift_rate",
            "arrival_tolerance",
            "standoff_radius",
            "localization_floor",
            "initial_uncertainty",
            "margin_base",
            "current",
        ),
    ),
    BeaconState: (
        lambda: BeaconState("b1", Point2D(0.0, 0.0)),
        ("id", "position", "active", "acoustic_range", "pulse_period"),
    ),
    UUVState: (
        lambda: UUVState("u1", Point2D(1.0, 2.0), Point2D(1.0, 2.0), 100.0, 0.0),
        (
            "id",
            "true_position",
            "estimated_position",
            "position_uncertainty",
            "heading",
            "queue",
            "belief",
            "status",
            "action_ticks",
            "circle_start",
            "broadcast_target",
            "replan_count",
            "last_detection",
            "expectations",
            "setup",
        ),
    ),
    Event: (
        lambda: Event(12.0, "replan-triggered", "u1", {"beacon": "b6"}),
        ("time", "kind", "subject", "payload"),
    ),
    Detection: (lambda: Detection(12.0, "u1", "b1", 420.5), ("time", "subject", "beacon", "range")),
    WorldState: (world, ("uuvs", "beacons", "params", "ticks_run", "events")),
    Projection: (
        lambda: Projection(world(), 0.0, Point2D(0.0, 0.0), 100.0),
        ("world", "time", "position", "uncertainty"),
    ),
    ActionBehaviour: (
        lambda: ActionBehaviour(len, None, after_detection=True),
        ("tick", "project", "after_detection"),
    ),
    SimulationReport: (
        lambda: SimulationReport(world(), [], {}, {"ticks": 0}),
        ("world", "events", "tracks", "summary"),
    ),
}

FROZEN = {
    Point2D,
    BathymetryGrid,
    MissionPolygon,
    DeploymentProblem,
    CellAssignment,
    DeploymentResult,
    BeaconGraph,
    UuvSpec,
    ScenarioConfig,
    Literal,
    PredicateDecl,
    TaskDecl,
    ActionAst,
    MethodAst,
    DomainAst,
    ProblemAst,
    Symbol,
    SList,
    GroundAction,
    GroundMethod,
    GroundTables,
    PlanStats,
    Plan,
    Verdict,
    Expectation,
    ActionBehaviour,
}
# frozen records whose fields hold arrays, dicts or mutable records, so
# hashing one fails, as it did for the dataclass
UNHASHABLE_VALUES = {
    BathymetryGrid, DeploymentProblem, CellAssignment, GroundTables, ScenarioConfig
}


def by_name(classes):
    return sorted(classes, key=lambda cls: cls.__name__)


CLASSES = by_name(RECORDS)


def test_every_record_class_is_pinned_here():
    assert set(Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize(
    "record, text",
    [
        (Literal("at", ("u1", "b1")), "Literal(predicate='at', args=('u1', 'b1'), negated=False)"),
        (
            Event(12.0, "replan-triggered", "u1", {"beacon": "b6"}),
            "Event(time=12.0, kind='replan-triggered', subject='u1', payload={'beacon': 'b6'})",
        ),
        (
            Detection(12.0, "u1", "b1", 420.5),
            "Detection(time=12.0, subject='u1', beacon='b1', range=420.5)",
        ),
        (
            Verdict(True, "plan is valid"),
            "Verdict(valid=True, reason='plan is valid', step_index=None)",
        ),
        (
            BeaconGraph((Point2D(0.0, 0.0), Point2D(3.0, 4.0)), 10.0),
            "BeaconGraph(positions=(Point2D(x=0.0, y=0.0), Point2D(x=3.0, y=4.0)),"
            " coverage_link_distance=10.0, adjacency=(((1, 5.0),), ((0, 5.0),)))",
        ),
        (
            WorldState([], {}, WorldParams(step_cap=10)),
            "WorldState(uuvs=[], beacons={}, params=WorldParams(tick=1.0, step_cap=10,"
            " uuv_speed=2.0, acoustic_range=2000.0, comm_range=2000.0, pulse_period=10.0,"
            " drift_rate=0.02, arrival_tolerance=25.0, standoff_radius=50.0,"
            " localization_floor=5.0, initial_uncertainty=100.0, margin_base=0.5,"
            " current=(0.0, 0.0)), ticks_run=0, events=[])",
        ),
    ],
)
def test_repr_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_shows_each_field_in_order(cls):
    make, fields = RECORDS[cls]
    record = make()
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({shown})"


def test_repr_leaves_out_what_is_worked_out():
    assert "supertypes" not in repr(domain())
    text = repr(world())
    assert "periods" not in text and "grid" not in text


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_by_class_and_value(cls):
    make, fields = RECORDS[cls]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    # the same values in an object of another class are not equal
    twin = SimpleNamespace(**{name: getattr(a, name) for name in fields})
    assert a.__eq__(twin) is NotImplemented
    assert a != twin


# a record of each class that holds arrays, over arrays of more than one
# element, whose truth numpy refuses to give; and a maker of a copy with
# one element changed
MULTI_CELL = {
    BathymetryGrid: lambda cell=4.0: BathymetryGrid(
        0.0, 0.0, 10.0, 2, 2, [1.0, 2.0, 3.0, cell], -9999.0
    ),
    DeploymentProblem: lambda cell=4.0: DeploymentProblem(
        MULTI_CELL[BathymetryGrid](cell), triangle(), 2
    ),
    CellAssignment: lambda cell=1: CellAssignment(
        np.array([0, 0, 1]), np.array([0, 1, 0]), np.array([0, 1, cell]), 2
    ),
}


@pytest.mark.parametrize("cls", by_name(MULTI_CELL), ids=lambda cls: cls.__name__)
def test_records_of_multi_cell_arrays_compare_by_value(cls):
    make = MULTI_CELL[cls]
    assert make() == make() and not make() != make()
    assert make() != make(0) and not make() == make(0)
    with pytest.raises(TypeError):
        hash(make())


def test_records_differ_by_a_field_or_by_class():
    assert Literal("at", ("u1", "b1")) != Literal("at", ("u1", "b1"), negated=True)
    assert Symbol("at", 3, 7) != SList("at", 3, 7)
    assert Event(1.0, "detection", "u1", {}) != Event(2.0, "detection", "u1", {})


def test_equality_ignores_what_is_worked_out():
    a, b = domain(), domain()
    object.__setattr__(b, "supertypes", {})
    assert a == b
    c, d = world(), world()
    d.periods, d.grid = (), None
    assert c == d


@pytest.mark.parametrize("cls", by_name(FROZEN), ids=lambda cls: cls.__name__)
def test_frozen_record_hashes_by_value(cls):
    make, _ = RECORDS[cls]
    a, b = make(), make()
    if cls in UNHASHABLE_VALUES:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", by_name(set(RECORDS) - FROZEN), ids=lambda cls: cls.__name__)
def test_mutable_record_is_unhashable_and_assignable(cls):
    make, fields = RECORDS[cls]
    record = make()
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    for name in fields:
        setattr(record, name, getattr(record, name))
    assert record == make()


@pytest.mark.parametrize("cls", by_name(FROZEN), ids=lambda cls: cls.__name__)
def test_frozen_record_refuses_assignment_and_deletion(cls):
    make, fields = RECORDS[cls]
    record = make()
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, value)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(FrozenInstanceError):
        record.extra = 1


# the records that take the __init__ Record generates, and the value each
# of their _defaults gives a field left out
GENERATED_INIT = {
    Point2D: {},
    Expectation: {},
    GroundAction: {},
    GroundMethod: {},
    Symbol: {},
    SList: {},
    Literal: {"negated": False},
    Event: {},
    Detection: {},
    BeaconState: {
        "active": True,
        "acoustic_range": PARAMS["acoustic_range"][0],
        "pulse_period": PARAMS["pulse_period"][0],
    },
    UuvSpec: {},
    ScenarioConfig: {"inactive_beacons": ()},
    DeploymentResult: {},
    PredicateDecl: {},
    TaskDecl: {},
    ActionAst: {},
    MethodAst: {},
    ProblemAst: {},
    GroundTables: {},
    PlanStats: {},
    Plan: {},
    Verdict: {"step_index": None},
    PlanningSetup: {"goal": None},
    SimulationReport: {},
    Projection: {},
    ActionBehaviour: {"after_detection": False},
}


@pytest.mark.parametrize("cls", by_name(GENERATED_INIT), ids=lambda cls: cls.__name__)
def test_shared_init_binds_by_position_and_by_keyword(cls):
    make, fields = RECORDS[cls]
    record = make()
    values = [getattr(record, name) for name in fields]
    assert cls(*values) == record
    assert cls(**dict(zip(fields, values))) == record
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == record
    for name, value in zip(fields, values):
        assert getattr(cls(*values), name) is value


@pytest.mark.parametrize("cls", by_name(GENERATED_INIT), ids=lambda cls: cls.__name__)
def test_shared_init_fills_each_default(cls):
    make, fields = RECORDS[cls]
    assert cls._defaults == GENERATED_INIT[cls]
    record = make()
    given = {name: getattr(record, name) for name in fields if name not in cls._defaults}
    left_out = cls(**given)
    for name in fields:
        expected = GENERATED_INIT[cls][name] if name in cls._defaults else given[name]
        assert getattr(left_out, name) is expected


def test_shared_init_names_a_missing_an_unexpected_and_a_repeated_argument():
    # Python's own binding words each fault; from 3.13 an unexpected
    # keyword may add a suggestion after the name
    init = r"^PlanStats\.__init__\(\) "
    with pytest.raises(
        TypeError, match=init + "missing 1 required positional argument: 'decompositions'$"
    ):
        PlanStats(5)
    with pytest.raises(
        TypeError, match=r"^Verdict\.__init__\(\) missing 1 required positional argument: 'reason'$"
    ):
        Verdict(True, step_index=3)
    with pytest.raises(TypeError, match=init + "got an unexpected keyword argument 'nodes'"):
        PlanStats(5, 2, nodes=1)
    with pytest.raises(
        TypeError, match=init + "got multiple values for argument 'nodes_expanded'$"
    ):
        PlanStats(5, nodes_expanded=5)
    with pytest.raises(TypeError, match=init + "takes 3 positional arguments but 4 were given$"):
        PlanStats(5, 2, 1)


def test_a_record_writes_its_own_init_only_to_check_or_work_out_values():
    # a generated __init__ is compiled from a string, not from a file
    own = {cls for cls in RECORDS if cls.__init__.__code__.co_filename != "<string>"}
    assert own == {
        WorldParams,
        UUVState,
        WorldState,
        BathymetryGrid,
        MissionPolygon,
        DeploymentProblem,
        CellAssignment,
        BeaconGraph,
        DomainAst,
    }
    assert own.isdisjoint(GENERATED_INIT) and set(RECORDS) == own | set(GENERATED_INIT)

