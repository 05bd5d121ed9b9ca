"""Execution monitoring and in-mission replanning.

Every leg of a plan that approaches a beacon carries an expectation:
a time window in which a detection of that beacon should appear in the
event stream.  The action table in ``sim.world`` defines each action's
projection beside its executor step; the monitor chains a plan's steps
through those projections and stops at the first action whose duration
cannot be projected.  A window that closes without a matching
detection is a divergence: the affected vehicle marks the beacon
unreachable, shares that fact with every fleet mate in comm range, and
each of them replans from its current belief against its original task
network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import PlanNotFound, SimulationError
from .hddl.ast import Literal, TaskNetwork
from .hddl.ground import GroundAction, GroundTables
from .htn.planner import plan
from .sim.world import (
    BeaconState,
    Projection,
    UUVState,
    WorldParams,
    WorldState,
    action_behaviour,
)


@dataclass
class Expectation:
    """A detection window for one beacon-approach leg of a plan."""

    uuv_id: str
    beacon_id: str
    step_index: int
    earliest: float
    latest: float
    met: bool = False
    fired: bool = False


@dataclass(frozen=True)
class DivergenceRecord:
    time: float
    uuv_id: str
    beacon_id: str
    step_index: int
    window_close: float


@dataclass
class PlanningSetup:
    """What a vehicle needs to replan: ground tables, its original
    task network, and the optional goal formula."""

    tables: GroundTables
    network: TaskNetwork
    goal: Optional[Sequence[Literal]] = None


def derive_expectations(
    steps: Sequence[GroundAction],
    uuv: UUVState,
    params: WorldParams,
    start_time: float,
    beacons: Mapping[str, BeaconState],
) -> list[Expectation]:
    """Project detection windows for every beacon-approach leg.

    Position, uncertainty, and elapsed time are chained through the
    plan: each step starts where the previous one nominally ends.  Steps
    after an action of unknown duration get no expectation.
    """
    expectations: list[Expectation] = []
    projection = Projection(
        uuv, params, beacons, start_time, uuv.estimated_position, uuv.position_uncertainty
    )
    for index, action in enumerate(steps):
        project = action_behaviour(action.name).project
        if project is None:
            break
        window = project(projection, action)
        if window is not None:
            earliest, latest = window
            expectations.append(Expectation(uuv.id, action.args[1], index, earliest, latest))
    return expectations


def note_detection(
    expectations: Iterable[Expectation], uuv_id: str, beacon_id: str, time: float
) -> None:
    """Mark every open expectation satisfied by this detection."""
    for exp in expectations:
        if exp.uuv_id == uuv_id and exp.beacon_id == beacon_id and not exp.fired:
            if time <= exp.latest:
                exp.met = True


def check(expectations: Iterable[Expectation], sim_time: float) -> list[DivergenceRecord]:
    """Return a record for every window that closed without a detection."""
    records: list[DivergenceRecord] = []
    for exp in expectations:
        if exp.met or exp.fired:
            continue
        if sim_time > exp.latest:
            exp.fired = True
            records.append(
                DivergenceRecord(
                    time=sim_time,
                    uuv_id=exp.uuv_id,
                    beacon_id=exp.beacon_id,
                    step_index=exp.step_index,
                    window_close=exp.latest,
                )
            )
    return records


def replan_episode(
    record: DivergenceRecord,
    world: WorldState,
    setups: Mapping[str, PlanningSetup],
) -> dict[str, list[Expectation]]:
    """Handle one divergence: share the bad news and replan the fleet.

    The unreachable fact is merged into the belief of the divergent
    vehicle and of every active vehicle within comm range of it, and
    each of those vehicles replans from its updated belief against its
    original task network.  Vehicles that cannot find a plan fail their
    mission; the rest of the fleet is unaffected.

    Logs its events to ``world.events`` and returns fresh expectations
    for every vehicle whose plan changed.
    """
    new_expectations: dict[str, list[Expectation]] = {}
    divergent = world.uuv(record.uuv_id)
    unreachable = ("beacon-unreachable", record.beacon_id)

    if divergent.status == "active" and not divergent.queue:
        world.emit(
            "warning",
            divergent.id,
            {"message": f"divergence on {record.beacon_id} with no plan left to revise"},
        )
        return new_expectations

    affected: list[UUVState] = []
    for uuv in world.uuvs:
        if uuv.status != "active":
            continue
        if uuv.id == divergent.id:
            affected.append(uuv)
            continue
        if uuv.true_position.distance_to(divergent.true_position) <= world.params.comm_range:
            affected.append(uuv)
    affected.sort(key=lambda u: u.id)

    for uuv in affected:
        uuv.belief.add(unreachable)
        setup = setups.get(uuv.id)
        if setup is None:
            raise SimulationError(f"no planning setup for vehicle {uuv.id!r}")
        uuv.queue.clear()
        uuv.action_started = False
        uuv.circle = None
        try:
            new_plan = plan(
                setup.tables, frozenset(uuv.belief), setup.network, setup.goal
            )
        except PlanNotFound as exc:
            uuv.status = "failed"
            world.emit(
                "mission-failed",
                uuv.id,
                {"reason": f"no recovery plan without {record.beacon_id}: {exc}"},
            )
            new_expectations[uuv.id] = []
            continue
        uuv.queue = list(new_plan.steps)
        uuv.replan_count += 1
        world.emit(
            "replan-triggered",
            uuv.id,
            {"beacon": record.beacon_id, "plan_length": len(new_plan.steps)},
        )
        new_expectations[uuv.id] = derive_expectations(
            new_plan.steps, uuv, world.params, world.sim_time, world.beacons
        )
    return new_expectations
