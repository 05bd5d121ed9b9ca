"""Execution monitoring and in-mission replanning.

Every leg of a plan that approaches a beacon carries an expectation:
a time window in which the vehicle should hear that beacon.  The action
table in ``sim.world`` defines each action's projection beside its
executor step; the monitor chains a plan's steps through those
projections and stops at the first action whose duration cannot be
projected.  A vehicle's open windows are kept on the vehicle
(``UUVState.expectations``), in plan order.

After each tick, ``check`` reads the world and settles every open
window: one whose beacon the vehicle heard on that tick, at or before
the window closes, is met; one that has closed is a divergence.  For
each divergence, ``replan_episode`` has the affected vehicle mark the
beacon unreachable and share that fact with every fleet mate in comm
range, and each of them replans from its current belief against its
original task network.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import PlanNotFound
from .hddl.ast import Literal
from .hddl.ground import GroundAction, GroundTables, GroundTask
from .htn.planner import plan
from .record import Record
from .sim.world import Projection, UUVState, WorldState, action_behaviour


class Expectation(Record, frozen=True):
    """A detection window for one beacon-approach leg of a plan."""

    __slots__ = _fields = ("uuv_id", "beacon_id", "earliest", "latest")
    uuv_id: str
    beacon_id: str
    earliest: float
    latest: float


class PlanningSetup(Record):
    """What a vehicle needs to replan: ground tables, its original
    task network, and the optional goal formula."""

    __slots__ = _fields = ("tables", "network", "goal")
    tables: GroundTables
    network: tuple[GroundTask, ...]
    goal: Optional[Sequence[Literal]]
    _defaults = {"goal": None}


def derive_expectations(
    steps: Sequence[GroundAction], uuv: UUVState, world: WorldState
) -> list[Expectation]:
    """Project detection windows for every beacon-approach leg, starting
    from the vehicle's estimate and uncertainty at the world's current time.

    Position, uncertainty, and elapsed time are chained through the
    plan: each step starts where the previous one nominally ends.  Steps
    after an action of unknown duration get no expectation.
    """
    expectations: list[Expectation] = []
    projection = Projection(
        world, world.sim_time, uuv.estimated_position, uuv.position_uncertainty
    )
    for action in steps:
        project = action_behaviour(action.name).project
        if project is None:
            break
        window = project(projection, action)
        if window is not None:
            earliest, latest = window
            expectations.append(Expectation(uuv.id, action.args[1], earliest, latest))
    return expectations


def check(world: WorldState) -> list[Expectation]:
    """Settle the open windows of every vehicle, in fleet order and each
    vehicle's windows in plan order, and return the ones that diverged.

    A window whose beacon the vehicle heard on this tick, at or before
    the window's close, is met.  A window whose close has passed is a
    divergence.  Both leave the vehicle; every other window stays open.
    A detection before the window opens counts, and a failed vehicle's
    windows still close.
    """
    now, tick_number = world.sim_time, world.ticks_run
    diverged: list[Expectation] = []
    for uuv in world.uuvs:
        if not uuv.expectations:
            continue
        still_open: list[Expectation] = []
        for exp in uuv.expectations:
            if now > exp.latest:
                diverged.append(exp)
            elif not uuv.heard(exp.beacon_id, tick_number):
                still_open.append(exp)
        uuv.expectations = still_open
    return diverged


def replan_episode(exp: Expectation, world: WorldState) -> None:
    """Handle one divergence: share the bad news and replan the fleet.

    The unreachable fact is merged into the belief of the divergent
    vehicle and of every active vehicle within comm range of it, and
    each of those vehicles replans from its updated belief against its
    original task network, taking the new plan's windows in place of
    its open ones.  Vehicles that cannot find a plan fail their mission;
    the rest of the fleet is unaffected.  Events go to ``world.events``.
    """
    divergent = world.uuv(exp.uuv_id)
    unreachable = ("beacon-unreachable", exp.beacon_id)

    if divergent.status == "active" and not divergent.queue:
        world.emit(
            "warning",
            divergent.id,
            {"message": f"divergence on {exp.beacon_id} with no plan left to revise"},
        )
        return

    # The divergent vehicle is in range of itself (comm_range is never
    # negative or NaN).  Each vehicle replans from its own belief and setup,
    # and the runner sorts the tick's log afterwards, so any order will do.
    for uuv in world.uuvs:
        if (
            uuv.status != "active"
            or uuv.true_position.distance_to(divergent.true_position) > world.params.comm_range
        ):
            continue
        uuv.belief.add(unreachable)
        setup = uuv.setup
        uuv.queue.clear()
        uuv.expectations = []
        uuv.action_ticks = 0
        try:
            new_plan = plan(setup.tables, frozenset(uuv.belief), setup.network, setup.goal)
        except PlanNotFound as exc:
            uuv.status = "failed"
            world.emit(
                "mission-failed",
                uuv.id,
                {"reason": f"no recovery plan without {exp.beacon_id}: {exc}"},
            )
            continue
        uuv.queue = list(new_plan.steps)
        uuv.replan_count += 1
        world.emit(
            "replan-triggered",
            uuv.id,
            {"beacon": exp.beacon_id, "plan_length": len(new_plan.steps)},
        )
        uuv.expectations = derive_expectations(new_plan.steps, uuv, world)
