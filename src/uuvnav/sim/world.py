"""World state, tick dynamics and the action table for the fleet simulator.

The world advances in fixed time steps on one clock, the count of ticks
run.  Each step moves every vehicle along its current plan action, lets
vehicles in range hear the pulses fired during the tick, and emits a
deterministic event stream.  There is no hidden randomness: identical
inputs produce identical event logs.

Vehicles navigate by dead reckoning.  The true position integrates the
commanded velocity plus the ambient current; the estimated position
integrates the commanded velocity only, so a nonzero current opens a gap
between the two.  Position uncertainty grows with distance travelled and
collapses to a small floor when a beacon fix completes.

``ACTIONS`` defines each plan action once: what the executor does on
each tick, side by side with the monitor's projection of it, so the two
sides of the control loop agree.  A name missing from the table is an
instant action: it completes on its first tick and is projected as one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import SimulationError
from ..geo import Point2D
from ..hddl.ground import GroundAction

if TYPE_CHECKING:  # the monitor imports this module
    from ..monitor import Expectation, PlanningSetup


@dataclass
class WorldParams:
    """Physical and scheduling constants shared by every vehicle.
    ``step_cap`` counts ticks, not seconds."""

    tick: float = 1.0
    step_cap: int = 5000
    uuv_speed: float = 2.0
    acoustic_range: float = 2000.0
    comm_range: float = 2000.0
    pulse_period: float = 10.0
    drift_rate: float = 0.02
    arrival_tolerance: float = 25.0
    standoff_radius: float = 50.0
    localization_floor: float = 5.0
    initial_uncertainty: float = 100.0
    margin_base: float = 0.5
    current: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("tick", "step_cap", "pulse_period", "standoff_radius"):
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be positive")
        for name in (
            "uuv_speed",
            "acoustic_range",
            "comm_range",
            "drift_rate",
            "arrival_tolerance",
            "localization_floor",
            "initial_uncertainty",
            "margin_base",
        ):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be non-negative")
        # one lap of the standoff circle: its length, its angle per tick and
        # its ticks, as _circle_ticks and _tick_circle compute them
        lap = 2.0 * math.pi * self.standoff_radius
        step = self.uuv_speed * self.tick
        if not (
            math.isfinite(lap)
            and math.isfinite(self.uuv_speed / self.standoff_radius * self.tick)
            and (step == 0 or math.isfinite(lap / step))
        ):
            raise SimulationError(
                f"standoff_radius {self.standoff_radius!r} gives a circle time or"
                " angular rate that is not finite"
            )


@dataclass
class BeaconState:
    id: str
    position: Point2D
    active: bool = True
    acoustic_range: float = 2000.0
    pulse_period: float = 10.0

    def pulses_during(self, tick_number: int, tick: float) -> bool:
        """True when the beacon is active and fires a pulse, at a whole
        multiple of its period, within ((tick_number - 1) * tick,
        tick_number * tick].  The count of pulses fired never decreases, so
        each pulse falls in exactly one tick at any tick size; a tick
        longer than the period hears at most one pulse."""
        fired = math.floor(tick_number * tick / self.pulse_period)
        return self.active and fired > math.floor((tick_number - 1) * tick / self.pulse_period)


@dataclass
class UUVState:
    id: str
    true_position: Point2D
    estimated_position: Point2D
    position_uncertainty: float
    heading: float
    speed: float
    queue: list[GroundAction] = field(default_factory=list)
    belief: set[tuple[str, ...]] = field(default_factory=set)
    status: str = "active"
    action_started: bool = False
    broadcast_target: Optional[Point2D] = None
    replan_count: int = 0
    # Circle fix in progress: (theta0, ticks_done, ticks_total).
    circle: Optional[tuple[float, int, int]] = None
    last_detection: dict[str, int] = field(default_factory=dict)  # beacon id -> tick
    # The monitor's open detection windows, in plan order, and what the
    # vehicle needs to replan.
    expectations: list[Expectation] = field(default_factory=list)
    setup: Optional[PlanningSetup] = None

    @property
    def current_action(self) -> Optional[GroundAction]:
        return self.queue[0] if self.queue else None

    def heard(self, beacon_id: str, tick_number: int) -> bool:
        """True when the vehicle heard this beacon on this tick."""
        return self.last_detection.get(beacon_id) == tick_number


@dataclass
class Event:
    """One timestamped occurrence in the simulation log."""

    time: float
    kind: str
    subject: str
    payload: dict

    def sort_key(self) -> tuple[float, str]:
        return (self.time, self.subject)


@dataclass
class WorldState:
    """The fleet, the beacon table (keyed by id, in chart order), and the
    log of the tick in progress."""

    uuvs: list[UUVState]
    beacons: dict[str, BeaconState]
    params: WorldParams
    ticks_run: int = 0
    events: list[Event] = field(default_factory=list)

    @property
    def sim_time(self) -> float:
        return self.ticks_run * self.params.tick

    def emit(self, kind: str, subject: str, payload: dict) -> None:
        """Log an event at the current simulation time."""
        self.events.append(Event(self.sim_time, kind, subject, payload))

    def uuv(self, uuv_id: str) -> UUVState:
        for u in self.uuvs:
            if u.id == uuv_id:
                return u
        raise SimulationError(f"unknown vehicle id {uuv_id!r}")

    def beacon(self, beacon_id: str) -> BeaconState:
        try:
            return self.beacons[beacon_id]
        except KeyError:
            raise SimulationError(f"no position known for beacon {beacon_id!r}") from None


def sense_beacon(uuv: UUVState, beacon: BeaconState) -> bool:
    """True when the vehicle hears a pulse of this beacon: its true (not
    estimated) position lies within the beacon's acoustic range."""
    return uuv.true_position.distance_to(beacon.position) <= beacon.acoustic_range


def broadcast(sender: UUVState, world: WorldState) -> None:
    """Deliver a one-shot acoustic message to every vehicle in comm range.

    Receivers gain the sender's reported add effects plus a fact that
    they heard the message, and record the sender's estimated position as
    the rendezvous target.  Range is evaluated on true positions.
    """
    action = sender.current_action
    message_atoms: set[tuple[str, ...]] = set(action.add_eff) if action is not None else set()
    pos = sender.estimated_position
    world.emit("broadcast-sent", sender.id, {"position": [pos.x, pos.y]})
    for receiver in world.uuvs:
        if receiver.id == sender.id:
            continue
        dist = receiver.true_position.distance_to(sender.true_position)
        if dist > world.params.comm_range:
            continue
        receiver.belief |= message_atoms
        receiver.belief.add(("heard-broadcast", receiver.id))
        receiver.broadcast_target = pos
        world.emit(
            "broadcast-received", receiver.id, {"from": sender.id, "position": [pos.x, pos.y]}
        )


def _start_action(uuv: UUVState, world: WorldState) -> GroundAction:
    action = uuv.queue[0]
    if not uuv.action_started:
        uuv.action_started = True
        world.emit("action-started", uuv.id, {"action": action.name, "args": list(action.args)})
    return action


def _complete_action(uuv: UUVState, world: WorldState) -> None:
    action = uuv.queue.pop(0)
    uuv.action_started = False
    uuv.belief -= set(action.del_eff)
    uuv.belief |= set(action.add_eff)
    world.emit("action-completed", uuv.id, {"action": action.name, "args": list(action.args)})
    if not uuv.queue:
        uuv.status = "completed"
        world.emit("mission-completed", uuv.id, {})


def _fail_mission(uuv: UUVState, world: WorldState, reason: str) -> None:
    action = uuv.current_action
    world.emit(
        "action-failed",
        uuv.id,
        {
            "action": action.name if action else None,
            "args": list(action.args) if action else [],
            "reason": reason,
        },
    )
    uuv.queue.clear()
    uuv.action_started = False
    uuv.circle = None
    uuv.status = "failed"
    world.emit("mission-failed", uuv.id, {"reason": reason})


def _move_towards(uuv: UUVState, target: Point2D, world: WorldState) -> None:
    params = world.params
    est = uuv.estimated_position
    dx = target.x - est.x
    dy = target.y - est.y
    remaining = math.hypot(dx, dy)
    step_len = uuv.speed * params.tick
    if remaining <= 1e-12:
        vx, vy = 0.0, 0.0
        moved = 0.0
    elif remaining <= step_len:
        # Final partial step lands exactly on the target.
        vx, vy = dx, dy
        moved = remaining
    else:
        vx = dx / remaining * step_len
        vy = dy / remaining * step_len
        moved = step_len
    if moved > 0:
        uuv.heading = math.atan2(vy, vx)
    cx, cy = params.current
    try:
        uuv.true_position = Point2D(
            uuv.true_position.x + vx + cx * params.tick,
            uuv.true_position.y + vy + cy * params.tick,
        )
    except ValueError as exc:  # a current near the float limit overflows
        raise SimulationError(f"{uuv.id}: the current carried it out of range: {exc}") from None
    uuv.estimated_position = Point2D(est.x + vx, est.y + vy)
    uuv.position_uncertainty += params.drift_rate * moved
    if uuv.estimated_position.distance_to(target) <= params.arrival_tolerance:
        pos = uuv.estimated_position
        world.emit("waypoint-reached", uuv.id, {"position": [pos.x, pos.y]})
        _complete_action(uuv, world)


def _circle_ticks(uuv: UUVState, params: WorldParams) -> int:
    """Whole ticks the vehicle takes to fly once round the standoff circle."""
    if uuv.speed <= 0:
        raise SimulationError(f"{uuv.id}: cannot circle with zero speed")
    circumference = 2.0 * math.pi * params.standoff_radius
    return max(1, math.ceil(circumference / (uuv.speed * params.tick)))


def _tick_to_beacon(uuv: UUVState, world: WorldState) -> None:
    _move_towards(uuv, world.beacon(uuv.queue[0].args[1]).position, world)


def _tick_to_broadcast(uuv: UUVState, world: WorldState) -> None:
    if uuv.broadcast_target is None:
        _fail_mission(uuv, world, "no broadcast position known")
        return
    _move_towards(uuv, uuv.broadcast_target, world)


def _tick_sense(uuv: UUVState, world: WorldState) -> None:
    if uuv.heard(uuv.queue[0].args[1], world.ticks_run):
        _complete_action(uuv, world)


def _tick_circle(uuv: UUVState, world: WorldState) -> None:
    params = world.params
    beacon = world.beacon(uuv.queue[0].args[1])
    if not beacon.active:
        _fail_mission(uuv, world, f"beacon {beacon.id} went silent during fix")
        return
    if uuv.circle is None:
        est = uuv.estimated_position
        off_x = est.x - beacon.position.x
        off_y = est.y - beacon.position.y
        if off_x or off_y:
            theta0 = math.atan2(off_y, off_x)
        else:
            theta0 = uuv.heading + math.pi
        uuv.circle = (theta0, 0, _circle_ticks(uuv, params))
    theta0, ticks_done, ticks_total = uuv.circle
    ticks_done += 1
    omega = uuv.speed / params.standoff_radius
    theta = theta0 + omega * ticks_done * params.tick
    on_circle = Point2D(
        beacon.position.x + params.standoff_radius * math.cos(theta),
        beacon.position.y + params.standoff_radius * math.sin(theta),
    )
    uuv.true_position = on_circle
    uuv.estimated_position = on_circle
    uuv.heading = theta + math.pi / 2.0
    if ticks_done < ticks_total:
        uuv.circle = (theta0, ticks_done, ticks_total)
        return
    # The vehicle held the standoff radius under continuous acoustic
    # feedback, so the fix pins its estimate to the exit point and
    # collapses the uncertainty to the localization floor.
    uuv.position_uncertainty = params.localization_floor
    uuv.circle = None
    _complete_action(uuv, world)


def _tick_broadcast(uuv: UUVState, world: WorldState) -> None:
    broadcast(uuv, world)
    _complete_action(uuv, world)


def _tick_await(uuv: UUVState, world: WorldState) -> None:
    if ("heard-broadcast", uuv.id) in uuv.belief:
        _complete_action(uuv, world)


@dataclass
class Projection:
    """The monitor's running projection of one vehicle through its plan.

    ``time``, ``position`` and ``uncertainty`` are where the next step is
    projected to start.  Each step method from ``transit`` on advances them
    past one action and returns the (earliest, latest) window in which the
    action expects to hear the beacon named by its second argument, or None.
    """

    uuv: UUVState
    world: WorldState
    time: float
    position: Point2D
    uncertainty: float

    def _move(self, beacon: BeaconState) -> tuple[float, float]:
        """Advance to the beacon at cruise speed; return the leg's distance
        and nominal duration."""
        distance = self.position.distance_to(beacon.position)
        if distance > 0 and self.uuv.speed <= 0:
            raise SimulationError(
                f"{self.uuv.id}: leg of {distance:.1f} m is inexecutable at zero speed"
            )
        nominal = distance / self.uuv.speed if distance > 0 else 0.0
        self.time += nominal
        self.position = beacon.position
        self.uncertainty += self.world.params.drift_rate * distance
        return distance, nominal

    def transit(self, action: GroundAction) -> Optional[tuple[float, float]]:
        self._move(self.world.beacon(action.args[1]))
        return None

    def approach(self, action: GroundAction) -> Optional[tuple[float, float]]:
        """A leg that expects to hear its beacon within the nominal leg time,
        widened by a margin that grows with dead-reckoning uncertainty, plus
        one of the beacon's own pulse periods of slack at the tail."""
        beacon = self.world.beacon(action.args[1])
        start, uncertainty = self.time, self.uncertainty
        distance, nominal = self._move(beacon)
        if distance == 0:
            # Already on top of the beacon: a pulse is due within one period.
            return start, start + beacon.pulse_period
        margin = self.world.params.margin_base * (1.0 + uncertainty / distance)
        return (
            start + nominal * (1.0 - margin),
            start + nominal * (1.0 + margin) + beacon.pulse_period,
        )

    def sense(self, action: GroundAction) -> Optional[tuple[float, float]]:
        # The beacon's next pulse is at most one of its periods away.
        self.time += self.world.beacon(action.args[1]).pulse_period
        return None

    def circle(self, action: GroundAction) -> Optional[tuple[float, float]]:
        params = self.world.params
        self.time += _circle_ticks(self.uuv, params) * params.tick
        self.uncertainty = params.localization_floor
        return None

    def instant(self, action: GroundAction) -> Optional[tuple[float, float]]:
        self.time += self.world.params.tick
        return None


@dataclass(frozen=True)
class ActionBehaviour:
    """One plan action, as the executor runs it and the monitor projects it.

    ``tick`` runs on every tick the action is current, after that tick's
    detection scan if ``after_detection`` is set, and completes the
    action when it is done.  ``project`` is the action's Projection step,
    or None when the action waits on another vehicle, so its duration
    cannot be projected.
    """

    tick: Callable[[UUVState, WorldState], None]
    project: Optional[Callable[[Projection, GroundAction], Optional[tuple[float, float]]]]
    after_detection: bool = False


ACTIONS: dict[str, ActionBehaviour] = {
    "navigate-to-beacon": ActionBehaviour(_tick_to_beacon, Projection.approach),
    "transit-leg": ActionBehaviour(_tick_to_beacon, Projection.transit),
    "navigate-to-broadcast": ActionBehaviour(_tick_to_broadcast, None),
    "sense-beacon": ActionBehaviour(_tick_sense, Projection.sense, after_detection=True),
    "circle-localize": ActionBehaviour(_tick_circle, Projection.circle),
    "broadcast": ActionBehaviour(_tick_broadcast, Projection.instant),
    "await-broadcast": ActionBehaviour(_tick_await, None),
}
_INSTANT = ActionBehaviour(_complete_action, Projection.instant)


def action_behaviour(name: str) -> ActionBehaviour:
    """The table entry for an action; a name not in the table is instant."""
    return ACTIONS.get(name, _INSTANT)


def _tick_uuv(uuv: UUVState, world: WorldState) -> None:
    if uuv.status != "active" or not uuv.queue:
        return
    behaviour = action_behaviour(_start_action(uuv, world).name)
    if not behaviour.after_detection:
        behaviour.tick(uuv, world)


def _detection_phase(world: WorldState) -> None:
    # Beacons of one period pulse on the same ticks, so the pulse test
    # runs once per period, on any one active beacon of that period.
    active = [b for b in world.beacons.values() if b.active]
    by_period = {b.pulse_period: b for b in active}
    fires = {p: b.pulses_during(world.ticks_run, world.params.tick) for p, b in by_period.items()}
    pulsing = [b for b in active if fires[b.pulse_period]]
    for uuv in world.uuvs:
        if uuv.status == "failed":
            continue
        for beacon in pulsing:
            if sense_beacon(uuv, beacon):
                uuv.last_detection[beacon.id] = world.ticks_run
                world.emit(
                    "detection",
                    uuv.id,
                    {"beacon": beacon.id, "range": uuv.true_position.distance_to(beacon.position)},
                )


def _after_detection_phase(world: WorldState) -> None:
    for uuv in world.uuvs:
        action = uuv.current_action
        if uuv.status != "active" or action is None or not uuv.action_started:
            continue
        behaviour = action_behaviour(action.name)
        if behaviour.after_detection:
            behaviour.tick(uuv, world)


def step(world: WorldState) -> list[Event]:
    """Advance the world by one tick and return the events it produced:
    ``world.events``, which each tick starts empty.

    Phases within a tick: vehicles execute their current actions in id
    order, then each vehicle hears, from its new position, the beacons
    that pulsed during the tick, then actions that wait to hear a beacon
    in this tick take their turn.
    Events are stably ordered by (time, subject) so each vehicle's
    events keep their causal order.
    """
    world.ticks_run += 1
    world.events = []
    for uuv in world.uuvs:
        _tick_uuv(uuv, world)
    _detection_phase(world)
    _after_detection_phase(world)
    world.events.sort(key=Event.sort_key)
    return world.events
