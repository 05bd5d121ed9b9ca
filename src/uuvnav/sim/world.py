"""World state, tick dynamics and the action table for the fleet simulator.

The world advances in fixed time steps on one clock, the count of ticks
run.  Each step moves every vehicle along its current plan action, lets
vehicles in range hear the pulses fired during the tick, and emits a
deterministic event stream.  There is no hidden randomness: identical
inputs produce identical event logs.

The state is kept in mutable records, plain slotted classes on
``record.Record`` (``WorldParams``, ``BeaconState``, ``UUVState``,
``WorldState``), and the log in two: a ``Detection`` for each pulse a
vehicle hears, which is most of a run's log, and an ``Event`` with a
payload dict for everything else.  Both carry ``time``, ``kind`` and
``subject``, and a tick's log is sorted once by ``EVENT_ORDER``, (time,
subject), stably.

Every world lies in one envelope, checked where input enters the
program (``PARAMS`` below, and ``geo.COORDINATE_LIMIT``), so no quantity
a run computes can overflow and the code here carries no guard for it.
A vehicle hears only the beacons in the 3 × 3 block of grid cells round
its own (``BeaconGrid``), a rule that holds anywhere in the envelope.

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
import operator
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..errors import shown
from ..geo import Point2D
from ..hddl.ground import GroundAction
from ..record import Record

if TYPE_CHECKING:  # the monitor imports this module
    from ..monitor import Expectation, PlanningSetup


# Each world value: its default and the [least, most] of its envelope.
# With every coordinate read within geo.COORDINATE_LIMIT, the speed of the
# current within CURRENT_LIMIT and a run's reach within REACH_LIMIT, no
# quantity a run computes can overflow.
PARAMS = {
    "tick": (1.0, 1e-3, 3600.0),  # s
    "step_cap": (5000, 1, 10_000_000),  # ticks, not seconds
    "uuv_speed": (2.0, 1e-3, 100.0),  # m/s
    "acoustic_range": (2000.0, 0.0, 1e6),  # m
    "comm_range": (2000.0, 0.0, 1e6),  # m
    "pulse_period": (10.0, 1e-3, 1e6),  # s
    "drift_rate": (0.02, 0.0, 1e3),  # m of uncertainty per m travelled
    "arrival_tolerance": (25.0, 0.0, 1e6),  # m
    "standoff_radius": (50.0, 1e-3, 1e6),  # m
    "localization_floor": (5.0, 0.0, 1e6),  # m
    "initial_uncertainty": (100.0, 0.0, 1e6),  # m
    "margin_base": (0.5, 0.0, 1e3),
}
CURRENT_LIMIT = 100.0  # m/s
REACH_LIMIT = 1e7  # m: (uuv_speed + |current|) × tick × step_cap


def outside_limits(name: str, value: float) -> Optional[str]:
    """None for a value within its envelope in PARAMS, else a message naming it."""
    _, least, most = PARAMS[name]
    if least <= value <= most:  # NaN fails
        return None
    return f"{name} must lie in [{least:g}, {most:g}], got {shown(value)}"


class WorldParams(Record):
    """Physical and scheduling constants shared by every vehicle: each
    value of PARAMS, given by keyword or left at its default, and the
    ambient ``current`` as (x, y) in m/s.  ``load_scenario`` holds each
    value it reads to PARAMS, CURRENT_LIMIT and REACH_LIMIT; the record
    stores what it is given."""

    __slots__ = _fields = (*PARAMS, "current")
    _defaults = {name: spec[0] for name, spec in PARAMS.items()} | {"current": (0.0, 0.0)}


class BeaconState(Record):
    __slots__ = _fields = ("id", "position", "active", "acoustic_range", "pulse_period")
    id: str
    position: Point2D
    active: bool
    acoustic_range: float
    pulse_period: float
    _defaults = {
        "active": True,
        "acoustic_range": PARAMS["acoustic_range"][0],
        "pulse_period": PARAMS["pulse_period"][0],
    }


def pulse_fires(tick_number: int, tick: float, period: float) -> bool:
    """True when a pulse, at a whole multiple of ``period``, falls within
    ((tick_number - 1) * tick, tick_number * tick].  The count of pulses
    fired never decreases, so each pulse falls in exactly one tick at any
    tick size; a tick longer than the period hears at most one pulse."""
    return math.floor(tick_number * tick / period) > math.floor((tick_number - 1) * tick / period)


class BeaconGrid:
    """The chart's beacons bucketed in square cells of side ``side``, each
    as ``(beacon, x, y)``; positions and ranges are taken once.

    A beacon sits in cell (floor(x / side), floor(y / side)).  The side is
    the largest acoustic range, at least 32 m, times 1 + 2**-20.  A heard
    beacon is within its range, times 1 + 4 × 2**-53 for the rounding of
    the difference and of hypot, of the vehicle on each axis.  The envelope
    keeps every position a run reaches within 1e7 + 1e6 + 1e7 m of the
    origin on each axis: a start or a beacon lies within 1e7 m, a standoff
    circle within 1e6 m of its beacon, and a run moves a vehicle by at most
    its reach, 1e7 m.  That is less than 32 × 2**20 m, so |x| and |y| are
    at most side × 2**20, each quotient is off by at most 2**-33, a heard
    beacon's quotient differs from the vehicle's by less than 1 - 2**-21,
    and its cell by at most one.
    """

    MARGIN = 1.0 + 2.0**-20

    def __init__(self, beacons: Iterable[BeaconState]) -> None:
        self.chart = [(b, b.position.x, b.position.y) for b in beacons]
        self.side = max([32.0] + [b.acoustic_range for b, _, _ in self.chart]) * self.MARGIN
        self._cells = [self.cell(x, y) for _, x, y in self.chart]
        self._blocks: dict[tuple[int, int], list[tuple[BeaconState, float, float]]] = {}

    def cell(self, x: float, y: float) -> tuple[int, int]:
        side = self.side
        return math.floor(x / side), math.floor(y / side)

    def block(self, cell: tuple[int, int]) -> list[tuple[BeaconState, float, float]]:
        """The beacons in the 3 × 3 block round ``cell``, in chart order,
        built on first use."""
        found = self._blocks.get(cell)
        if found is None:
            cx, cy = cell
            found = self._blocks[cell] = [
                entry
                for entry, (bx, by) in zip(self.chart, self._cells)
                if -1 <= bx - cx <= 1 and -1 <= by - cy <= 1
            ]
        return found


class UUVState(Record):
    __slots__ = _fields = (
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
    )

    def __init__(
        self,
        id: str,
        true_position: Point2D,
        estimated_position: Point2D,
        position_uncertainty: float,
        heading: float,
        queue: Optional[list[GroundAction]] = None,
        belief: Optional[set[tuple[str, ...]]] = None,
        status: str = "active",
        action_ticks: int = 0,
        circle_start: float = 0.0,
        broadcast_target: Optional[Point2D] = None,
        replan_count: int = 0,
        last_detection: Optional[dict[str, int]] = None,
        expectations: Optional[list[Expectation]] = None,
        setup: Optional[PlanningSetup] = None,
    ) -> None:
        # each container left out is a new empty one
        self.id = id
        self.true_position = true_position
        self.estimated_position = estimated_position
        self.position_uncertainty = position_uncertainty
        self.heading = heading
        self.queue = [] if queue is None else queue
        self.belief = set() if belief is None else belief
        self.status = status
        # Ticks the current action has run, 0 until it starts; a circle fix
        # starts at the angle set on its first tick.
        self.action_ticks = action_ticks
        self.circle_start = circle_start
        self.broadcast_target = broadcast_target
        self.replan_count = replan_count
        self.last_detection = {} if last_detection is None else last_detection  # id -> tick
        # The monitor's open detection windows, in plan order, and what the
        # vehicle needs to replan.
        self.expectations = [] if expectations is None else expectations
        self.setup = setup

    def heard(self, beacon_id: str, tick_number: int) -> bool:
        """True when the vehicle heard this beacon on this tick."""
        return self.last_detection.get(beacon_id) == tick_number


class Event(Record):
    """One timestamped occurrence in the simulation log."""

    __slots__ = _fields = ("time", "kind", "subject", "payload")
    time: float
    kind: str
    subject: str
    payload: dict


class Detection(Record):
    """A vehicle heard a beacon's pulse: the event the detection scan
    logs, one per vehicle and beacon heard, with an ``Event``'s time,
    kind and subject, and the beacon and range as fields of its own.

    Only ``_detection_phase`` builds one, so its values are those a run
    makes inside the input envelope: ``subject`` and ``beacon`` are
    non-empty str ids, ``range`` is a finite float, and ``time`` is
    ``ticks_run × tick``, a finite float (or an int, in a world built in
    Python with an int tick).  No later code tests them again."""

    __slots__ = _fields = ("time", "subject", "beacon", "range")
    time: float
    subject: str
    beacon: str
    range: float
    kind = "detection"


# The order of a tick's log: by time, then subject.  The sort is stable,
# so each vehicle's events keep their causal order.
EVENT_ORDER = operator.attrgetter("time", "subject")


class WorldState(Record):
    """The fleet, the beacon table (keyed by id, in chart order), and the
    log of the tick in progress.  The runner loads no problem that names
    a beacon missing from the table, so actions index it directly.
    ``periods`` holds the chart's distinct pulse periods and ``grid`` its
    beacons by cell, both taken once when the world is made; they are not
    fields, so neither compared nor shown."""

    _fields = ("uuvs", "beacons", "params", "ticks_run", "events")
    __slots__ = (*_fields, "periods", "grid")

    def __init__(
        self,
        uuvs: list[UUVState],
        beacons: dict[str, BeaconState],
        params: WorldParams,
        ticks_run: int = 0,
        events: Optional[list[Event | Detection]] = None,
    ) -> None:
        self.uuvs = uuvs
        self.beacons = beacons
        self.params = params
        self.ticks_run = ticks_run
        self.events = [] if events is None else events
        self.periods = tuple(dict.fromkeys(b.pulse_period for b in beacons.values()))
        self.grid = BeaconGrid(beacons.values())

    @property
    def sim_time(self) -> float:
        return self.ticks_run * self.params.tick

    def emit(self, kind: str, subject: str, payload: dict) -> None:
        """Log an event at the current simulation time."""
        self.events.append(Event(self.sim_time, kind, subject, payload))


def sense_beacon(distance: float, beacon: BeaconState) -> bool:
    """True when a vehicle hears a pulse of this beacon: ``distance``, from
    the vehicle's true (not estimated) position, is within the beacon's
    acoustic range."""
    return distance <= beacon.acoustic_range


def broadcast(sender: UUVState, world: WorldState) -> None:
    """Deliver a one-shot acoustic message to every vehicle in comm range.

    Receivers gain the sender's reported add effects plus a fact that
    they heard the message, and record the sender's estimated position as
    the rendezvous target.  Range is evaluated on true positions.
    """
    message_atoms = sender.queue[0].add_eff
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


def _complete_action(uuv: UUVState, world: WorldState) -> None:
    action = uuv.queue.pop(0)
    uuv.action_ticks = 0
    uuv.belief -= action.del_eff
    uuv.belief |= action.add_eff
    world.emit("action-completed", uuv.id, {"action": action.name, "args": list(action.args)})
    if not uuv.queue:
        _complete_mission(uuv, world)


def _complete_mission(uuv: UUVState, world: WorldState) -> None:
    uuv.status = "completed"
    world.emit("mission-completed", uuv.id, {})


def _fail_mission(uuv: UUVState, world: WorldState, reason: str) -> None:
    action = uuv.queue[0]
    world.emit(
        "action-failed",
        uuv.id,
        {"action": action.name, "args": list(action.args), "reason": reason},
    )
    uuv.queue.clear()
    uuv.action_ticks = 0
    uuv.status = "failed"
    world.emit("mission-failed", uuv.id, {"reason": reason})


def _move_towards(uuv: UUVState, target: Point2D, world: WorldState) -> None:
    """One tick's step towards ``target``.  A step that reaches the target
    arrives, though ``ex + (tx - ex)`` may round off ``tx``."""
    params = world.params
    est = uuv.estimated_position
    ex, ey, tx, ty = est.x, est.y, target.x, target.y
    dx = tx - ex
    dy = ty - ey
    remaining = math.hypot(dx, dy)
    tick = params.tick
    step_len = params.uuv_speed * tick
    arrived = remaining <= step_len
    if arrived:
        # On the target already, tx - ex can be -0.0; the step is (0.0,
        # 0.0), the zeros the signed-zero positions below are pinned with.
        vx, vy = (dx, dy) if remaining else (0.0, 0.0)
        moved = remaining
    else:
        vx = dx / remaining * step_len
        vy = dy / remaining * step_len
        moved = step_len
    if moved > 0:
        uuv.heading = math.atan2(vy, vx)
    cx, cy = params.current
    cx *= tick
    cy *= tick
    x, y = ex + vx, ey + vy
    true = uuv.true_position
    # Truth is x + cx: the same bits as x when cx is ±0.0 and x is not
    # ±0.0 (-0.0 + 0.0 is 0.0), so one point then serves as both.
    if true is est and not cx and not cy and x != 0.0 and y != 0.0:
        uuv.true_position = uuv.estimated_position = Point2D(x, y)
    else:
        uuv.true_position = Point2D(true.x + vx + cx, true.y + vy + cy)
        uuv.estimated_position = Point2D(x, y)
    uuv.position_uncertainty += params.drift_rate * moved
    if arrived or math.hypot(x - tx, y - ty) <= params.arrival_tolerance:
        world.emit("waypoint-reached", uuv.id, {"position": [x, y]})
        _complete_action(uuv, world)


def _circle_ticks(params: WorldParams) -> int:
    """Whole ticks a vehicle takes to fly once round the standoff circle."""
    circumference = 2.0 * math.pi * params.standoff_radius
    return max(1, math.ceil(circumference / (params.uuv_speed * params.tick)))


def _tick_to_beacon(uuv: UUVState, world: WorldState) -> None:
    _move_towards(uuv, world.beacons[uuv.queue[0].args[1]].position, world)


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
    beacon = world.beacons[uuv.queue[0].args[1]]
    if not beacon.active:
        _fail_mission(uuv, world, f"beacon {beacon.id} went silent during fix")
        return
    if uuv.action_ticks == 1:
        est = uuv.estimated_position
        off_x = est.x - beacon.position.x
        off_y = est.y - beacon.position.y
        if off_x or off_y:
            uuv.circle_start = math.atan2(off_y, off_x)
        else:
            uuv.circle_start = uuv.heading + math.pi
    ticks_total = _circle_ticks(params)
    omega = params.uuv_speed / params.standoff_radius
    theta = uuv.circle_start + omega * uuv.action_ticks * params.tick
    on_circle = Point2D(
        beacon.position.x + params.standoff_radius * math.cos(theta),
        beacon.position.y + params.standoff_radius * math.sin(theta),
    )
    uuv.true_position = on_circle
    uuv.estimated_position = on_circle
    uuv.heading = theta + math.pi / 2.0
    if uuv.action_ticks < ticks_total:
        return
    # The vehicle held the standoff radius under continuous acoustic
    # feedback, so the fix pins its estimate to the exit point and
    # collapses the uncertainty to the localization floor.
    uuv.position_uncertainty = params.localization_floor
    _complete_action(uuv, world)


def _tick_broadcast(uuv: UUVState, world: WorldState) -> None:
    broadcast(uuv, world)
    _complete_action(uuv, world)


def _tick_await(uuv: UUVState, world: WorldState) -> None:
    if ("heard-broadcast", uuv.id) in uuv.belief:
        _complete_action(uuv, world)


class Projection(Record):
    """The monitor's running projection of one vehicle through its plan.

    ``time``, ``position`` and ``uncertainty`` are where the next step is
    projected to start.  Each step method from ``transit`` on advances them
    past one action and returns the (earliest, latest) window in which the
    action expects to hear the beacon named by its second argument, or None.
    """

    __slots__ = _fields = ("world", "time", "position", "uncertainty")
    world: WorldState
    time: float
    position: Point2D
    uncertainty: float

    def _move(self, beacon: BeaconState) -> tuple[float, float]:
        """Advance to the beacon at cruise speed; return the leg's distance
        and nominal duration."""
        distance = self.position.distance_to(beacon.position)
        nominal = distance / self.world.params.uuv_speed
        self.time += nominal
        self.position = beacon.position
        self.uncertainty += self.world.params.drift_rate * distance
        return distance, nominal

    def transit(self, action: GroundAction) -> Optional[tuple[float, float]]:
        self._move(self.world.beacons[action.args[1]])
        return None

    def approach(self, action: GroundAction) -> Optional[tuple[float, float]]:
        """A leg that expects to hear its beacon within the nominal leg time,
        widened by a margin that grows with dead-reckoning uncertainty, plus
        one of the beacon's own pulse periods of slack at the tail."""
        beacon = self.world.beacons[action.args[1]]
        start, uncertainty = self.time, self.uncertainty
        distance, nominal = self._move(beacon)
        if distance == 0:
            # Already on top of the beacon: a pulse is due within one period.
            return start, start + beacon.pulse_period
        # the margin is margin_base * (1 + uncertainty / distance) of the
        # nominal time, spelled so that a leg of a few ulps neither divides
        # to inf nor multiplies a zero nominal time by it
        params = self.world.params
        slack = params.margin_base * (nominal + uncertainty / params.uuv_speed)
        return (
            start + nominal - slack,
            start + nominal + slack + beacon.pulse_period,
        )

    def sense(self, action: GroundAction) -> Optional[tuple[float, float]]:
        # The beacon's next pulse is at most one of its periods away.
        self.time += self.world.beacons[action.args[1]].pulse_period
        return None

    def circle(self, action: GroundAction) -> Optional[tuple[float, float]]:
        params = self.world.params
        self.time += _circle_ticks(params) * params.tick
        self.uncertainty = params.localization_floor
        return None

    def instant(self, action: GroundAction) -> Optional[tuple[float, float]]:
        self.time += self.world.params.tick
        return None


class ActionBehaviour(Record, frozen=True):
    """One plan action, as the executor runs it and the monitor projects it.

    ``tick`` runs on every tick the action is current, after that tick's
    detection scan if ``after_detection`` is set, and completes the
    action when it is done.  ``project`` is the action's Projection step,
    or None when the action waits on another vehicle, so its duration
    cannot be projected.  ``reads_beacon`` is set when either reads the
    beacon that the action's second argument names, so the runner
    refuses a domain that types that parameter as anything but a beacon.
    """

    __slots__ = _fields = ("tick", "project", "after_detection", "reads_beacon")
    tick: Callable[[UUVState, WorldState], None]
    project: Optional[Callable[[Projection, GroundAction], Optional[tuple[float, float]]]]
    after_detection: bool
    reads_beacon: bool
    _defaults = {"after_detection": False, "reads_beacon": False}


ACTIONS: dict[str, ActionBehaviour] = {
    "navigate-to-beacon": ActionBehaviour(_tick_to_beacon, Projection.approach, reads_beacon=True),
    "transit-leg": ActionBehaviour(_tick_to_beacon, Projection.transit, reads_beacon=True),
    "navigate-to-broadcast": ActionBehaviour(_tick_to_broadcast, None),
    "sense-beacon": ActionBehaviour(
        _tick_sense, Projection.sense, after_detection=True, reads_beacon=True
    ),
    "circle-localize": ActionBehaviour(_tick_circle, Projection.circle, reads_beacon=True),
    "broadcast": ActionBehaviour(_tick_broadcast, Projection.instant),
    "await-broadcast": ActionBehaviour(_tick_await, None),
}
_INSTANT = ActionBehaviour(_complete_action, Projection.instant)


def action_behaviour(name: str) -> ActionBehaviour:
    """The table entry for an action; a name not in the table is instant."""
    return ACTIONS.get(name, _INSTANT)


def _detection_phase(world: WorldState) -> None:
    """Each vehicle that has not failed hears, from its true position, the
    active beacons that pulsed during the tick and are in range, in chart
    order.  The pulse rule runs once per distinct period, and a tick on
    which no period fires scans nothing; ``active`` is read on every tick
    that fires, since a beacon can be silenced mid-run.

    Only the beacons of the 3 × 3 block of cells round the vehicle are
    range-tested (``BeaconGrid``): the cell side is the largest acoustic
    range times 1 + 2**-20, a margin that rounding cannot cross anywhere
    inside the envelope.  Each block's pulsing beacons are listed once per
    tick.  Each hearing is a ``Detection`` appended to
    ``world.events``."""
    tick_number, tick = world.ticks_run, world.params.tick
    fired = {p for p in world.periods if pulse_fires(tick_number, tick, p)}
    if not fired:
        return
    now = world.sim_time
    grid = world.grid
    cell_of, block = grid.cell, grid.block
    pulsing_in: dict[tuple[int, int], list[tuple[BeaconState, float, float]]] = {}
    hypot = math.hypot
    log = world.events.append
    for uuv in world.uuvs:
        if uuv.status == "failed":
            continue
        position = uuv.true_position
        x, y = position.x, position.y
        cell = cell_of(x, y)
        pulsing = pulsing_in.get(cell)
        if pulsing is None:
            pulsing = pulsing_in[cell] = [
                entry for entry in block(cell) if entry[0].active and entry[0].pulse_period in fired
            ]
        subject, heard = uuv.id, uuv.last_detection
        for beacon, bx, by in pulsing:
            distance = hypot(x - bx, y - by)  # Point2D.distance_to, spelled out
            if sense_beacon(distance, beacon):
                heard[beacon.id] = tick_number
                log(Detection(now, subject, beacon.id, distance))


def step(world: WorldState) -> list[Event | Detection]:
    """Advance the world by one tick and return the events it produced:
    ``world.events``, which each tick starts empty.

    Phases within a tick: vehicles execute their current actions in id
    order, then each vehicle hears, from its new position, the beacons
    that pulsed during the tick (on most ticks no period fires and the
    scan is skipped), then actions that wait to hear a beacon in this
    tick take their turn.
    Events are stably ordered by ``EVENT_ORDER`` so each vehicle's
    events keep their causal order.
    """
    world.ticks_run += 1
    events = world.events = []
    waiting = None  # (vehicle, behaviour) whose action hears this tick's pulses
    for uuv in world.uuvs:
        if uuv.status != "active":
            continue
        if not uuv.queue:  # an empty plan, from the start or from a replan
            _complete_mission(uuv, world)
            continue
        action = uuv.queue[0]
        if not uuv.action_ticks:
            world.emit("action-started", uuv.id, {"action": action.name, "args": list(action.args)})
        uuv.action_ticks += 1
        behaviour = action_behaviour(action.name)
        if behaviour.after_detection:
            if waiting is None:
                waiting = []
            waiting.append((uuv, behaviour))
        else:
            behaviour.tick(uuv, world)
    _detection_phase(world)
    if waiting is not None:
        for uuv, behaviour in waiting:
            behaviour.tick(uuv, world)
    events.sort(key=EVENT_ORDER)
    return events
