"""A plain reference for a whole ``simulate`` run.

``run_reference`` builds the same world as ``uuvnav.sim.runner.run_scenario``
and steps it with ``step`` below: the simulator's tick written out without
any of its shortcuts.  Every beacon is range-tested on every tick through
``pulse_fires``; each detection is an ``Event`` with a payload dict; each
move makes fresh true and estimated points; and the three output texts are
written by ``json.dumps``.  The monitor (``uuvnav.monitor``) settles the
windows and replans on both sides.
"""

from __future__ import annotations

import json
import math

from uuvnav import monitor
from uuvnav.config import ScenarioConfig, load_beacons, read_input
from uuvnav.geo import Point2D
from uuvnav.hddl.ground import ground
from uuvnav.hddl.parser import parse_domain, parse_problem
from uuvnav.htn.planner import plan
from uuvnav.sim.world import UUVState, WorldState, pulse_fires


def complete_mission(uuv, world):
    uuv.status = "completed"
    world.emit("mission-completed", uuv.id, {})


def complete_action(uuv, world):
    action = uuv.queue.pop(0)
    uuv.action_ticks = 0
    uuv.belief -= set(action.del_eff)
    uuv.belief |= set(action.add_eff)
    world.emit("action-completed", uuv.id, {"action": action.name, "args": list(action.args)})
    if not uuv.queue:
        complete_mission(uuv, world)


def fail_mission(uuv, world, reason):
    action = uuv.queue[0]
    payload = {"action": action.name, "args": list(action.args), "reason": reason}
    world.emit("action-failed", uuv.id, payload)
    uuv.queue.clear()
    uuv.action_ticks = 0
    uuv.status = "failed"
    world.emit("mission-failed", uuv.id, {"reason": reason})


def move_towards(uuv, target, world):
    params = world.params
    est, true = uuv.estimated_position, uuv.true_position
    dx, dy = target.x - est.x, target.y - est.y
    remaining = math.hypot(dx, dy)
    step_len = params.uuv_speed * params.tick
    arrived = remaining <= step_len
    if remaining == 0:
        vx, vy, moved = 0.0, 0.0, 0.0
    elif arrived:
        vx, vy, moved = dx, dy, remaining
    else:
        vx, vy, moved = dx / remaining * step_len, dy / remaining * step_len, step_len
    if moved > 0:
        uuv.heading = math.atan2(vy, vx)
    cx, cy = params.current
    uuv.true_position = Point2D(true.x + vx + cx * params.tick, true.y + vy + cy * params.tick)
    uuv.estimated_position = Point2D(est.x + vx, est.y + vy)
    uuv.position_uncertainty += params.drift_rate * moved
    x, y = uuv.estimated_position.x, uuv.estimated_position.y
    if arrived or math.hypot(x - target.x, y - target.y) <= params.arrival_tolerance:
        world.emit("waypoint-reached", uuv.id, {"position": [x, y]})
        complete_action(uuv, world)


def to_beacon(uuv, world):
    move_towards(uuv, world.beacon(uuv.queue[0].args[1]).position, world)


def to_broadcast(uuv, world):
    if uuv.broadcast_target is None:
        fail_mission(uuv, world, "no broadcast position known")
    else:
        move_towards(uuv, uuv.broadcast_target, world)


def circle(uuv, world):
    params = world.params
    beacon = world.beacon(uuv.queue[0].args[1])
    if not beacon.active:
        fail_mission(uuv, world, f"beacon {beacon.id} went silent during fix")
        return
    bx, by = beacon.position.x, beacon.position.y
    if uuv.action_ticks == 1:
        off_x = uuv.estimated_position.x - bx
        off_y = uuv.estimated_position.y - by
        uuv.circle_start = math.atan2(off_y, off_x) if off_x or off_y else uuv.heading + math.pi
    theta = (
        uuv.circle_start
        + params.uuv_speed / params.standoff_radius * uuv.action_ticks * params.tick
    )
    x = bx + params.standoff_radius * math.cos(theta)
    y = by + params.standoff_radius * math.sin(theta)
    uuv.true_position = Point2D(x, y)
    uuv.estimated_position = Point2D(x, y)
    uuv.heading = theta + math.pi / 2.0
    lap = 2.0 * math.pi * params.standoff_radius / (params.uuv_speed * params.tick)
    if uuv.action_ticks >= max(1, math.ceil(lap)):
        uuv.position_uncertainty = params.localization_floor
        complete_action(uuv, world)


def broadcast(sender, world):
    atoms = set(sender.queue[0].add_eff)
    pos = sender.estimated_position
    world.emit("broadcast-sent", sender.id, {"position": [pos.x, pos.y]})
    for receiver in world.uuvs:
        if receiver.id == sender.id:
            continue
        if receiver.true_position.distance_to(sender.true_position) > world.params.comm_range:
            continue
        receiver.belief |= atoms
        receiver.belief.add(("heard-broadcast", receiver.id))
        receiver.broadcast_target = pos
        world.emit(
            "broadcast-received", receiver.id, {"from": sender.id, "position": [pos.x, pos.y]}
        )
    complete_action(sender, world)


def await_broadcast(uuv, world):
    if ("heard-broadcast", uuv.id) in uuv.belief:
        complete_action(uuv, world)


TICKS = {
    "navigate-to-beacon": to_beacon,
    "transit-leg": to_beacon,
    "navigate-to-broadcast": to_broadcast,
    "circle-localize": circle,
    "broadcast": broadcast,
    "await-broadcast": await_broadcast,
}


def order(event):
    return (event.time, event.subject)


def step(world):
    """One tick: actions in fleet order, then every vehicle that has not
    failed range-tests every beacon that pulsed, then sense-beacon actions
    look for their beacon among the tick's hearings."""
    world.ticks_run += 1
    world.events = []
    tick_number, tick = world.ticks_run, world.params.tick
    sensing = []
    for uuv in world.uuvs:
        if uuv.status != "active":
            continue
        if not uuv.queue:
            complete_mission(uuv, world)
            continue
        action = uuv.queue[0]
        if uuv.action_ticks == 0:
            world.emit("action-started", uuv.id, {"action": action.name, "args": list(action.args)})
        uuv.action_ticks += 1
        if action.name == "sense-beacon":
            sensing.append(uuv)
        else:
            TICKS.get(action.name, complete_action)(uuv, world)
    for uuv in world.uuvs:
        if uuv.status == "failed":
            continue
        for beacon in world.beacons.values():
            if not (beacon.active and pulse_fires(tick_number, tick, beacon.pulse_period)):
                continue
            distance = uuv.true_position.distance_to(beacon.position)
            if distance <= beacon.acoustic_range:
                uuv.last_detection[beacon.id] = tick_number
                world.emit("detection", uuv.id, {"beacon": beacon.id, "range": distance})
    for uuv in sensing:
        if uuv.last_detection.get(uuv.queue[0].args[1]) == tick_number:
            complete_action(uuv, world)
    world.events.sort(key=order)
    return world.events


def run_reference(config: ScenarioConfig) -> tuple[str, str, str]:
    """The texts of ``events.jsonl``, ``tracks.geojson`` and
    ``summary.json`` for a scenario."""
    domain = parse_domain(read_input(config.domain, "domain"))
    beacons = {b.id: b for b in load_beacons(config.beacons, config.world)}
    for silenced in config.inactive_beacons:
        beacons[silenced].active = False
    uuvs, plan_lengths = [], {}
    for spec in sorted(config.uuvs, key=lambda s: s.id):
        problem = parse_problem(read_input(spec.problem, "problem"), domain)
        tables = ground(domain, problem)
        steps = plan(tables, frozenset(problem.init), problem.htn, problem.goal).steps
        plan_lengths[spec.id] = len(steps)
        uuvs.append(
            UUVState(
                id=spec.id,
                true_position=spec.start,
                estimated_position=spec.start,
                position_uncertainty=config.world.initial_uncertainty,
                heading=0.0,
                queue=list(steps),
                belief=set(problem.init),
                setup=monitor.PlanningSetup(tables, problem.htn, problem.goal),
            )
        )
    world = WorldState(uuvs=uuvs, beacons=beacons, params=config.world)
    for uuv in uuvs:
        uuv.expectations = monitor.derive_expectations(uuv.queue, uuv, world)

    tracks = {uuv.id: {"true": [], "estimated": []} for uuv in uuvs}

    def log_positions():
        for uuv in uuvs:
            tracks[uuv.id]["true"].append([uuv.true_position.x, uuv.true_position.y])
            tracks[uuv.id]["estimated"].append(
                [uuv.estimated_position.x, uuv.estimated_position.y]
            )

    log_positions()
    events = []
    while any(u.status == "active" for u in uuvs) and world.ticks_run < config.world.step_cap:
        step(world)
        divergences = monitor.check(world)
        for exp in divergences:
            monitor.replan_episode(exp, world)
        world.events.sort(key=order)
        events.extend(world.events)
        log_positions()

    counts = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    summary = {
        "sim_time": world.sim_time,
        "ticks": world.ticks_run,
        "all_missions_completed": all(u.status == "completed" for u in uuvs),
        "event_counts": counts,
        "uuvs": {
            uuv.id: {
                "status": uuv.status,
                "replans": uuv.replan_count,
                "initial_plan_length": plan_lengths[uuv.id],
                "final_estimated_position": [uuv.estimated_position.x, uuv.estimated_position.y],
                "final_true_position": [uuv.true_position.x, uuv.true_position.y],
                "position_uncertainty": uuv.position_uncertainty,
            }
            for uuv in uuvs
        },
    }
    lines = []
    for event in events:
        record = {"v": 1, "t": event.time, "kind": event.kind, "subject": event.subject}
        record.update(event.payload)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    features = [
        {
            "type": "Feature",
            "properties": {"id": uuv_id, "role": role},
            "geometry": {"type": "LineString", "coordinates": tracks[uuv_id][role]},
        }
        for uuv_id in sorted(tracks)
        for role in ("true", "estimated")
    ]
    collection = {"type": "FeatureCollection", "features": features}
    return (
        "".join(lines),
        json.dumps(collection, indent=2, sort_keys=True) + "\n",
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
