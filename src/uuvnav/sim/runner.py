"""Closed-loop scenario execution.

Wires the pieces together: parse the domain and one problem per
vehicle, plan each mission, and build the initial world, where each
vehicle carries its planning setup and its plan's detection windows.
Then each tick is ``step(world)``, then ``monitor.check(world)`` settles
the tick's windows, and each divergence it returns runs one replanning
episode.  The run produces an ordered event log, per-tick position
tracks, and a summary suitable for serialization.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, TextIO

from .. import monitor
from ..config import ScenarioConfig, load_beacons, parse_input
from ..errors import InputError
from ..geo import Point2D
from ..hddl.ground import ground
from ..hddl.parser import parse_domain, parse_problem
from ..htn.planner import plan
from ..record import Record
from .world import EVENT_ORDER, Detection, Event, UUVState, WorldState, action_behaviour, step

EVENT_SCHEMA_VERSION = 1


class SimulationReport(Record):
    """A finished run.  ``tracks`` maps each vehicle id to its "true" and
    "estimated" lists of the vehicle's own ``Point2D`` positions, one per
    tick and the start: a vehicle that has not moved logs the same object
    again, and the two tracks hold the same object wherever truth and
    estimate were one."""

    __slots__ = _fields = ("world", "events", "tracks", "summary")
    world: WorldState
    events: list[Event | Detection]
    tracks: dict[str, dict[str, list[Point2D]]]
    summary: dict


def run_scenario(config: ScenarioConfig) -> SimulationReport:
    """Execute a scenario to completion (or to the step cap)."""
    domain = parse_input(config.domain, "domain", parse_domain)
    for action in domain.actions:
        params = action.parameters
        if action_behaviour(action.name).reads_beacon and not (
            len(params) > 1 and domain.is_subtype(params[1][1], "beacon")
        ):
            raise InputError(
                f"{config.domain}: action {action.name!r} must take a beacon as its second"
                " parameter: the simulator runs it at that beacon"
            )
    beacons = {b.id: b for b in load_beacons(config.beacons, config.world)}
    for silenced in config.inactive_beacons:
        if silenced not in beacons:
            raise InputError(
                f"inactive_beacons names unknown beacon {silenced!r} (not in {config.beacons})"
            )
        beacons[silenced].active = False

    uuvs: list[UUVState] = []
    initial_plans: dict[str, int] = {}
    for spec in sorted(config.uuvs, key=lambda s: s.id):
        problem = parse_input(spec.problem, "problem", lambda text: parse_problem(text, domain))
        for name, type_name in problem.objects:
            if domain.is_subtype(type_name, "beacon") and name not in beacons:
                raise InputError(
                    f"{spec.problem}: beacon object {name!r} is not in the chart"
                    f" {config.beacons}"
                )
        tables = ground(domain, problem)
        mission_plan = plan(tables, frozenset(problem.init), problem.htn, problem.goal)
        initial_plans[spec.id] = len(mission_plan.steps)
        uuvs.append(
            UUVState(
                id=spec.id,
                true_position=spec.start,
                estimated_position=spec.start,
                position_uncertainty=config.world.initial_uncertainty,
                heading=0.0,
                queue=list(mission_plan.steps),
                belief=set(problem.init),
                setup=monitor.PlanningSetup(tables, problem.htn, problem.goal),
            )
        )

    world = WorldState(uuvs=uuvs, beacons=beacons, params=config.world)
    for uuv in world.uuvs:
        uuv.expectations = monitor.derive_expectations(uuv.queue, uuv, world)

    tracks = {uuv.id: {"true": [], "estimated": []} for uuv in world.uuvs}
    logs = [
        (uuv, tracks[uuv.id]["true"].append, tracks[uuv.id]["estimated"].append)
        for uuv in world.uuvs
    ]

    def log_positions() -> None:
        for uuv, log_true, log_estimated in logs:
            log_true(uuv.true_position)
            log_estimated(uuv.estimated_position)

    log_positions()

    events: list[Event | Detection] = []
    while any(u.status == "active" for u in world.uuvs):
        if world.ticks_run >= config.world.step_cap:
            break
        step(world)
        divergences = monitor.check(world)
        for uuv, exp in divergences:
            monitor.replan_episode(uuv, exp, world)
        if divergences:
            # replanning logs to the same tick's events, after step sorted them
            world.events.sort(key=EVENT_ORDER)
        events.extend(world.events)
        log_positions()

    kind_counts = Counter(map(operator.attrgetter("kind"), events))
    summary = {
        "sim_time": world.sim_time,
        "ticks": world.ticks_run,
        "all_missions_completed": all(u.status == "completed" for u in world.uuvs),
        "event_counts": dict(sorted(kind_counts.items())),
        "uuvs": {
            uuv.id: {
                "status": uuv.status,
                "replans": uuv.replan_count,
                "initial_plan_length": initial_plans[uuv.id],
                "final_estimated_position": [
                    uuv.estimated_position.x,
                    uuv.estimated_position.y,
                ],
                "final_true_position": [uuv.true_position.x, uuv.true_position.y],
                "position_uncertainty": uuv.position_uncertainty,
            }
            for uuv in world.uuvs
        },
    }
    return SimulationReport(world=world, events=events, tracks=tracks, summary=summary)


_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def event_to_json_line(event: Event) -> str:
    """One event as a compact JSON line with a schema version tag."""
    record = {
        "v": EVENT_SCHEMA_VERSION,
        "t": event.time,
        "kind": event.kind,
        "subject": event.subject,
    }
    record.update(event.payload)
    return _EVENT_ENCODER.encode(record)


# A detection's line as event_to_json_line writes it, keys sorted, in
# three parts: the head up to the range and the middle up to the time,
# each with an id quoted by json's own ASCII quoter, and the tail from
# the time on.  repr spells a finite float, and an int, as json does.
_DETECTION_HEAD = '{"beacon":%s,"kind":"detection","range":'
_DETECTION_MIDDLE = ',"subject":%s,"t":'
_DETECTION_TAIL = '%r,"v":' + str(EVENT_SCHEMA_VERSION) + "}\n"


def write_events_jsonl(events: Iterable[Event | Detection], out: TextIO) -> None:
    """Write one ``event_to_json_line`` line per event, in order, with one
    write of the whole text.

    A ``Detection`` record, of the values its docstring states, is filled
    into a fixed line; an ``Event``, one of kind ``detection`` included,
    goes through event_to_json_line.  Each
    (subject, beacon) pair quotes its ids once and reuses its line up to
    the time while it hears the same non-zero range; lines of the same
    non-zero time reuse the tail.  Equal non-zero floats have equal bits,
    so they spell the same; 0.0 and -0.0 are equal but spell differently.
    """
    # subject -> beacon -> [head, middle, last range, line up to the time]
    pairs: dict[str, dict[str, list]] = {}
    last_time: object = None
    tail = ""
    quote = encode_basestring_ascii
    parts: list[str] = []
    add = parts.append
    for event in events:
        if type(event) is Detection:
            distance, time = event.range, event.time
            subject, beacon = event.subject, event.beacon
            heard = pairs.get(subject) or pairs.setdefault(subject, {})
            pair = heard.get(beacon)
            if pair is None:
                head = _DETECTION_HEAD % quote(beacon)
                pair = heard[beacon] = [head, _DETECTION_MIDDLE % quote(subject), None, ""]
            if pair[2] != distance or not distance:
                pair[2] = distance
                pair[3] = f"{pair[0]}{distance!r}{pair[1]}"
            if time != last_time or not time:
                last_time, tail = time, _DETECTION_TAIL % time
            add(pair[3])
            add(tail)
        else:
            add(event_to_json_line(event) + "\n")
    out.write("".join(parts))


# One feature, and in _spell_track one track point, laid out as
# json.dumps(indent=2, sort_keys=True) lays them out at their depth in the
# collection.  repr spells a float as json does.
_FEATURE = """    {
      "geometry": {
        "coordinates": %s,
        "type": "LineString"
      },
      "properties": {
        "id": %s,
        "role": %s
      },
      "type": "Feature"
    }"""


def _spell_track(points: list[Point2D]) -> str:
    """A track's "coordinates" text; an object repeated in a row is
    spelled once."""
    texts = []
    previous, text = None, ""
    for point in points:
        if point is not previous:
            previous = point
            text = f"          [\n            {point.x!r},\n            {point.y!r}\n          ]"
        texts.append(text)
    joined = ",\n".join(texts)
    return f"[\n{joined}\n        ]" if joined else "[]"


def write_tracks_geojson(tracks: Mapping[str, Mapping[str, list[Point2D]]], out: TextIO) -> None:
    """Write per-vehicle true and estimated tracks as LineString features
    of a FeatureCollection, one feature at a time.  The text is exactly
    ``json.dumps(collection, indent=2, sort_keys=True) + "\\n"``, each
    point written as ``[x, y]``.

    A ``Point2D`` repeated in a row is spelled once, and an estimated
    track made of the true track's own objects, in its order, is the true
    track's text.  Every coordinate is finite, since the readers refuse
    any other start or beacon and the envelope bounds every move, so json
    never writes NaN or Infinity here.
    """
    out.write('{\n  "features": [')
    separator = "\n"
    for uuv_id in sorted(tracks):
        true_track, estimated = tracks[uuv_id]["true"], tracks[uuv_id]["estimated"]
        uuv_json = json.dumps(uuv_id)
        coordinates = _spell_track(true_track)
        out.write(separator + _FEATURE % (coordinates, uuv_json, '"true"'))
        if not (
            len(estimated) == len(true_track) and all(map(operator.is_, estimated, true_track))
        ):
            coordinates = _spell_track(estimated)
        out.write(",\n" + _FEATURE % (coordinates, uuv_json, '"estimated"'))
        separator = ",\n"
    out.write(("\n  ]" if tracks else "]") + ',\n  "type": "FeatureCollection"\n}\n')
