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
import math
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, TextIO

from .. import monitor
from ..config import ScenarioConfig, load_beacons, parse_input
from ..errors import InputError
from ..geo import Point2D
from ..hddl.ground import ground
from ..hddl.parser import parse_domain, parse_problem
from ..htn.planner import plan
from .world import Event, UUVState, WorldState, step

EVENT_SCHEMA_VERSION = 1


@dataclass
class SimulationReport:
    """A finished run.  ``tracks`` maps each vehicle id to its "true" and
    "estimated" lists of the vehicle's own ``Point2D`` positions, one per
    tick and the start: a vehicle that has not moved logs the same object
    again, and the two tracks hold the same object wherever truth and
    estimate were one."""

    world: WorldState
    events: list[Event]
    tracks: dict[str, dict[str, list[Point2D]]]
    summary: dict


def run_scenario(config: ScenarioConfig) -> SimulationReport:
    """Execute a scenario to completion (or to the step cap)."""
    domain = parse_input(config.domain, "domain", parse_domain)
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
    logs = [(uuv, tracks[uuv.id]["true"], tracks[uuv.id]["estimated"]) for uuv in world.uuvs]

    def log_positions() -> None:
        for uuv, true_track, estimated_track in logs:
            true_track.append(uuv.true_position)
            estimated_track.append(uuv.estimated_position)

    log_positions()

    events: list[Event] = []
    while any(u.status == "active" for u in world.uuvs):
        if world.ticks_run >= config.world.step_cap:
            break
        step(world)
        divergences = monitor.check(world)
        for exp in divergences:
            monitor.replan_episode(exp, world)
        if divergences:
            # replanning logs to the same tick's events, after step sorted them
            world.events.sort(key=Event.sort_key)
        events.extend(world.events)
        log_positions()

    kind_counts: dict[str, int] = {}
    for event in events:
        kind_counts[event.kind] = kind_counts.get(event.kind, 0) + 1
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


# A detection event's line as event_to_json_line writes it, keys sorted,
# in two parts: the head up to the time, with ids quoted by json's own
# ASCII quoter, and the time onwards.  %r spells a float as json does.
_DETECTION_HEAD = '{"beacon":%s,"kind":"detection","range":%r,"subject":%s,"t":'
_DETECTION_TAIL = '%r,"v":' + str(EVENT_SCHEMA_VERSION) + "}\n"


def write_events_jsonl(events: Iterable[Event], out: TextIO) -> None:
    """Write one ``event_to_json_line`` line per event, in order.

    A detection (a payload of exactly a str beacon and a finite float
    range, a str subject, a finite float time) is filled into a fixed
    line; any other event goes through event_to_json_line.  Each id is
    quoted once; a (subject, beacon) pair that hears the same non-zero
    range again reuses its line's head, and events of the same non-zero
    time reuse its tail.  Equal non-zero floats have equal bits, so they
    spell the same; 0.0 and -0.0 are equal but spell differently.
    """
    quoted: dict[str, str] = {}
    heads: dict[tuple[str, str], tuple[float, str]] = {}  # pair -> last range, head
    last_time: object = None
    tail = ""
    isfinite = math.isfinite
    write = out.write
    for event in events:
        payload = event.payload
        subject, time = event.subject, event.time
        if (
            event.kind == "detection"
            and type(payload) is dict
            and len(payload) == 2
            and type(beacon := payload.get("beacon")) is str
            and type(distance := payload.get("range")) is float
            and isfinite(distance)
            and type(subject) is str
            and type(time) is float
            and isfinite(time)
        ):
            head = heads.get((subject, beacon))
            if head is None or head[0] != distance or not distance:
                # a quoted id is never empty, so a miss is the only false get
                beacon_json = quoted.get(beacon) or quoted.setdefault(
                    beacon, encode_basestring_ascii(beacon)
                )
                subject_json = quoted.get(subject) or quoted.setdefault(
                    subject, encode_basestring_ascii(subject)
                )
                head = heads[(subject, beacon)] = (
                    distance,
                    _DETECTION_HEAD % (beacon_json, distance, subject_json),
                )
            if time != last_time or not time:
                last_time, tail = time, _DETECTION_TAIL % time
            write(head[1] + tail)
        else:
            write(event_to_json_line(event) + "\n")


# One track point and one feature, laid out as json.dumps(indent=2,
# sort_keys=True) lays them out at their depth in the collection.  %r
# spells a float as json does.
_POINT = "          [\n            %r,\n            %r\n          ]"
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
            text = _POINT % (point.x, point.y)
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
    track's text.  Every coordinate is finite, since ``Point2D`` refuses
    any other, so json never writes NaN or Infinity here.
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
