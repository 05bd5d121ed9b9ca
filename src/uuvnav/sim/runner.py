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
from dataclasses import dataclass
from typing import Mapping, TextIO

from .. import monitor
from ..config import ScenarioConfig, load_beacons, parse_input
from ..errors import InputError, SimulationError
from ..hddl.ground import ground
from ..hddl.parser import parse_domain, parse_problem
from ..htn.planner import plan
from .world import Event, UUVState, WorldState, step

EVENT_SCHEMA_VERSION = 1


@dataclass
class SimulationReport:
    world: WorldState
    events: list[Event]
    tracks: dict[str, dict[str, list[list[float]]]]
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
                speed=config.world.uuv_speed,
                queue=list(mission_plan.steps),
                belief=set(problem.init),
                setup=monitor.PlanningSetup(tables, problem.htn, problem.goal),
            )
        )

    world = WorldState(uuvs=uuvs, beacons=beacons, params=config.world)
    for uuv in world.uuvs:
        uuv.expectations = monitor.derive_expectations(uuv.queue, uuv, world)

    tracks: dict[str, dict[str, list[list[float]]]] = {
        uuv.id: {
            "true": [[uuv.true_position.x, uuv.true_position.y]],
            "estimated": [[uuv.estimated_position.x, uuv.estimated_position.y]],
        }
        for uuv in world.uuvs
    }

    events: list[Event] = []
    while any(u.status == "active" for u in world.uuvs):
        if world.ticks_run >= config.world.step_cap:
            break
        step(world)
        for exp in monitor.check(world):
            monitor.replan_episode(exp, world)
        # replanning logs to the same tick's events, after step sorted them
        world.events.sort(key=Event.sort_key)
        events.extend(world.events)
        for uuv in world.uuvs:
            tracks[uuv.id]["true"].append([uuv.true_position.x, uuv.true_position.y])
            tracks[uuv.id]["estimated"].append(
                [uuv.estimated_position.x, uuv.estimated_position.y]
            )

    kind_counts: dict[str, int] = {}
    for event in events:
        kind_counts[event.kind] = kind_counts.get(event.kind, 0) + 1
    summary = {
        "seed": config.seed,
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


def write_tracks_geojson(
    tracks: Mapping[str, Mapping[str, list[list[float]]]], out: TextIO
) -> None:
    """Write per-vehicle true and estimated tracks as LineString features
    of a FeatureCollection, one feature at a time.  The text is exactly
    ``json.dumps(collection, indent=2, sort_keys=True) + "\\n"``.

    Raises SimulationError on a non-finite coordinate, which json would
    write as NaN or Infinity.
    """
    out.write('{\n  "features": [')
    separator = "\n"
    for uuv_id in sorted(tracks):
        for role in ("true", "estimated"):
            points = ",\n".join([_POINT % (x, y) for x, y in tracks[uuv_id][role]])
            if "n" in points:  # the repr of a number has an "n" only in nan and inf
                raise SimulationError(f"{uuv_id}: non-finite position in its {role} track")
            coordinates = f"[\n{points}\n        ]" if points else "[]"
            out.write(separator + _FEATURE % (coordinates, json.dumps(uuv_id), json.dumps(role)))
            separator = ",\n"
    out.write(("\n  ]" if tracks else "]") + ',\n  "type": "FeatureCollection"\n}\n')
