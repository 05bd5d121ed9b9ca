"""Command line entry points.

Five batch subcommands cover the pipeline: ``deploy`` places a beacon
constellation over bathymetry, ``route`` finds a shortest beacon-to-
beacon path, ``plan`` decomposes a mission into primitive actions,
``validate`` checks a plan file against its domain and problem, and
``simulate`` executes a full scenario and writes the event log, tracks,
and summary.

Every command is deterministic: the same inputs produce byte-identical
outputs.  Exit codes: 0 success, 1 bad input (a usage error included),
2 no route, 3 no plan, 4 any other package error, or a reader that
closed stdout early.

``main()`` may be called repeatedly in one process and reuses one parser,
built on first use.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import load_beacons, load_scenario, parse_input
from .deploy import (
    BeaconGraph,
    DeploymentProblem,
    astar_route,
    build_beacon_graph,
    check_link_distance,
    deployment_to_geojson,
    lloyd_deploy,
    route_length,
)
from .errors import InputError, PlanNotFound, UuvnavError
from .geo import load_ascii_grid, polygon_from_geojson
from .hddl.ground import ground
from .hddl.parser import parse_domain, parse_problem
from .htn.planner import format_plan_text, plan, plan_to_dict
from .htn.validate import validate
from .sim.runner import run_scenario, write_events_jsonl, write_tracks_geojson


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_output(path: str, text: str) -> None:
    """Write an output file, making its directory.  A path that cannot be
    written is an InputError naming it."""
    out = Path(path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write output {path!r}: {exc}") from exc


def cmd_deploy(args: argparse.Namespace) -> int:
    grid = parse_input(args.bathymetry, "bathymetry grid", load_ascii_grid)
    poly = parse_input(args.area, "mission area", polygon_from_geojson)
    # each message names the DeploymentProblem field that the flag sets
    if args.n_beacons < 1:
        raise InputError(f"n_beacons must be >= 1, got {args.n_beacons}")
    if args.max_iterations < 1:
        raise InputError(f"max_iterations must be >= 1, got {args.max_iterations}")
    if not 0 < args.tolerance < 1:
        raise InputError(f"volume_tolerance must be in (0, 1), got {args.tolerance}")
    if args.seed < 0:
        raise InputError(f"rng_seed must be >= 0, got {args.seed}")
    check_link_distance(args.link_distance)
    problem = DeploymentProblem(
        grid, poly, args.n_beacons, args.max_iterations, args.tolerance, args.seed
    )
    result = lloyd_deploy(problem)
    graph = build_beacon_graph(result, args.link_distance)
    _write_output(args.out, _dump_json(deployment_to_geojson(result, graph)))
    report = {
        "n_beacons": args.n_beacons,
        "seed": args.seed,
        "converged": result.converged,
        "iterations": result.iterations_used,
        "objective": result.objective,
        "v_tot": result.v_tot,
        "volumes": list(result.cell_volumes),
        "positions": [[p.x, p.y] for p in result.beacon_positions],
    }
    if args.report:
        _write_output(args.report, _dump_json(report))
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    beacons = load_beacons(args.beacons)
    index = {b.id: i for i, b in enumerate(beacons)}
    for name, value in (("start", args.start), ("goal", args.goal)):
        if value not in index:
            raise InputError(
                f"unknown {name} beacon {value!r}"
                f" (chart has: {', '.join(b.id for b in beacons)})"
            )
    check_link_distance(args.link_distance)
    graph = BeaconGraph(tuple(b.position for b in beacons), args.link_distance)
    route = astar_route(graph, index[args.start], index[args.goal])
    if not route:
        print(
            f"no route from {args.start} to {args.goal} at link distance"
            f" {args.link_distance}",
            file=sys.stderr,
        )
        return 2
    report = {
        "start": args.start,
        "goal": args.goal,
        "route": [beacons[i].id for i in route],
        "length": route_length(graph, route),
    }
    if args.out:
        _write_output(args.out, _dump_json(report))
    print(json.dumps(report, sort_keys=True))
    return 0


def _load_planning_inputs(domain_path: str, problem_path: str):
    domain = parse_input(domain_path, "domain", parse_domain)
    problem = parse_input(problem_path, "problem", lambda text: parse_problem(text, domain))
    return problem, ground(domain, problem)


def cmd_plan(args: argparse.Namespace) -> int:
    problem, tables = _load_planning_inputs(args.domain, args.problem)
    mission_plan = plan(tables, frozenset(problem.init), problem.htn, problem.goal)
    if args.format == "json":
        text = _dump_json(plan_to_dict(mission_plan))
    else:
        text = format_plan_text(mission_plan)
    if args.out:
        _write_output(args.out, text)
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _parse_plan_steps(text: str) -> list[tuple[str, ...]]:
    """The (name, arg, ...) steps of a plan file as 'plan --format json'
    writes it."""
    try:
        plan_doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(plan_doc, dict) or not isinstance(plan_doc.get("steps"), list):
        raise InputError("expected an object with a 'steps' list")
    steps = []
    for i, entry in enumerate(plan_doc["steps"]):
        if not isinstance(entry, dict) or "name" not in entry:
            raise InputError(f"steps[{i}] is missing a 'name'")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise InputError(f"steps[{i}] 'name' must be a non-empty string")
        step_args = entry.get("args", [])
        if not isinstance(step_args, list) or not all(isinstance(a, str) for a in step_args):
            raise InputError(f"steps[{i}] 'args' must be a list of strings")
        steps.append((name, *step_args))
    return steps


def cmd_validate(args: argparse.Namespace) -> int:
    problem, tables = _load_planning_inputs(args.domain, args.problem)
    steps = parse_input(args.plan, "plan file", _parse_plan_steps)
    verdict = validate(tables, frozenset(problem.init), problem.htn, steps, problem.goal)
    doc = {"valid": verdict.valid, "reason": verdict.reason, "step_index": verdict.step_index}
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    out = Path(args.out_dir).resolve() if args.out_dir else config.output_dir
    try:
        # an unwritable directory fails before the run, not after it
        out.mkdir(parents=True, exist_ok=True)
        report = run_scenario(config)
        with open(out / "events.jsonl", "w") as events:
            write_events_jsonl(report.events, events)
        with open(out / "tracks.geojson", "w") as tracks:
            write_tracks_geojson(report.tracks, tracks)
        (out / "summary.json").write_text(_dump_json(report.summary))
    except OSError as exc:
        raise InputError(f"cannot write output directory {str(out)!r}: {exc}") from exc
    print(json.dumps(report.summary, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Print the usage line and the message, as argparse does, but
        exit 1, the code of bad input: argparse's own 2 is this program's
        code for no route."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uuvnav",
        description="Beacon deployment, mission planning, and fleet simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deploy", help="place a beacon constellation over bathymetry")
    p.add_argument("--bathymetry", required=True, help="ESRI ASCII grid file")
    p.add_argument("--area", required=True, help="mission area GeoJSON polygon")
    p.add_argument("--n-beacons", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--link-distance", type=float, default=4000.0)
    p.add_argument("--out", required=True, help="output GeoJSON path")
    p.add_argument("--report", help="optional JSON report path")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("route", help="shortest beacon-to-beacon route")
    p.add_argument("--beacons", required=True, help="beacon chart GeoJSON")
    p.add_argument("--start", required=True, help="start beacon id")
    p.add_argument("--goal", required=True, help="goal beacon id")
    p.add_argument("--link-distance", type=float, default=4000.0)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("plan", help="decompose a mission into primitive actions")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="optional output path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate", help="check a plan file against domain and problem")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--plan", required=True, help="plan JSON (as written by 'plan --format json')")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run a scenario to completion")
    p.add_argument("--scenario", required=True, help="scenario YAML file")
    p.add_argument("--out-dir", help="override the scenario's output directory")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so that the flush
        # at interpreter exit cannot raise again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PlanNotFound as exc:
        print(f"no plan: {exc}", file=sys.stderr)
        return 3
    except UuvnavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
