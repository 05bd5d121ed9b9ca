"""The four benchmark workloads: the CLI commands each pass issues, the
checks on their outputs, and the units of work a pass completes.

A workload writes its inputs once (``generate``), then ``run_pass`` issues
its commands through an ``invoke`` callable that runs ``uuvnav.cli.main``
and times only that call.  ``check`` inspects one pass's outcomes and the
files it wrote and returns ``(command index, message)`` for every
failure, so a failed command counts once however many checks it fails.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import generate


@dataclass
class Outcome:
    """One CLI command as issued and what it returned."""

    argv: list[str]
    code: object  # exit code, or the exception text if main() raised
    stdout: str
    stderr: str
    seconds: float


Invoke = Callable[[list[str]], Outcome]
Failures = list[tuple[int, str]]


def _json(text: str):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Workload:
    name = ""
    work_metric = ""  # name of this workload's own throughput metric

    def __init__(self, seed: int, work: Path, domain_text: str, params: dict):
        self.seed = seed
        self.work = work
        self.domain_text = domain_text
        self.params = params

    def generate(self) -> None:
        raise NotImplementedError

    def run_pass(self, invoke: Invoke) -> list[Outcome]:
        raise NotImplementedError

    def check(self, outcomes: list[Outcome]) -> Failures:
        raise NotImplementedError

    def output_files(self) -> list[Path]:
        """Files the CLI wrote in the last pass, for digests and byte counts."""
        raise NotImplementedError

    def work_units(self, outcomes: list[Outcome]) -> float:
        """Units of work one pass completed, for the throughput metric."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class DeploySurvey(Workload):
    """deploy on a seeded raster, then route between every ordered pair
    of the placed beacons."""

    name = "deploy-survey"
    work_metric = "deploy_cell_iters_per_s"

    def generate(self) -> None:
        from uuvnav.geo import cells_in_polygon, load_ascii_grid, polygon_from_geojson

        self.inputs = generate.deploy_inputs(self.seed, self.work, self.params)
        grid = load_ascii_grid(self.inputs["bathymetry"].read_text())
        poly = polygon_from_geojson(self.inputs["area"].read_text())
        self.cells = int((cells_in_polygon(grid, poly) & grid.valid_mask).sum())
        self.constellation = self.work / "constellation.geojson"
        self.report = self.work / "deploy.json"
        self.chart = self.work / "chart.geojson"
        self.routes = self.work / "routes.jsonl"

    def run_pass(self, invoke: Invoke) -> list[Outcome]:
        p = self.params
        outcomes = [
            invoke(
                [
                    "deploy",
                    "--bathymetry", str(self.inputs["bathymetry"]),
                    "--area", str(self.inputs["area"]),
                    "--n-beacons", str(p["n_beacons"]),
                    "--seed", str(self.seed),
                    "--max-iterations", str(p["max_iterations"]),
                    "--tolerance", str(p["tolerance"]),
                    "--link-distance", str(p["link_distance"]),
                    "--out", str(self.constellation),
                    "--report", str(self.report),
                ]
            )
        ]
        report = _read_json(self.report) if outcomes[0].code == 0 else None
        if not report:
            return outcomes
        ids = write_points_chart(report["positions"], self.chart)
        for start in ids:
            for goal in ids:
                if start != goal:
                    outcomes.append(
                        invoke(
                            [
                                "route",
                                "--beacons", str(self.chart),
                                "--start", start,
                                "--goal", goal,
                                "--link-distance", str(p["link_distance"]),
                            ]
                        )
                    )
        # route answers go to stdout only; keep them as one file so they
        # get a digest like every other output
        self.routes.write_text("".join(o.stdout for o in outcomes[1:]))
        return outcomes

    def check(self, outcomes: list[Outcome]) -> Failures:
        p = self.params
        n = p["n_beacons"]
        fails: Failures = []
        if outcomes[0].code != 0:
            return [(0, f"deploy exited {outcomes[0].code!r}")]
        report = _read_json(self.report)
        if not isinstance(report, dict):
            return [(0, "deploy report is not JSON")]
        volumes = report.get("volumes") or []
        positions = report.get("positions") or []
        v_tot = report.get("v_tot") or 0.0
        if len(volumes) != n or len(positions) != n:
            fails.append((0, f"report has {len(volumes)} volumes, {len(positions)} positions for {n} beacons"))
        elif not math.isclose(sum(volumes), v_tot, rel_tol=1e-9):
            fails.append((0, f"volumes sum to {sum(volumes)}, v_tot is {v_tot}"))
        elif report.get("objective", math.inf) > p["balance"] * v_tot / n:
            fails.append((0, f"objective {report.get('objective')} is not within {p['balance']} of the fair share"))
        # tolerance is unreachable, so every seed runs the same iterations
        if report.get("converged") or report.get("iterations") != p["max_iterations"]:
            fails.append((0, f"expected {p['max_iterations']} unconverged iterations, got {report.get('iterations')}"))
        doc = _read_json(self.constellation)
        points = [
            f["geometry"]["coordinates"]
            for f in (doc or {}).get("features", [])
            if f.get("geometry", {}).get("type") == "Point"
        ]
        if points != positions:
            fails.append((0, "constellation points differ from the report positions"))
        if fails:
            return fails

        dist = shortest_paths(positions, p["link_distance"])
        ids = [f"b{i + 1}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        if len(outcomes) != 1 + len(pairs):
            return [(0, f"{len(outcomes) - 1} route queries for {len(pairs)} pairs")]
        for k, ((i, j), o) in enumerate(zip(pairs, outcomes[1:]), start=1):
            expect = 0 if math.isfinite(dist[i][j]) else 2
            if o.code != expect:
                fails.append((k, f"route {ids[i]}->{ids[j]} exited {o.code!r}, expected {expect}"))
                continue
            if expect == 2:
                continue
            got = _json(o.stdout)
            route = (got or {}).get("route") or []
            if not route or route[0] != ids[i] or route[-1] != ids[j]:
                fails.append((k, f"route {ids[i]}->{ids[j]} has bad endpoints: {route}"))
                continue
            idx = [int(b[1:]) - 1 for b in route]
            hops = [math.dist(positions[a], positions[b]) for a, b in zip(idx, idx[1:])]
            if any(h > p["link_distance"] for h in hops):
                fails.append((k, f"route {ids[i]}->{ids[j]} has a hop beyond link range"))
            elif not math.isclose(got.get("length", -1.0), dist[i][j], rel_tol=1e-9):
                fails.append((k, f"route {ids[i]}->{ids[j]} length {got.get('length')} != shortest {dist[i][j]}"))
        return fails

    def output_files(self) -> list[Path]:
        return [self.constellation, self.report, self.chart, self.routes]

    def work_units(self, outcomes: list[Outcome]) -> float:
        report = _read_json(self.report) or {}
        return float(self.cells * report.get("iterations", 0))


def write_points_chart(positions: list[list[float]], path: Path) -> list[str]:
    """Write the placed beacons as a points-only chart ``route`` accepts.

    ``deploy`` appends a MultiLineString links feature to its output, and
    ``route --beacons`` rejects any feature that is not a Point, so the
    deploy output cannot be fed to ``route`` as it is.
    """
    ids = [f"b{i + 1}" for i in range(len(positions))]
    chart = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"id": b},
                "geometry": {"type": "Point", "coordinates": xy},
            }
            for b, xy in zip(ids, positions)
        ],
    }
    path.write_text(json.dumps(chart, sort_keys=True) + "\n")
    return ids


def shortest_paths(positions: list[list[float]], link: float) -> list[list[float]]:
    """All-pairs shortest route lengths over the link graph (Floyd-Warshall);
    inf where no route exists."""
    n = len(positions)
    d = [[math.dist(a, b) for b in positions] for a in positions]
    d = [[x if x <= link else math.inf for x in row] for row in d]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == math.inf:
                continue
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


# ---------------------------------------------------------------------------


class MissionPlan(Workload):
    """plan --format json, then validate, for a batch of problems."""

    name = "mission-plan"
    work_metric = "problems_per_s"

    def generate(self) -> None:
        self.inputs = generate.plan_inputs(self.seed, self.work, self.domain_text, self.params)
        self.plans = [self.work / "plans" / f"{p.stem}.json" for p in self.inputs["problems"]]

    def run_pass(self, invoke: Invoke) -> list[Outcome]:
        domain = str(self.inputs["domain"])
        outcomes = []
        for problem, out in zip(self.inputs["problems"], self.plans):
            outcomes.append(
                invoke(["plan", "--domain", domain, "--problem", str(problem), "--format", "json", "--out", str(out)])
            )
            outcomes.append(invoke(["validate", "--domain", domain, "--problem", str(problem), "--plan", str(out)]))
        return outcomes

    def check(self, outcomes: list[Outcome]) -> Failures:
        fails: Failures = []
        if len(outcomes) != 2 * len(self.plans):
            return [(0, f"{len(outcomes)} commands for {len(self.plans)} problems")]
        for k, (out, expected) in enumerate(zip(self.plans, self.inputs["expected_steps"])):
            plan_o, val_o = outcomes[2 * k], outcomes[2 * k + 1]
            if plan_o.code != 0:
                fails.append((2 * k, f"plan {out.stem} exited {plan_o.code!r}"))
            else:
                steps = ((_read_json(out) or {}).get("steps")) or []
                if len(steps) != expected:
                    fails.append((2 * k, f"plan {out.stem} has {len(steps)} steps, expected {expected}"))
            verdict = _json(val_o.stdout)
            if val_o.code != 0 or not isinstance(verdict, dict) or verdict.get("valid") is not True:
                fails.append((2 * k + 1, f"validate {out.stem} exited {val_o.code!r}: {val_o.stdout.strip()}"))
        return fails

    def output_files(self) -> list[Path]:
        return list(self.plans)

    def work_units(self, outcomes: list[Outcome]) -> float:
        return float(len(self.plans))


# ---------------------------------------------------------------------------


class Fleet(Workload):
    """simulate one generated fleet scenario."""

    work_metric = "sim_vehicle_ticks_per_s"

    def __init__(self, name: str, seed: int, work: Path, domain_text: str, params: dict):
        super().__init__(seed, work, domain_text, params)
        self.name = name

    def generate(self) -> None:
        self.inputs = generate.fleet_inputs(self.seed, self.work, self.domain_text, self.params)
        out = self.inputs["out_dir"]
        self.events, self.tracks, self.summary = out / "events.jsonl", out / "tracks.geojson", out / "summary.json"

    def run_pass(self, invoke: Invoke) -> list[Outcome]:
        return [invoke(["simulate", "--scenario", str(self.inputs["scenario"])])]

    def check(self, outcomes: list[Outcome]) -> Failures:
        (o,) = outcomes
        if o.code != 0:
            return [(0, f"simulate exited {o.code!r}")]
        summary = _read_json(self.summary)
        if not isinstance(summary, dict) or summary != _json(o.stdout):
            return [(0, "summary.json is not JSON or differs from the printed summary")]
        fails: Failures = []
        if summary.get("all_missions_completed") is not True:
            fails.append((0, "not every mission completed"))
        if not summary.get("ticks", math.inf) < self.params["step_cap"]:
            fails.append((0, f"ran {summary.get('ticks')} ticks, step_cap is {self.params['step_cap']}"))
        replans = sum(u.get("replans", 0) for u in summary.get("uuvs", {}).values())
        if self.params["silenced"] and replans == 0:
            fails.append((0, "silenced beacons but no vehicle replanned"))
        if not self.params["silenced"] and replans != 0:
            fails.append((0, f"{replans} replans with every beacon active"))
        if len(summary.get("uuvs", {})) != self.inputs["vehicles"]:
            fails.append((0, f"summary lists {len(summary.get('uuvs', {}))} of {self.inputs['vehicles']} vehicles"))
        try:
            lines = self.events.read_text().splitlines()
            kinds = [json.loads(line)["kind"] for line in lines]
        except (OSError, ValueError, KeyError, TypeError):
            return fails + [(0, "events.jsonl is not a JSON-lines event log")]
        if Counter(kinds) != summary.get("event_counts"):
            fails.append((0, "events.jsonl does not match the summary's event counts"))
        features = (_read_json(self.tracks) or {}).get("features") or []
        ticks = summary.get("ticks", 0)
        if len(features) != 2 * self.inputs["vehicles"] or any(
            len(f["geometry"]["coordinates"]) != ticks + 1 for f in features
        ):
            fails.append((0, "tracks.geojson does not hold two tracks of ticks + 1 points per vehicle"))
        return fails

    def output_files(self) -> list[Path]:
        return [self.events, self.tracks, self.summary]

    def work_units(self, outcomes: list[Outcome]) -> float:
        summary = _read_json(self.summary) or {}
        return float(len(summary.get("uuvs", {})) * summary.get("ticks", 0))


def make(name: str, seed: int, work: Path, domain_text: str) -> Workload:
    """The named workload at its benchmark size."""
    if name == "deploy-survey":
        return DeploySurvey(seed, work, domain_text, generate.DEPLOY)
    if name == "mission-plan":
        return MissionPlan(seed, work, domain_text, generate.PLAN)
    if name == "fleet-dense":
        return Fleet(name, seed, work, domain_text, generate.FLEET_DENSE)
    if name == "fleet-sparse":
        return Fleet(name, seed, work, domain_text, generate.FLEET_SPARSE)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("deploy-survey", "mission-plan", "fleet-dense", "fleet-sparse")
