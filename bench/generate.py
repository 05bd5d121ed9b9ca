"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and an output directory, writes
plain input files the ``uuvnav`` CLI reads, and returns a description of
what it wrote.  Randomness comes only from ``random.Random(seed)`` and
every number is written with a fixed format, so one seed always gives
byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# World constants shared by the fleet scenarios.  tick and pulse_period
# match the bundled scenarios, so a clock fix that keeps those outputs
# byte-identical also keeps these.
WORLD = {
    "tick": 1.0,
    "uuv_speed": 2.0,
    "acoustic_range": 2000.0,
    "comm_range": 2000.0,
    "pulse_period": 10.0,
    "drift_rate": 0.02,
    "arrival_tolerance": 25.0,
    "standoff_radius": 50.0,
    "localization_floor": 5.0,
    "initial_uncertainty": 100.0,
    "margin_base": 0.5,
}

NODATA = -9999.0


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# deploy-survey: sloped raster with a nodata island, irregular polygon
# ---------------------------------------------------------------------------

DEPLOY = {
    "size": 300,  # raster is size x size cells
    "cell": 100.0,  # metres
    "n_beacons": 10,
    "tolerance": 0.0001,  # unreachable: every run does max_iterations
    "max_iterations": 30,
    "link_distance": 8000.0,
    "polygon_vertices": 14,
    "area_fraction": 0.4,  # polygon area / raster area
    "balance": 0.05,  # the final objective must be within this share of V_tot / N
}


def deploy_inputs(seed: int, out: Path, params: dict = DEPLOY) -> dict:
    """Write ``bathymetry.asc`` and ``area.geojson`` for one deploy run.

    The seabed deepens along a seeded direction with a gentle ripple;
    an elliptical nodata island sits near the middle; the survey area
    is a star-shaped polygon with seeded vertex radii.
    """
    rng = random.Random(seed)
    size, cell = params["size"], params["cell"]
    extent = size * cell
    slope_dir = rng.uniform(0.0, 2.0 * math.pi)
    ux, uy = math.cos(slope_dir), math.sin(slope_dir)
    phase_x, phase_y = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
    isl_x = extent * rng.uniform(0.4, 0.6)
    isl_y = extent * rng.uniform(0.4, 0.6)
    # fixed island area, seeded aspect ratio
    stretch = rng.uniform(0.8, 1.25)
    isl_a = extent * 0.075 * stretch
    isl_b = extent * 0.075 / stretch

    lines = [
        f"ncols {size}",
        f"nrows {size}",
        "xllcorner 0.0",
        "yllcorner 0.0",
        f"cellsize {cell}",
        f"NODATA_value {NODATA}",
    ]
    for row in range(size):
        y = (size - row - 0.5) * cell
        vals = []
        for col in range(size):
            x = (col + 0.5) * cell
            if ((x - isl_x) / isl_a) ** 2 + ((y - isl_y) / isl_b) ** 2 <= 1.0:
                vals.append(NODATA)
                continue
            s = ((x - extent / 2) * ux + (y - extent / 2) * uy) / extent
            ripple = math.sin(6.0 * x / extent + phase_x) * math.cos(5.0 * y / extent + phase_y)
            vals.append(60.0 + 40.0 * s + 8.0 * ripple)
        lines.append(" ".join(f"{v:.2f}" for v in vals))
    grid_path = _write(out / "bathymetry.asc", "\n".join(lines) + "\n")

    # Star-shaped ring scaled to a fixed area, so the candidate cell
    # count (and with it the cost of one Lloyd iteration) barely moves
    # with the seed.
    k = params["polygon_vertices"]
    polar = [
        (2.0 * math.pi * (i + rng.uniform(-0.3, 0.3)) / k, rng.uniform(0.72, 1.0))
        for i in range(k)
    ]
    shoelace = sum(
        r0 * r1 * math.sin(a1 - a0)
        for (a0, r0), (a1, r1) in zip(polar, polar[1:] + polar[:1])
    ) / 2.0
    scale = extent * math.sqrt(params["area_fraction"] / shoelace)
    ring = [
        [round(extent / 2 + scale * r * math.cos(a), 1), round(extent / 2 + scale * r * math.sin(a), 1)]
        for a, r in polar
    ]
    ring.append(ring[0])
    area = {
        "type": "Feature",
        "properties": {"name": f"survey-{seed}"},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }
    area_path = _write(out / "area.geojson", _dump(area))
    return {"bathymetry": grid_path, "area": area_path, **params}


# ---------------------------------------------------------------------------
# mission-plan: a batch of single-vehicle problems with long mission chains
# ---------------------------------------------------------------------------

PLAN = {
    "n_problems": 3,
    "beacons": 40,
    "legs": 30,
    "unreachable": 6,
}


def plan_inputs(seed: int, out: Path, domain_text: str, params: dict = PLAN) -> dict:
    """Write ``domain.hddl`` and ``problems/p<i>.hddl``.

    Every problem declares the full beacon chart, marks a seeded few
    beacons unreachable (and not active), and asks for a chain of
    ``legs`` mission tasks, each leg starting where the previous ended.
    Legs whose via beacon is unreachable decompose by dead reckoning.
    """
    rng = random.Random(seed)
    domain = _write(out / "domain.hddl", domain_text)
    beacons = [f"b{i + 1}" for i in range(params["beacons"])]
    problems = []
    expected_steps = []
    for p in range(params["n_problems"]):
        uuv = f"uuv{p + 1}"
        unreachable = set(rng.sample(beacons, params["unreachable"]))
        init = [f"(beacon-unreachable {b})" if b in unreachable else f"(beacon-active {b})" for b in beacons]
        stop = rng.choice(beacons)
        tasks = []
        for _ in range(params["legs"]):
            via = rng.choice([b for b in beacons if b != stop])
            goal = rng.choice([b for b in beacons if b not in (stop, via)])
            tasks.append(f"(mission {uuv} {via} {goal})")
            stop = goal
        # a leg through a usable via beacon is localize (3 actions),
        # broadcast and navigate; otherwise broadcast and transit
        expected_steps.append(sum(2 if t.split()[2] in unreachable else 5 for t in tasks))
        text = (
            f"(define (problem plan-{seed}-{p + 1})\n"
            "  (:domain uuv-nav)\n"
            f"  (:objects\n    {uuv} - uuv\n    {' '.join(beacons)} - beacon)\n"
            "  (:init\n    " + "\n    ".join(init) + ")\n"
            "  (:htn :ordered-subtasks (and\n    " + "\n    ".join(tasks) + ")))\n"
        )
        problems.append(_write(out / "problems" / f"p{p + 1}.hddl", text))
    return {"domain": domain, "problems": problems, "expected_steps": expected_steps, **params}


# ---------------------------------------------------------------------------
# fleets: beacon lattice, scenario YAML and one HDDL problem per vehicle
# ---------------------------------------------------------------------------

FLEET_DENSE = {
    "rows": 4,
    "cols": 4,
    "spacing": 600.0,
    "missions": 6,
    "listeners": 2,
    "silenced": 0,
    "step_cap": 4000,
    "world": {},
    "pacer": ((1, 1), (2, 2)),
}

FLEET_SPARSE = {
    "rows": 8,
    "cols": 8,
    "spacing": 700.0,
    "missions": 6,
    "listeners": 2,
    "silenced": 3,
    "step_cap": 8000,
    "pacer": ((1, 1), (1, 1)),
    # ranges well under the spacing: a vehicle near one beacon hears no other
    "world": {"acoustic_range": 500.0, "comm_range": 500.0},
}

# Mission shapes as lattice steps: start -> via, then via -> goal.  Every
# seed uses this same multiset of shapes; only placement and mirroring vary.
_SHAPES = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 1)),
    ((1, 1), (1, 0)),
    ((1, 0), (1, 1)),
    ((0, 1), (0, 1)),
    ((1, 1), (0, 1)),
)


def fleet_inputs(seed: int, out: Path, domain_text: str, params: dict) -> dict:
    """Write a lattice beacon chart, a scenario YAML and vehicle problems.

    Mission vehicles start beside a lattice beacon and fly one mission
    (via beacon, then goal beacon).  Listeners wait for a broadcast and
    then head for its position; each sits within comm range of some
    mission vehicle's via beacon, so a broadcast always reaches it.
    Silenced beacons are via beacons only, never goals.  The pacer
    (``uuv1``) flies the longest mission, so it usually sets the tick
    count whatever the seed.
    """
    rng = random.Random(seed)
    rows, cols, spacing = params["rows"], params["cols"], params["spacing"]
    margin = spacing / 2.0
    world = {**WORLD, **params["world"], "step_cap": params["step_cap"]}

    def node(r: int, c: int) -> str:
        return f"b{r * cols + c + 1}"

    def pos(r: int, c: int) -> list[float]:
        return [margin + c * spacing, margin + r * spacing]

    chart = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"id": node(r, c), "active": True},
                "geometry": {"type": "Point", "coordinates": pos(r, c)},
            }
            for r in range(rows)
            for c in range(cols)
        ],
    }
    _write(out / "beacons.geojson", _dump(chart))
    _write(out / "domain.hddl", domain_text)
    # simulate never reads these two, but the scenario loader requires them
    _write(out / "bathymetry.asc", "ncols 1\nnrows 1\nxllcorner 0.0\nyllcorner 0.0\ncellsize 1.0\nNODATA_value -9999.0\n10.0\n")
    _write(out / "area.geojson", _dump({"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}))

    def place(shape, sr: int, sc: int) -> tuple[str, str, tuple[int, int]]:
        # mirror each step so the mission stays on the lattice
        (dr1, dc1), (dr2, dc2) = shape
        sgn_r = 1 if sr + dr1 + dr2 < rows else -1
        sgn_c = 1 if sc + dc1 + dc2 < cols else -1
        vr, vc = sr + sgn_r * dr1, sc + sgn_c * dc1
        return node(vr, vc), node(vr + sgn_r * dr2, vc + sgn_c * dc2), (vr, vc)

    vehicles = []  # (id, start, problem text)
    vias = []
    goals = set()

    def add_mission(uuv: str, start: list[float], via: str, goal: str, via_rc) -> None:
        vias.append(via_rc)
        goals.add(goal)
        mine = sorted({via, goal}, key=lambda b: int(b[1:]))
        vehicles.append((uuv, start, _problem(uuv, mine, f"(mission {uuv} {via} {goal})")))

    # The pacer starts on a corner beacon and flies the longest mission;
    # when the fleet has silenced beacons, its via beacon is one of them.
    sr, sc = rng.choice((0, rows - 1)), rng.choice((0, cols - 1))
    pacer_via, pacer_goal, pacer_rc = place(params["pacer"], sr, sc)
    add_mission("uuv1", pos(sr, sc), pacer_via, pacer_goal, pacer_rc)
    shapes = [_SHAPES[i % len(_SHAPES)] for i in range(params["missions"] - 1)]
    rng.shuffle(shapes)
    for i, shape in enumerate(shapes):
        while True:
            sr, sc = rng.randrange(rows), rng.randrange(cols)
            via, goal, via_rc = place(shape, sr, sc)
            # nobody else heads for the pacer's silenced via, so no other
            # divergence cuts its mission short
            if not (params["silenced"] and pacer_via in (via, goal)):
                break
        x, y = pos(sr, sc)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        add_mission(f"uuv{i + 2}", [round(x + 150.0 * math.cos(ang), 1), round(y + 150.0 * math.sin(ang), 1)], via, goal, via_rc)
    for j in range(params["listeners"]):
        uuv = f"uuv{params['missions'] + j + 1}"
        vr, vc = rng.choice(vias)
        x, y = pos(vr, vc)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        reach = 0.6 * world["comm_range"]
        start = [round(x + reach * math.cos(ang), 1), round(y + reach * math.sin(ang), 1)]
        vehicles.append((uuv, start, _problem(uuv, [], f"(rendezvous {uuv})")))

    silenced = []
    if params["silenced"]:
        others = sorted({node(r, c) for r, c in vias} - goals - {pacer_via}, key=lambda b: int(b[1:]))
        picked = rng.sample(others, min(params["silenced"] - 1, len(others)))
        silenced = sorted([pacer_via, *picked], key=lambda b: int(b[1:]))

    uuv_lines = []
    for uuv, start, text in vehicles:
        _write(out / "problems" / f"{uuv}.hddl", text)
        uuv_lines.append(
            f"  - id: {uuv}\n    start: [{start[0]!r}, {start[1]!r}]\n    problem: problems/{uuv}.hddl\n"
        )
    scenario = (
        f"seed: {seed}\n"
        "output_dir: out\n"
        "paths:\n"
        "  bathymetry: bathymetry.asc\n"
        "  mission_area: area.geojson\n"
        "  beacons: beacons.geojson\n"
        "  domain: domain.hddl\n"
        "world:\n"
        + "".join(f"  {k}: {v!r}\n" for k, v in world.items())
        + "  current: [0.0, 0.0]\n"
        f"inactive_beacons: [{', '.join(silenced)}]\n"
        "uuvs:\n" + "".join(uuv_lines)
    )
    scenario_path = _write(out / "scenario.yaml", scenario)
    return {
        "scenario": scenario_path,
        "out_dir": out / "out",
        "vehicles": len(vehicles),
        "beacons": rows * cols,
        "silenced_beacons": silenced,
        **params,
    }


def _problem(uuv: str, beacons: list[str], task: str) -> str:
    objects = f"    {uuv} - uuv" + (f"\n    {' '.join(beacons)} - beacon" if beacons else "")
    init = "".join(f"\n    (beacon-active {b})" for b in beacons)
    return (
        f"(define (problem {uuv}-mission)\n"
        "  (:domain uuv-nav)\n"
        f"  (:objects\n{objects})\n"
        f"  (:init{init})\n"
        f"  (:htn :ordered-subtasks {task}))\n"
    )
