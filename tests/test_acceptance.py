"""End-to-end acceptance checks for the full pipeline.

Each test is one acceptance criterion and prints as one pass/fail line
under ``pytest -v``: deployment balance and placement, route optimality,
planning exactness, nominal and degraded closed-loop runs, corpus
round-tripping, and byte-identical reruns of every command.
"""

import glob
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from uuvnav.cli import main
from uuvnav.config import load_scenario
from uuvnav.deploy import (
    BeaconGraph,
    DeploymentProblem,
    astar_route,
    lloyd_deploy,
    route_length,
)
from uuvnav.errors import HddlError
from uuvnav.geo import BathymetryGrid, MissionPolygon, Point2D
from uuvnav.hddl.ground import ground
from uuvnav.hddl.parser import parse_domain, parse_problem
from uuvnav.hddl.printer import print_domain, print_problem
from uuvnav.htn.planner import plan
from uuvnav.htn.validate import validate
from uuvnav.sim.runner import run_scenario

REPO = Path(__file__).resolve().parent.parent
DOMAIN_PATH = REPO / "domains" / "uuv-nav.hddl"
SCENARIOS = REPO / "scenarios"


def flat_grid(n, depth=20.0, cell=50.0):
    return BathymetryGrid(
        origin_x=0.0,
        origin_y=0.0,
        cell_size=cell,
        n_rows=n,
        n_cols=n,
        depth=np.full((n, n), depth),
        nodata_value=-9999.0,
    )


def cover_all(grid):
    side = grid.n_cols * grid.cell_size
    return MissionPolygon(
        (
            Point2D(-1.0, -1.0),
            Point2D(side + 1.0, -1.0),
            Point2D(side + 1.0, side + 1.0),
            Point2D(-1.0, side + 1.0),
        )
    )


def deploy_flat(n_beacons, seed=0):
    grid = flat_grid(200)
    problem = DeploymentProblem(
        grid=grid,
        poly=cover_all(grid),
        n_beacons=n_beacons,
        max_iterations=100,
        volume_tolerance=0.01,
        rng_seed=seed,
    )
    return grid, lloyd_deploy(problem)


def test_c1_deployment_balances_volumes_on_flat_seabed():
    for n_beacons in (2, 4, 8):
        started = time.monotonic()
        _, result = deploy_flat(n_beacons)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"N={n_beacons} took {elapsed:.2f}s"
        assert result.converged
        assert result.iterations_used <= 100
        share = result.v_tot / n_beacons
        assert result.objective <= 0.05 * share
        assert sum(result.cell_volumes) == result.v_tot
        # bit-identical rerun
        _, again = deploy_flat(n_beacons)
        assert again.beacon_positions == result.beacon_positions
        assert again.cell_volumes == result.cell_volumes
        assert again.objective == result.objective
        assert again.iterations_used == result.iterations_used


def test_c2_four_beacons_land_on_quadrant_centroids():
    grid, result = deploy_flat(4)
    side = grid.n_cols * grid.cell_size
    quarter, three_quarter = side / 4.0, 3.0 * side / 4.0
    targets = [
        Point2D(quarter, quarter),
        Point2D(quarter, three_quarter),
        Point2D(three_quarter, quarter),
        Point2D(three_quarter, three_quarter),
    ]
    unmatched = list(result.beacon_positions)
    for target in targets:
        best = min(unmatched, key=lambda p: p.distance_to(target))
        assert best.distance_to(target) <= 2.0 * grid.cell_size, (
            f"no beacon within 2 cells of {target}"
        )
        unmatched.remove(best)

    # independent per-cell recount of the reported region volumes
    sites = result.beacon_positions
    weights = result.site_weights
    recount = [0.0] * len(sites)
    cell_area = grid.cell_size * grid.cell_size
    for row in range(grid.n_rows):
        for col in range(grid.n_cols):
            x = grid.origin_x + (col + 0.5) * grid.cell_size
            y = grid.origin_y + (grid.n_rows - row - 0.5) * grid.cell_size
            best_i, best_cost = 0, math.inf
            for i, site in enumerate(sites):
                cost = (x - site.x) ** 2 + (y - site.y) ** 2 - weights[i]
                if cost < best_cost:
                    best_i, best_cost = i, cost
            recount[best_i] += float(grid.depth[row, col]) * cell_area
    for reported, counted in zip(result.cell_volumes, recount):
        assert reported == pytest.approx(counted, rel=1e-9)


def brute_force_shortest(graph, start, goal):
    best = None
    stack = [(start, [start], 0.0)]
    while stack:
        node, path, cost = stack.pop()
        if best is not None and cost >= best:
            continue
        if node == goal:
            best = cost
            continue
        for nbr, d in graph.adjacency[node]:
            if nbr not in path:
                stack.append((nbr, path + [nbr], cost + d))
    return best


def test_c3_route_search_matches_exhaustive_enumeration():
    rng = np.random.default_rng(424242)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        pts = rng.uniform(0, 10000, size=(n, 2))
        link = float(rng.uniform(2500, 7000))
        graph = BeaconGraph(tuple(Point2D(float(x), float(y)) for x, y in pts), link)
        start = int(rng.integers(n))
        goal = int(rng.integers(n))
        route = astar_route(graph, start, goal)
        expected = brute_force_shortest(graph, start, goal)
        if expected is None:
            assert route == []
        else:
            assert route[0] == start and route[-1] == goal
            assert route_length(graph, route) == pytest.approx(expected, rel=1e-9)


def test_c4_bundled_mission_plans_to_exact_sequence():
    domain = parse_domain(DOMAIN_PATH.read_text())
    problem = parse_problem(
        (SCENARIOS / "problems" / "uuv1-mission.hddl").read_text(), domain
    )
    tables = ground(domain, problem)
    started = time.monotonic()
    mission_plan = plan(tables, frozenset(problem.init), problem.htn, problem.goal)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"planning took {elapsed:.3f}s"
    steps = [s.task for s in mission_plan.steps]
    assert steps == [
        ("navigate-to-beacon", "uuv1", "b6"),
        ("sense-beacon", "uuv1", "b6"),
        ("circle-localize", "uuv1", "b6"),
        ("broadcast", "uuv1"),
        ("navigate-to-beacon", "uuv1", "b8"),
    ]
    verdict = validate(tables, frozenset(problem.init), problem.htn, steps, problem.goal)
    assert verdict.valid, verdict.reason


def test_c5_nominal_run_localizes_broadcasts_and_rendezvouses():
    report = run_scenario(load_scenario(SCENARIOS / "nominal.yaml"))
    events = report.events

    assert not [e for e in events if e.kind == "replan-triggered"]

    def first_time(predicate):
        matches = [e.time for e in events if predicate(e)]
        assert matches, "expected event not found"
        return matches[0]

    t_detect = first_time(
        lambda e: e.kind == "detection"
        and e.subject == "uuv1"
        and e.beacon == "b6"
    )
    t_circle = first_time(
        lambda e: e.kind == "action-completed"
        and e.subject == "uuv1"
        and e.payload["action"] == "circle-localize"
    )
    t_broadcast = first_time(lambda e: e.kind == "broadcast-sent" and e.subject == "uuv1")
    t_leg_out = first_time(
        lambda e: e.kind == "action-started"
        and e.subject == "uuv1"
        and e.payload["action"] == "navigate-to-beacon"
        and e.payload["args"][1] == "b8"
    )
    assert t_detect < t_circle < t_broadcast < t_leg_out

    listeners = {"uuv2", "uuv3", "uuv4", "uuv5"}
    world = report.world
    sender_pos = next(
        e.payload["position"] for e in events if e.kind == "broadcast-sent"
    )
    for uuv_id in sorted(listeners):
        t_rx = first_time(lambda e, u=uuv_id: e.kind == "broadcast-received" and e.subject == u)
        assert t_rx == t_broadcast
        t_go = first_time(
            lambda e, u=uuv_id: e.kind == "action-started"
            and e.subject == u
            and e.payload["action"] == "navigate-to-broadcast"
        )
        assert t_go > t_rx
        final = next(u for u in world.uuvs if u.id == uuv_id).estimated_position
        assert final.distance_to(Point2D(*sender_pos)) <= world.params.arrival_tolerance
    assert report.summary["all_missions_completed"]


def test_c6_silenced_beacon_triggers_replan_of_in_range_subset():
    started = time.monotonic()
    report = run_scenario(load_scenario(SCENARIOS / "b6-silenced.yaml"))
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"scenario took {elapsed:.2f}s"
    events = report.events

    replans = [e for e in events if e.kind == "replan-triggered"]
    assert replans, "no replanning happened"

    # divergence must land within one tick of the b6 window closing
    distance = math.hypot(4000.0 - 2500.0, 4000.0 - 2500.0)
    margin = 0.5 * (1.0 + 100.0 / distance)
    window_close = distance / 2.0 * (1.0 + margin) + 10.0
    tick = report.world.params.tick
    first_replan = min(e.time for e in replans)
    assert window_close < first_replan <= window_close + tick

    # exactly the comm-range subset replans: uuv5 is ferrying far east
    assert sorted({e.subject for e in replans}) == ["uuv1", "uuv2", "uuv3", "uuv4"]
    assert report.summary["uuvs"]["uuv5"]["replans"] == 0

    # the divergent vehicle falls back to dead reckoning and finishes
    fallback = [
        e
        for e in events
        if e.subject == "uuv1"
        and e.kind == "action-completed"
        and e.payload["action"] == "transit-leg"
        and e.payload["args"][1] == "b8"
    ]
    assert fallback
    assert report.summary["all_missions_completed"]


def test_c7_corpus_round_trips_and_malformed_inputs_fail_with_positions():
    domain = parse_domain(DOMAIN_PATH.read_text())
    reparsed = parse_domain(print_domain(domain))
    assert reparsed == domain

    problem_paths = sorted(glob.glob(str(SCENARIOS / "problems" / "*.hddl")))
    assert problem_paths
    for path in problem_paths:
        problem = parse_problem(Path(path).read_text(), domain)
        assert parse_problem(print_problem(problem), domain) == problem

    malformed_paths = sorted(glob.glob(str(REPO / "domains" / "malformed" / "*.hddl")))
    assert len(malformed_paths) >= 8
    for path in malformed_paths:
        text = Path(path).read_text()
        with pytest.raises(HddlError) as excinfo:
            if "(problem" in text:
                parse_problem(text, domain)
            else:
                parse_domain(text)
        err = excinfo.value
        assert err.line >= 1 and err.col >= 1, path
        assert str(err).startswith(f"{err.line}:{err.col}:"), path


def test_c8_every_command_reruns_byte_identical(tmp_path, capsys):
    bathy = str(SCENARIOS / "bathymetry.asc")
    area = str(SCENARIOS / "mission-area.geojson")
    beacons = str(SCENARIOS / "beacons.geojson")
    domain = str(DOMAIN_PATH)
    problem = str(SCENARIOS / "problems" / "uuv1-mission.hddl")

    def run_twice(argv, outputs):
        blobs = []
        for round_dir in ("one", "two"):
            target = tmp_path / round_dir
            target.mkdir(exist_ok=True)
            code = main([a.replace("@OUT@", str(target)) for a in argv])
            stdout = capsys.readouterr().out
            assert code == 0
            blobs.append(
                (stdout, [(target / rel).read_bytes() for rel in outputs])
            )
        assert blobs[0] == blobs[1], f"rerun of {argv[0]} differed"
        return blobs[0]

    run_twice(
        [
            "deploy", "--bathymetry", bathy, "--area", area,
            "--n-beacons", "5", "--seed", "3", "--tolerance", "0.01",
            "--out", "@OUT@/constellation.geojson", "--report", "@OUT@/deploy.json",
        ],
        ["constellation.geojson", "deploy.json"],
    )
    run_twice(
        [
            "route", "--beacons", beacons, "--start", "b4", "--goal", "b8",
            "--link-distance", "2200", "--out", "@OUT@/route.json",
        ],
        ["route.json"],
    )
    run_twice(
        [
            "plan", "--domain", domain, "--problem", problem,
            "--format", "json", "--out", "@OUT@/plan.json",
        ],
        ["plan.json"],
    )
    plan_path = tmp_path / "one" / "plan.json"
    run_twice(
        ["validate", "--domain", domain, "--problem", problem, "--plan", str(plan_path)],
        [],
    )
    stdout, _ = run_twice(
        [
            "simulate", "--scenario", str(SCENARIOS / "b6-silenced.yaml"),
            "--out-dir", "@OUT@/sim",
        ],
        ["sim/events.jsonl", "sim/tracks.geojson", "sim/summary.json"],
    )
    assert json.loads(stdout)["all_missions_completed"] is True
