import itertools
import math

import numpy as np
import pytest

from uuvnav.deploy import (
    ETA,
    BeaconGraph,
    CellAssignment,
    DeploymentProblem,
    DeploymentResult,
    _farthest_point_seed,
    assign_cells,
    astar_route,
    build_beacon_graph,
    deployment_to_geojson,
    lloyd_deploy,
    objective,
    route_length,
)
from uuvnav.errors import InputError
from uuvnav.geo import BathymetryGrid, MissionPolygon, Point2D, cells_in_polygon


def flat_grid(n, depth=30.0, cell=100.0):
    return BathymetryGrid(
        origin_x=0.0,
        origin_y=0.0,
        cell_size=cell,
        n_rows=n,
        n_cols=n,
        depth=np.full((n, n), depth),
        nodata_value=-9999.0,
    )


def region_volumes(assignment: CellAssignment, grid: BathymetryGrid) -> np.ndarray:
    """Water volume (m^3) owned by each site under the assignment."""
    vols = grid.depth[assignment.cell_rows, assignment.cell_cols] * grid.cell_size**2
    return np.bincount(assignment.site_of, weights=vols, minlength=assignment.n_sites)


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


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def test_objective_balanced():
    assert objective([50.0, 50.0], 100.0) == 0.0


def test_objective_unbalanced():
    assert objective([60.0, 40.0], 100.0) == 10.0


def test_objective_single_site():
    assert objective([100.0], 100.0) == 0.0


# ---------------------------------------------------------------------------
# Cell assignment
# ---------------------------------------------------------------------------

def test_assign_equidistant_tie_goes_to_lowest_index():
    g = flat_grid(1, cell=10.0)  # single cell centered at (5, 5)
    poly = cover_all(g)
    sites = [Point2D(0.0, 5.0), Point2D(10.0, 5.0)]
    a = assign_cells(sites, [0.0, 0.0], g, poly)
    assert list(a.site_of) == [0]


def test_assign_single_site_takes_everything():
    g = flat_grid(5)
    a = assign_cells([Point2D(250.0, 250.0)], [0.0], g, cover_all(g))
    assert len(a.site_of) == 25
    assert set(a.site_of.tolist()) == {0}


def test_assign_matches_per_cell_power_distance_oracle():
    # raise site 1's weight step by step; each cell must flip exactly when
    # its power distance to site 1 drops below its distance to site 0
    g = flat_grid(6, cell=10.0)
    poly = cover_all(g)
    sites = [Point2D(15.0, 30.0), Point2D(45.0, 30.0)]
    for w1 in [0.0, 200.0, 500.0, 900.0, 1500.0, 2500.0]:
        a = assign_cells(sites, [0.0, w1], g, poly)
        for k in range(len(a.site_of)):
            r, c = a.cell_rows[k], a.cell_cols[k]
            cx = g.origin_x + (c + 0.5) * g.cell_size
            cy = g.origin_y + (g.n_rows - r - 0.5) * g.cell_size
            p0 = (cx - sites[0].x) ** 2 + (cy - sites[0].y) ** 2
            p1 = (cx - sites[1].x) ** 2 + (cy - sites[1].y) ** 2 - w1
            expect = 0 if p0 <= p1 else 1
            assert a.site_of[k] == expect


def test_assignment_is_a_partition():
    g = flat_grid(8)
    poly = cover_all(g)
    sites = [Point2D(200.0, 200.0), Point2D(600.0, 600.0), Point2D(700.0, 100.0)]
    a = assign_cells(sites, [0.0, 0.0, 0.0], g, poly)
    assert len(a.site_of) == 64
    vols = region_volumes(a, g)
    assert vols.sum() == pytest.approx(64 * 30.0 * 100.0**2)


# ---------------------------------------------------------------------------
# Lloyd relaxation
# ---------------------------------------------------------------------------

def test_lloyd_single_beacon_lands_on_centroid():
    g = flat_grid(9, cell=10.0)
    problem = DeploymentProblem(g, cover_all(g), n_beacons=1, rng_seed=42)
    result = lloyd_deploy(problem)
    assert result.converged
    assert result.objective == 0.0
    # centroid of the 90x90 square is (45, 45), the center cell's center
    assert result.beacon_positions[0] == Point2D(45.0, 45.0)


def test_lloyd_four_beacons_reach_quadrant_centers():
    g = flat_grid(40)
    problem = DeploymentProblem(
        g, cover_all(g), n_beacons=4, rng_seed=7, volume_tolerance=0.01
    )
    result = lloyd_deploy(problem)
    assert result.converged
    side = 40 * 100.0
    centers = [
        (side / 4, side / 4),
        (3 * side / 4, side / 4),
        (side / 4, 3 * side / 4),
        (3 * side / 4, 3 * side / 4),
    ]
    for qx, qy in centers:
        d = min(math.hypot(p.x - qx, p.y - qy) for p in result.beacon_positions)
        assert d <= 2 * g.cell_size
    target = result.v_tot / 4
    for v in result.cell_volumes:
        assert abs(v - target) <= 0.05 * target


def test_lloyd_volumes_recount_from_final_state():
    g = flat_grid(30)
    poly = cover_all(g)
    result = lloyd_deploy(DeploymentProblem(g, poly, n_beacons=4, rng_seed=3))
    a = assign_cells(result.beacon_positions, result.site_weights, g, poly)
    recount = region_volumes(a, g)
    for v, rv in zip(result.cell_volumes, recount):
        assert v == pytest.approx(rv, rel=1e-12)


def test_lloyd_volume_partition_is_exact():
    g = flat_grid(25)
    result = lloyd_deploy(DeploymentProblem(g, cover_all(g), n_beacons=5, rng_seed=11))
    assert sum(result.cell_volumes) == result.v_tot


def test_lloyd_objective_recomputable():
    g = flat_grid(25)
    result = lloyd_deploy(DeploymentProblem(g, cover_all(g), n_beacons=5, rng_seed=11))
    recomputed = objective(list(result.cell_volumes), sum(result.cell_volumes))
    assert result.objective == pytest.approx(recomputed, rel=1e-9, abs=1e-12)


def reference_lloyd(problem):
    """The per-site loop that lloyd_deploy replaced: float site coordinates,
    one masked centroid and one full snap scan per site. Returns positions,
    volumes, weights, iterations and convergence."""
    grid, n = problem.grid, problem.n_beacons
    rows, cols = np.nonzero(cells_in_polygon(grid, problem.poly) & grid.valid_mask)
    xs = grid.origin_x + (cols + 0.5) * grid.cell_size
    ys = grid.origin_y + (grid.n_rows - rows - 0.5) * grid.cell_size
    vols = grid.depth[rows, cols] * grid.cell_size**2
    picks = _farthest_point_seed(xs, ys, n, np.random.default_rng(problem.rng_seed))
    sx, sy = xs[picks].copy(), ys[picks].copy()
    weights = np.zeros(n)

    def assign():
        d2 = (xs[:, None] - sx[None, :]) ** 2 + (ys[:, None] - sy[None, :]) ** 2
        site_of = np.argmin(d2 - weights[None, :], axis=1)
        return site_of, np.bincount(site_of, weights=vols, minlength=n)

    site_of, volumes = assign()
    converged = False
    for it in range(1, problem.max_iterations + 1):
        target = float(np.sum(volumes)) / n
        if n > 1:
            d2 = (sx[:, None] - sx[None, :]) ** 2 + (sy[:, None] - sy[None, :]) ** 2
            np.fill_diagonal(d2, np.inf)
            spacing = float(np.mean(np.sqrt(d2.min(axis=1))))
            weights = weights + ETA * (target - volumes) / target * spacing**2
        for i in range(n):
            mine = site_of == i
            w = vols[mine]
            if w.sum() > 0:
                cx = float(np.sum(w * xs[mine]) / w.sum())
                cy = float(np.sum(w * ys[mine]) / w.sum())
                nearest = int(np.argmin((xs - cx) ** 2 + (ys - cy) ** 2))
                sx[i], sy[i] = xs[nearest], ys[nearest]
        site_of, volumes = assign()
        total = float(np.sum(volumes))
        if objective(volumes.tolist(), total) <= problem.volume_tolerance * total / n:
            converged = True
            break
    positions = tuple(Point2D(float(x), float(y)) for x, y in zip(sx, sy))
    return positions, tuple(volumes.tolist()), tuple(weights.tolist()), it, converged


def sloped_grid(n):
    # non-integer depths and a nodata island, so sums are inexact
    r, c = np.mgrid[0:n, 0:n]
    depth = 40.0 + 0.37 * c + 0.21 * r + 3.3 * np.sin(0.7 * c) * np.cos(0.4 * r)
    depth[(r - n / 2) ** 2 + (c - n / 3) ** 2 < (n / 6) ** 2] = -9999.0
    return BathymetryGrid(10.0, -20.0, 50.0, n, n, depth, -9999.0)


RASTERS = {
    "sloped": lambda: sloped_grid(36),
    "flat": lambda: flat_grid(30),
    # about 13k water cells, where the two rasters above have about 1k
    "sloped120": lambda: sloped_grid(120),
}


@pytest.mark.parametrize(
    "raster, n_beacons, seed",
    [
        (raster, n_beacons, seed)
        for raster in ("sloped", "flat")
        for n_beacons, seed in [(1, 0), (3, 1), (5, 3), (8, 2), (12, 5)]
    ]
    + [("sloped120", 12, 4), ("sloped120", 40, 6)]
    # region centroids fall in the nodata island, so the snap scans every cell
    + [("sloped", 3, 5)],
)
def test_lloyd_matches_the_per_site_reference(raster, n_beacons, seed):
    g = RASTERS[raster]()
    problem = DeploymentProblem(
        g, cover_all(g), n_beacons=n_beacons, rng_seed=seed, volume_tolerance=0.002
    )
    result = lloyd_deploy(problem)
    got = (
        result.beacon_positions,
        result.cell_volumes,
        result.site_weights,
        result.iterations_used,
        result.converged,
    )
    assert got == reference_lloyd(problem)


def test_lloyd_deterministic_rerun():
    g = flat_grid(20)
    problem = DeploymentProblem(g, cover_all(g), n_beacons=3, rng_seed=99)
    r1 = lloyd_deploy(problem)
    r2 = lloyd_deploy(problem)
    assert r1 == r2


def test_lloyd_seed_changes_init():
    g = flat_grid(20)
    r1 = lloyd_deploy(DeploymentProblem(g, cover_all(g), n_beacons=3, rng_seed=1))
    r2 = lloyd_deploy(DeploymentProblem(g, cover_all(g), n_beacons=3, rng_seed=2))
    # both must still satisfy the partition invariant
    assert sum(r1.cell_volumes) == r1.v_tot
    assert sum(r2.cell_volumes) == r2.v_tot


def test_lloyd_more_beacons_than_water_cells():
    g = flat_grid(2, cell=10.0)
    with pytest.raises(InputError):
        lloyd_deploy(DeploymentProblem(g, cover_all(g), n_beacons=5, rng_seed=0))


def test_lloyd_positions_are_water_cell_centers():
    depth = np.full((10, 10), 20.0)
    depth[0:4, 0:4] = -9999.0  # dry corner
    g = BathymetryGrid(0.0, 0.0, 100.0, 10, 10, depth, -9999.0)
    result = lloyd_deploy(DeploymentProblem(g, cover_all(g), n_beacons=3, rng_seed=5))
    for p in result.beacon_positions:
        c = int((p.x - g.origin_x) / g.cell_size)
        r = g.n_rows - 1 - int((p.y - g.origin_y) / g.cell_size)
        assert g.valid_mask[r, c]
        assert p.x == g.origin_x + (c + 0.5) * g.cell_size
        assert p.y == g.origin_y + (g.n_rows - r - 0.5) * g.cell_size


def test_lloyd_site_with_a_dry_region_stays_put():
    # one row of nine cells where only the easternmost holds water: after
    # one iteration the site nearer it sits on it, and the other site,
    # whose region holds no water, keeps its seed cell
    depth = np.zeros((1, 9))
    depth[0, 8] = 30.0
    g = BathymetryGrid(0.0, 0.0, 10.0, 1, 9, depth, -9999.0)
    xs = np.arange(9) * 10.0 + 5.0
    for seed in range(10):
        picks = _farthest_point_seed(xs, np.full(9, 5.0), 2, np.random.default_rng(seed))
        expected = [float(xs[k]) for k in picks]
        expected[int(np.argmax(picks))] = 85.0
        result = lloyd_deploy(
            DeploymentProblem(g, cover_all(g), n_beacons=2, max_iterations=1, rng_seed=seed)
        )
        assert [p.x for p in result.beacon_positions] == expected


def test_centroid_move_never_increases_squared_distance_energy():
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 100, size=(40, 2))
    w = rng.uniform(1, 5, size=40)
    site = np.array([80.0, 10.0])
    centroid = (pts * w[:, None]).sum(axis=0) / w.sum()
    e_site = float((w * ((pts - site) ** 2).sum(axis=1)).sum())
    e_centroid = float((w * ((pts - centroid) ** 2).sum(axis=1)).sum())
    assert e_centroid <= e_site


def test_problem_invariants_validated():
    g = flat_grid(5)
    with pytest.raises(InputError):
        DeploymentProblem(g, cover_all(g), n_beacons=0)
    with pytest.raises(InputError):
        DeploymentProblem(g, cover_all(g), n_beacons=1, volume_tolerance=1.5)
    with pytest.raises(InputError):
        DeploymentProblem(g, cover_all(g), n_beacons=1, max_iterations=0)
    with pytest.raises(InputError):
        DeploymentProblem(g, cover_all(g), n_beacons=1, rng_seed=-1)


# ---------------------------------------------------------------------------
# Beacon graph
# ---------------------------------------------------------------------------

def graph_of(points, link):
    return BeaconGraph(tuple(Point2D(x, y) for x, y in points), link)


def test_graph_edge_within_link_distance():
    g = graph_of([(0, 0), (3000, 0)], 4000.0)
    assert g.edges == ((0, 1, 3000.0),)


def test_graph_no_edge_beyond_link_distance():
    g = graph_of([(0, 0), (5000, 0)], 4000.0)
    assert g.edges == ()


def test_graph_collinear_path():
    g = graph_of([(0, 0), (2000, 0), (4000, 0)], 2500.0)
    assert g.edges == ((0, 1, 2000.0), (1, 2, 2000.0))


def test_graph_edge_at_exact_link_distance():
    g = graph_of([(0, 0), (4000, 0)], 4000.0)
    assert len(g.edges) == 1


# ---------------------------------------------------------------------------
# A* routing
# ---------------------------------------------------------------------------

def brute_force_shortest(graph, start, goal):
    """Exhaustive enumeration of simple paths; None when unreachable."""
    best = None
    n = len(graph.positions)
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


def test_astar_start_equals_goal():
    g = graph_of([(0, 0), (1000, 0)], 4000.0)
    assert astar_route(g, 1, 1) == [1]
    assert route_length(g, [1]) == 0.0


def test_astar_follows_only_path():
    g = graph_of([(0, 0), (2000, 0), (4000, 0)], 2500.0)
    assert astar_route(g, 0, 2) == [0, 1, 2]


def test_astar_unreachable_returns_empty():
    g = graph_of([(0, 0), (10000, 0)], 4000.0)
    assert astar_route(g, 0, 1) == []


def test_astar_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(2, 13))
        pts = rng.uniform(0, 10000, size=(n, 2))
        link = float(rng.uniform(2500, 7000))
        g = BeaconGraph(tuple(Point2D(float(x), float(y)) for x, y in pts), link)
        start = int(rng.integers(n))
        goal = int(rng.integers(n))
        route = astar_route(g, start, goal)
        expect = brute_force_shortest(g, start, goal)
        if expect is None:
            assert route == []
        else:
            assert route[0] == start and route[-1] == goal
            assert route_length(g, route) == pytest.approx(expect, rel=1e-9)


def test_astar_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 8000, size=(10, 2))
    g = BeaconGraph(tuple(Point2D(float(x), float(y)) for x, y in pts), 4000.0)
    assert astar_route(g, 0, 9) == astar_route(g, 0, 9)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_geojson_export_shape():
    g = flat_grid(20)
    result = lloyd_deploy(DeploymentProblem(g, cover_all(g), n_beacons=3, rng_seed=0))
    graph = build_beacon_graph(result, 4000.0)
    fc = deployment_to_geojson(result, graph)
    assert fc["type"] == "FeatureCollection"
    points = [f for f in fc["features"] if f["geometry"]["type"] == "Point"]
    assert [f["properties"]["id"] for f in points] == ["b1", "b2", "b3"]
    for f, v, d in zip(points, result.cell_volumes, result.beacon_depths):
        assert f["properties"]["volume_m3"] == v
        assert f["properties"]["depth_m"] == d
    lines = [f for f in fc["features"] if f["geometry"]["type"] == "MultiLineString"]
    assert len(lines) == 1
    assert len(lines[0]["geometry"]["coordinates"]) == len(graph.edges)
