"""Properties of ``lloyd_deploy`` on small random rasters with nodata cells:
the region volumes partition the water under the polygon, every beacon
sits on an in-polygon water-cell centre, and the final sites and weights
reproduce the reported volumes. The blocked power assignment returns
exactly what its one-shot form does, and with zero weights, the nearest
cell that a point-by-point search finds."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uuvnav.deploy import (
    BLOCK,
    DeploymentProblem,
    _power_assign,
    assign_cells,
    lloyd_deploy,
)
from uuvnav.geo import (
    BathymetryGrid,
    MissionPolygon,
    Point2D,
    cells_in_polygon,
)
from test_deploy import region_volumes
from test_geo import volume_under_polygon

NODATA = -9999.0

# Derandomized, so every run checks the same examples.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def deployments(draw):
    rows, cols = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    cell = draw(st.sampled_from([1.0, 7.5, 100.0]))
    origin = (draw(st.integers(-50, 50)) * cell, draw(st.integers(-50, 50)) * cell)
    depth = draw(
        st.lists(
            st.one_of(
                st.just(NODATA),
                st.just(0.0),
                st.floats(0.5, 120.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    grid = BathymetryGrid(origin[0], origin[1], cell, rows, cols, np.array(depth), NODATA)
    # a star-shaped polygon around the raster centre is always simple
    k = draw(st.integers(3, 7))
    cx, cy = origin[0] + cols * cell / 2, origin[1] + rows * cell / 2
    reach = max(rows, cols) * cell * 0.75
    verts = []
    for i in range(k):
        angle = 2 * math.pi * (i + draw(st.floats(-0.3, 0.3))) / k
        radius = reach * draw(st.floats(0.3, 1.0))
        verts.append(Point2D(cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    poly = MissionPolygon(tuple(verts))
    water = int(np.count_nonzero(cells_in_polygon(grid, poly) & grid.valid_mask))
    assume(water >= 1 and volume_under_polygon(grid, poly) > 0)
    problem = DeploymentProblem(
        grid,
        poly,
        n_beacons=min(draw(st.integers(1, 6)), water),
        max_iterations=draw(st.integers(1, 12)),
        volume_tolerance=draw(st.sampled_from([0.001, 0.05, 0.3])),
        rng_seed=draw(st.integers(0, 2**16)),
    )
    return problem


@PROPERTY
@given(deployments())
def test_region_volumes_partition_the_water_under_the_polygon(problem):
    result = lloyd_deploy(problem)
    total = sum(result.cell_volumes)
    assert total == pytest.approx(result.v_tot, rel=1e-12, abs=0)
    assert total == pytest.approx(
        volume_under_polygon(problem.grid, problem.poly), rel=1e-12, abs=0
    )


@PROPERTY
@given(deployments())
def test_beacons_sit_on_in_polygon_water_cell_centres(problem):
    grid = problem.grid
    result = lloyd_deploy(problem)
    xs, ys = grid.cell_centers()
    rows, cols = np.nonzero(cells_in_polygon(grid, problem.poly) & grid.valid_mask)
    cell_at = {(xs[r, c], ys[r, c]): (r, c) for r, c in zip(rows, cols)}
    for p, depth in zip(result.beacon_positions, result.beacon_depths):
        assert (p.x, p.y) in cell_at
        assert depth == grid.depth[cell_at[p.x, p.y]]


@PROPERTY
@given(deployments())
def test_final_sites_and_weights_reproduce_the_volumes(problem):
    result = lloyd_deploy(problem)
    assignment = assign_cells(
        result.beacon_positions, result.site_weights, problem.grid, problem.poly
    )
    recount = region_volumes(assignment, problem.grid)
    assert recount.tolist() == list(result.cell_volumes)


def whole_matrix_assign(xs, ys, sx, sy, weights):
    """The one-shot cells x sites formula that _power_assign computes block
    by block."""
    d2 = (xs[:, None] - sx[None, :]) ** 2 + (ys[:, None] - sy[None, :]) ** 2
    return np.argmin(d2 - weights[None, :], axis=1)


def point_by_point_nearest(xs, ys, px, py):
    """The nearest-cell search with fresh temporaries for every point, which
    lloyd_deploy's zero-weight _power_assign snap must equal."""
    return np.array(
        [np.argmin((xs - x) ** 2 + (ys - y) ** 2) for x, y in zip(px, py)], dtype=np.intp
    )


def coordinates(draw, rng, size):
    # a 3 x 3 lattice of small integers makes duplicate points and exact
    # ties common; wide floats exercise the rounding of every operation
    if draw(st.booleans()):
        return rng.integers(0, 3, size).astype(float), rng.integers(0, 3, size).astype(float)
    return rng.uniform(-1e4, 1e4, size), rng.uniform(-1e4, 1e4, size)


@st.composite
def power_assignments(draw):
    shape = draw(st.sampled_from(["under one block", "ragged blocks", "one cell a block"]))
    if shape == "one cell a block":
        n_sites = draw(st.integers(BLOCK + 1, BLOCK + 64))
        n_cells = draw(st.integers(1, 5))
    else:
        n_sites = draw(st.integers(1, 80))
        per_block = BLOCK // n_sites
        if shape == "under one block":
            n_cells = draw(st.integers(0, per_block - 1))
        else:
            n_cells = draw(st.integers(1, 3)) * per_block + draw(st.integers(1, per_block - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs, ys = coordinates(draw, rng, n_cells)
    sx, sy = coordinates(draw, rng, n_sites)
    if draw(st.booleans()):
        weights = rng.integers(0, 2, n_sites).astype(float)  # equal weights tie
    else:
        weights = rng.uniform(-1e3, 1e3, n_sites)
    return xs, ys, sx, sy, weights


@PROPERTY
@given(power_assignments())
def test_blocked_power_assignment_equals_the_whole_matrix(case):
    got = _power_assign(*case)
    want = whole_matrix_assign(*case)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def nearest_searches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs, ys = coordinates(draw, rng, draw(st.integers(1, 3000)))
    px, py = coordinates(draw, rng, draw(st.integers(0, 12)))
    return xs, ys, px, py


@PROPERTY
@given(nearest_searches())
def test_buffered_nearest_cell_equals_the_point_by_point_search(case):
    xs, ys, px, py = case
    got = _power_assign(px, py, xs, ys, np.zeros(len(xs)))
    want = point_by_point_nearest(*case)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
