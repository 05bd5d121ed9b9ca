"""Properties of ``lloyd_deploy`` on small random rasters with nodata cells:
the region volumes partition the water under the polygon, every beacon
sits on an in-polygon water-cell centre, and the final sites and weights
reproduce the reported volumes. The blocked power assignment returns
exactly what its one-shot form does, and the grid-index centroid snap the
nearest cell that a point-by-point search finds."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uuvnav.deploy import (
    BLOCK,
    DeploymentProblem,
    _nearest_candidate,
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
    lloyd_deploy's grid-index snap must equal."""
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
    shape = draw(st.sampled_from(["one site", "no cells", "few cells", "block edge"]))
    n_sites = 1 if shape == "one site" else draw(st.integers(1, 12))
    if shape == "no cells":
        n_cells = 0
    elif shape == "block edge":
        n_cells = draw(st.integers(1, 2)) * BLOCK + draw(st.integers(-2, 2))
    else:
        n_cells = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs, ys = coordinates(draw, rng, n_cells)
    sx, sy = coordinates(draw, rng, n_sites)
    if draw(st.booleans()):
        weights = rng.integers(0, 2, n_sites).astype(float)  # equal weights tie
    else:
        weights = rng.uniform(-1e3, 1e3, n_sites)
    # finite, as lloyd_deploy's weights are and _power_assign requires
    return xs, ys, sx, sy, weights


@PROPERTY
@given(power_assignments())
def test_blocked_power_assignment_equals_the_whole_matrix(case):
    got = _power_assign(*case)
    want = whole_matrix_assign(*case)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def snaps(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if draw(st.booleans()):
        # exact arithmetic, so points on cell edges and corners tie exactly
        cell = draw(st.sampled_from([1.0, 0.5, 4.0, 7.5]))
        origin = (draw(st.integers(-20, 20)) * cell, draw(st.integers(-20, 20)) * cell)
    else:
        # rounding at every operation, and centres that round together,
        # where a nearest cell can lie beyond the 3 x 3 block
        cell = draw(st.sampled_from([1.0, 0.3, 100.0 / 3]))
        origin = draw(st.sampled_from([(0.1, -0.7), (2.0**54, -(2.0**54)), (1e17, 3e16)]))
    mask = rng.random((rows, cols)) < draw(st.sampled_from([1.0, 0.8, 0.5]))
    assume(mask.any())
    depth = np.full((rows, cols), 10.0)
    grid = BathymetryGrid(origin[0], origin[1], cell, rows, cols, depth, NODATA)
    r, c = np.nonzero(mask)
    all_xs, all_ys = grid.cell_centers()
    holes = np.argwhere(~mask)
    points = []
    for kind in rng.choice(["lattice", "hole", "random", "non-finite"], size=30):
        if kind == "lattice":
            # cell edges, corners and centres, and a little past the raster
            x, y = rng.integers(-2, [2 * cols + 3, 2 * rows + 3]) * cell / 2
            points.append((origin[0] + x, origin[1] + y))
        elif kind == "hole" and len(holes):
            hr, hc = holes[rng.integers(len(holes))]
            dx, dy = rng.uniform(-0.5, 0.5, 2) * cell
            points.append((float(all_xs[hr, hc] + dx), float(all_ys[hr, hc] + dy)))
        elif kind == "non-finite":
            bad = rng.choice([math.inf, -math.inf, math.nan])
            points.append(((bad, origin[1]), (origin[0], bad), (bad, bad))[rng.integers(3)])
        else:
            x, y = rng.uniform(-1.5, [cols + 1.5, rows + 1.5]) * cell
            points.append((origin[0] + x, origin[1] + y))
    return grid, r, c, all_xs[r, c], all_ys[r, c], points


@PROPERTY
@given(snaps())
def test_index_snap_equals_the_point_by_point_search(case):
    grid, r, c, xs, ys, points = case
    nearest = _nearest_candidate(grid, r, c, xs, ys)
    got = np.array([nearest(x, y) for x, y in points], dtype=np.intp)
    assert np.array_equal(got, point_by_point_nearest(xs, ys, *np.array(points).T))
