"""Properties of ``lloyd_deploy`` on small random rasters with nodata cells:
the region volumes partition the water under the polygon, every beacon
sits on an in-polygon water-cell centre, and the final sites and weights
reproduce the reported volumes."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uuvnav.deploy import DeploymentProblem, assign_cells, lloyd_deploy, region_volumes
from uuvnav.geo import (
    BathymetryGrid,
    MissionPolygon,
    Point2D,
    cells_in_polygon,
    volume_under_polygon,
)

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
