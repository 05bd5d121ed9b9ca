"""Volume-balanced beacon placement and routing over the constellation.

Placement runs a capacity-constrained Lloyd relaxation: cells are assigned
by power distance (squared Euclidean minus a per-site weight), weights are
nudged each iteration so every site's water volume approaches V_tot/N, and
sites move to the volume-weighted centroids of their regions. Routing is
plain A* over the beacon graph with the straight-line heuristic.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

from .errors import InputError
from .geo import BathymetryGrid, MissionPolygon, Point2D, cells_in_polygon, equal_with_arrays
from .record import Record

ETA = 0.5  # weight-update step size
# Cells per block of _power_assign: a block's coordinates, owners and scratch
# (about 1.6 MB) stay in a 2 MB L2 cache while every site is tested against
# it. On a 2-vCPU Xeon, one assignment of 160k cells to 10 sites took 4-5 ms
# in blocks against 8 ms in one pass over all cells; on 34k cells they tie.
BLOCK = 1 << 15


class DeploymentProblem(Record, frozen=True):
    """A grid and area as their readers checked them, and the settings that
    ``uuvnav deploy`` checks for its flags: n_beacons and max_iterations at
    least 1, volume_tolerance in (0, 1), rng_seed at least 0."""

    __slots__ = _fields = (
        "grid", "poly", "n_beacons", "max_iterations", "volume_tolerance", "rng_seed"
    )
    grid: BathymetryGrid
    poly: MissionPolygon
    n_beacons: int
    max_iterations: int
    volume_tolerance: float  # fraction of V_tot / N
    rng_seed: int
    _defaults = {"max_iterations": 100, "volume_tolerance": 0.05, "rng_seed": 0}


class CellAssignment(Record, frozen=True):
    """Partition of the in-polygon water cells among sites.

    cell_rows/cell_cols index into the grid; site_of[i] is the owning site
    of cell i. Arrays are parallel and read-only.
    """

    __eq__ = equal_with_arrays

    __slots__ = _fields = ("cell_rows", "cell_cols", "site_of", "n_sites")
    cell_rows: np.ndarray
    cell_cols: np.ndarray
    site_of: np.ndarray
    n_sites: int

    def __init__(
        self, cell_rows: np.ndarray, cell_cols: np.ndarray, site_of: np.ndarray, n_sites: int
    ) -> None:
        import numpy as np

        cell_rows, cell_cols, site_of = map(np.asarray, (cell_rows, cell_cols, site_of))
        for arr in (cell_rows, cell_cols, site_of):
            arr.flags.writeable = False
        object.__setattr__(self, "cell_rows", cell_rows)
        object.__setattr__(self, "cell_cols", cell_cols)
        object.__setattr__(self, "site_of", site_of)
        object.__setattr__(self, "n_sites", n_sites)


class DeploymentResult(Record, frozen=True):
    __slots__ = _fields = (
        "beacon_positions",
        "beacon_depths",
        "cell_volumes",
        "v_tot",
        "objective",
        "iterations_used",
        "converged",
        "site_weights",
    )
    beacon_positions: tuple[Point2D, ...]
    beacon_depths: tuple[float, ...]  # local water depth at each beacon (m)
    cell_volumes: tuple[float, ...]  # V_n per beacon (m^3)
    v_tot: float
    objective: float  # mean absolute deviation of V_n from V_tot/N (m^3)
    iterations_used: int
    converged: bool
    site_weights: tuple[float, ...]  # final power weights, for recounting


def check_link_distance(coverage_link_distance: float) -> None:
    """Reject a link distance that is not finite and > 0."""
    if not 0 < coverage_link_distance < math.inf:
        raise InputError(
            f"coverage_link_distance must be finite and > 0, got {coverage_link_distance}"
        )


class BeaconGraph(Record, frozen=True):
    """Undirected beacon graph; an edge joins every pair within link range,
    which the command that reads it holds to ``check_link_distance``.
    ``adjacency`` is worked out from the other two fields."""

    __slots__ = _fields = ("positions", "coverage_link_distance", "adjacency")
    positions: tuple[Point2D, ...]
    coverage_link_distance: float
    adjacency: tuple[tuple[tuple[int, float], ...], ...]

    def __init__(self, positions: tuple[Point2D, ...], coverage_link_distance: float) -> None:
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "coverage_link_distance", coverage_link_distance)
        adj: list[list[tuple[int, float]]] = [[] for _ in positions]
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                d = positions[i].distance_to(positions[j])
                if d <= coverage_link_distance:
                    adj[i].append((j, d))
                    adj[j].append((i, d))
        object.__setattr__(self, "adjacency", tuple(tuple(n) for n in adj))

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        out = []
        for i, nbrs in enumerate(self.adjacency):
            for j, d in nbrs:
                if i < j:
                    out.append((i, j, d))
        return tuple(out)


def objective(volumes: Sequence[float], v_tot: float) -> float:
    """Mean absolute deviation of the N >= 1 per-site volumes from v_tot / N."""
    target = v_tot / len(volumes)
    return float(sum(abs(v - target) for v in volumes) / len(volumes))


def _candidate_cells(grid: BathymetryGrid, poly: MissionPolygon):
    """Arrays (rows, cols, xs, ys, vols) of the in-polygon water cells."""
    import numpy as np

    mask = cells_in_polygon(grid, poly) & grid.valid_mask
    rows, cols = np.nonzero(mask)
    col_xs, row_ys = grid.cell_centers()
    xs, ys = col_xs[cols], row_ys[rows]
    vols = grid.depth[rows, cols] * grid.cell_size**2
    return rows, cols, xs, ys, vols


def _power_assign(xs, ys, sx, sy, weights) -> np.ndarray:
    """Site with the smallest power distance ||c - s||^2 - w for each cell.

    Equal to np.argmin over the cells x sites matrix of those distances:
    each element goes through the same ufuncs in the same order, and a site
    replaces a cell's running best only where it is strictly smaller, so
    ties stay with the lowest site index. Every coordinate and weight must
    be finite: cells and sites come from a grid read inside the input
    envelope, and lloyd_deploy's weight update divides by a positive
    target volume and scales by a finite spacing.

    Cells are taken in blocks of BLOCK and tested against one site at a
    time, so the scratch is a few vectors of at most BLOCK cells, whatever N.
    """
    import numpy as np

    n_cells = len(xs)
    site_of = np.zeros(n_cells, dtype=np.intp)
    scratch = np.empty((3, min(n_cells, BLOCK)))
    closer_scratch = np.empty(scratch.shape[1], dtype=bool)
    for lo in range(0, n_cells, BLOCK):
        hi = min(lo + BLOCK, n_cells)
        bx, by, owner = xs[lo:hi], ys[lo:hi], site_of[lo:hi]
        best, d2, dy = scratch[:, : hi - lo]
        closer = closer_scratch[: hi - lo]
        for j in range(len(sx)):
            out = d2 if j else best
            np.subtract(bx, sx[j], out=out)
            np.square(out, out=out)
            np.subtract(by, sy[j], out=dy)
            np.square(dy, out=dy)
            np.add(out, dy, out=out)
            np.subtract(out, weights[j], out=out)
            if j:
                np.less(d2, best, out=closer)
                np.copyto(best, d2, where=closer)
                np.copyto(owner, j, where=closer)
    return site_of


def assign_cells(
    sites: Sequence[Point2D],
    weights: Sequence[float],
    grid: BathymetryGrid,
    poly: MissionPolygon,
) -> CellAssignment:
    """Assign every in-polygon water cell to the site with the smallest
    power distance (squared distance minus the site's weight): one finite
    weight for each of at least one site, as _power_assign says."""
    import numpy as np

    rows, cols, xs, ys, _ = _candidate_cells(grid, poly)
    sx = np.array([s.x for s in sites])
    sy = np.array([s.y for s in sites])
    site_of = _power_assign(xs, ys, sx, sy, np.asarray(weights, dtype=float))
    return CellAssignment(rows, cols, site_of, len(sites))


def _farthest_point_seed(xs, ys, n, rng) -> np.ndarray:
    """Pick n candidate-cell indices: random first, then repeatedly the cell
    farthest from all picks so far (ties to the lowest index)."""
    import numpy as np

    first = int(rng.integers(len(xs)))
    picked = [first]
    min_d2 = (xs - xs[first]) ** 2 + (ys - ys[first]) ** 2
    for _ in range(1, n):
        nxt = int(np.argmax(min_d2))
        picked.append(nxt)
        d2 = (xs - xs[nxt]) ** 2 + (ys - ys[nxt]) ** 2
        np.minimum(min_d2, d2, out=min_d2)
    return np.array(picked)


def _mean_site_spacing(sx, sy) -> float:
    import numpy as np

    # mean nearest-neighbor distance between sites
    d2 = (sx[:, None] - sx[None, :]) ** 2 + (sy[:, None] - sy[None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    return float(np.mean(np.sqrt(d2.min(axis=1))))


def _nearest_candidate(grid: BathymetryGrid, rows, cols, xs, ys):
    """Return nearest(x, y): the index k of the candidate cell whose centre
    (xs[k], ys[k]) is nearest, ties to the lowest k, the same index as
    np.argmin((x - xs) ** 2 + (y - ys) ** 2).

    rows and cols must list the candidates in row-major order, as np.nonzero
    gives them. A point in a candidate cell is within 0.71 cells of its
    centre and at least 1.5 cells from every centre outside the 3 x 3 block
    around it, so only the block is searched. Its answer is kept when its
    float distance is below that of the rows and columns of centres two
    cells away, which bounds the float distance of every cell beyond the
    block; that fails only where centres round together. Otherwise, and for
    a point off the grid, in a cell that is not a candidate or at a
    non-finite position, every candidate is scanned.
    """
    import numpy as np

    index = np.full((grid.n_rows, grid.n_cols), -1, dtype=np.intp)
    index[rows, cols] = np.arange(len(rows))
    col_xs, row_ys = grid.cell_centers()
    # centres two cells past the raster's edge are infinitely far away
    col_x = np.concatenate(([-math.inf] * 2, col_xs, [math.inf] * 2)).tolist()
    row_y = np.concatenate(([math.inf] * 2, row_ys, [-math.inf] * 2)).tolist()

    def nearest(x: float, y: float) -> int:
        u = (x - grid.origin_x) / grid.cell_size
        v = (y - grid.origin_y) / grid.cell_size
        if 0 <= u < grid.n_cols and 0 <= v < grid.n_rows:
            r, c = grid.n_rows - 1 - int(v), int(u)
            if index[r, c] >= 0:
                # the at most 9 candidates in Python floats, ascending k,
                # so a strict < keeps the first minimum as argmin does
                best, best_d2 = -1, math.inf
                for k in index[max(r - 1, 0) : r + 2, max(c - 1, 0) : c + 2].ravel().tolist():
                    if k >= 0:
                        dx, dy = x - xs.item(k), y - ys.item(k)
                        d2 = dx * dx + dy * dy
                        if best < 0 or d2 < best_d2:
                            best, best_d2 = k, d2
                # gaps to the columns c - 2, c + 2 and rows r - 2, r + 2,
                # zero on the wrong side of one
                gaps = (
                    max(x - col_x[c], 0.0),
                    min(x - col_x[c + 4], 0.0),
                    min(y - row_y[r], 0.0),
                    max(y - row_y[r + 4], 0.0),
                )
                if best_d2 < min(g * g for g in gaps):
                    return best
        return int(np.argmin((x - xs) ** 2 + (y - ys) ** 2))

    return nearest


def lloyd_deploy(problem: DeploymentProblem) -> DeploymentResult:
    """Place n_beacons sites so their water volumes balance toward V_tot/N.

    A site is an index into the in-polygon water cells, so it always sits
    on a deployable cell center. Each iteration updates the power weights
    from the current volume imbalance, moves every site to the cell nearest
    the volume-weighted centroid of its region (a site whose region holds
    no water stays put), found from the centroid's grid cell by
    _nearest_candidate, then reassigns the cells with _power_assign and
    checks the balance objective against the tolerance. Deterministic for
    a fixed rng_seed.
    """
    import numpy as np

    grid, poly, n = problem.grid, problem.poly, problem.n_beacons
    rows, cols, xs, ys, vols = _candidate_cells(grid, poly)
    if len(xs) < n:
        raise InputError(
            f"{n} beacons requested but only {len(xs)} water cells lie in the polygon"
        )
    if not np.any(vols > 0):
        raise InputError(
            f"the {len(xs)} water cells in the polygon hold no volume: every depth is 0"
        )

    rng = np.random.default_rng(problem.rng_seed)
    site = _farthest_point_seed(xs, ys, n, rng)
    weights = np.zeros(n)
    nearest = _nearest_candidate(grid, rows, cols, xs, ys)

    site_of = _power_assign(xs, ys, xs[site], ys[site], weights)
    volumes = np.bincount(site_of, weights=vols, minlength=n)
    mass_x, mass_y = vols * xs, vols * ys
    converged = False
    iterations_used = 0
    for it in range(1, problem.max_iterations + 1):
        iterations_used = it
        target = float(np.sum(volumes)) / n
        if n > 1:
            spacing = _mean_site_spacing(xs[site], ys[site])
            weights = weights + ETA * (target - volumes) / target * spacing**2
        # volume-weighted region centroids; volumes holds each region's mass
        moving = volumes > 0
        cx = np.bincount(site_of, weights=mass_x, minlength=n)[moving] / volumes[moving]
        cy = np.bincount(site_of, weights=mass_y, minlength=n)[moving] / volumes[moving]
        site[moving] = [nearest(x, y) for x, y in zip(cx.tolist(), cy.tolist())]
        site_of = _power_assign(xs, ys, xs[site], ys[site], weights)
        volumes = np.bincount(site_of, weights=vols, minlength=n)
        obj = objective(volumes.tolist(), float(np.sum(volumes)))
        if obj <= problem.volume_tolerance * (float(np.sum(volumes)) / n):
            converged = True
            break

    volume_list = volumes.tolist()
    v_tot = float(np.sum(volumes))
    return DeploymentResult(
        beacon_positions=tuple(
            Point2D(float(x), float(y)) for x, y in zip(xs[site], ys[site])
        ),
        beacon_depths=tuple(float(d) for d in grid.depth[rows[site], cols[site]]),
        cell_volumes=tuple(volume_list),
        v_tot=v_tot,
        objective=objective(volume_list, v_tot),
        iterations_used=iterations_used,
        converged=converged,
        site_weights=tuple(float(w) for w in weights),
    )


# ---------------------------------------------------------------------------
# Beacon graph and routing
# ---------------------------------------------------------------------------

def build_beacon_graph(
    result: DeploymentResult, coverage_link_distance: float
) -> BeaconGraph:
    return BeaconGraph(result.beacon_positions, coverage_link_distance)


def astar_route(graph: BeaconGraph, start: int, goal: int) -> list[int]:
    """Minimum-total-length beacon sequence from start to goal.

    Straight-line distance to the goal is the heuristic. Returns [] when
    the goal is unreachable.  start and goal are indices into the graph;
    ``route`` maps the chart's ids to them before it calls.
    """
    if start == goal:
        return [start]
    gp = graph.positions[goal]

    def h(i: int) -> float:
        return graph.positions[i].distance_to(gp)

    best_g = {start: 0.0}
    parent: dict[int, int] = {}
    counter = 0
    frontier: list[tuple[float, float, int, int]] = [(h(start), 0.0, counter, start)]
    done: set[int] = set()
    while frontier:
        _, g, _, node = heapq.heappop(frontier)
        if node in done:
            continue
        if node == goal:
            route = [node]
            while route[-1] != start:
                route.append(parent[route[-1]])
            return route[::-1]
        done.add(node)
        for nbr, d in graph.adjacency[node]:
            ng = g + d
            if nbr not in best_g or ng < best_g[nbr]:
                best_g[nbr] = ng
                parent[nbr] = node
                counter += 1
                heapq.heappush(frontier, (ng + h(nbr), ng, counter, nbr))
    return []


def route_length(graph: BeaconGraph, route: Sequence[int]) -> float:
    total = 0.0
    for a, b in zip(route, route[1:]):
        total += graph.positions[a].distance_to(graph.positions[b])
    return total


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def deployment_to_geojson(
    result: DeploymentResult, graph: BeaconGraph
) -> dict:
    """FeatureCollection of beacon Points (id, volume, depth) plus one
    MultiLineString carrying the beacon-graph links."""
    features = []
    for i, (p, v, depth) in enumerate(
        zip(result.beacon_positions, result.cell_volumes, result.beacon_depths)
    ):
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [p.x, p.y]},
                "properties": {
                    "id": f"b{i + 1}",
                    "volume_m3": v,
                    "depth_m": depth,
                    "depth_mode": "seafloor",
                },
            }
        )
    lines = [
        [
            [graph.positions[i].x, graph.positions[i].y],
            [graph.positions[j].x, graph.positions[j].y],
        ]
        for i, j, _ in graph.edges
    ]
    features.append(
        {
            "type": "Feature",
            "geometry": {"type": "MultiLineString", "coordinates": lines},
            "properties": {
                "role": "beacon-links",
                "coverage_link_distance_m": graph.coverage_link_distance,
            },
        }
    )
    return {"type": "FeatureCollection", "features": features}
