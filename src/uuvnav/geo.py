"""Bathymetry rasters, mission polygons, and the cells a polygon covers.

Coordinates are planar projected meters; inputs must be pre-projected
(no geodetic handling here). Depths are positive downward, in meters of
water below the datum; land and invalid cells carry the grid's nodata
sentinel. All objects are immutable after construction and the module's
operations are pure functions.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

from .errors import GeoJsonError, GridFormatError, shown
from .record import Record

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")

# Every coordinate read (a grid corner, an area vertex, a beacon, a start)
# lies within this many metres of the origin on each axis: UTM northings
# load, and no sum or product of coordinates the program forms overflows.
COORDINATE_LIMIT = 1e7
CELLSIZE_LIMITS = (1e-3, 1e5)  # m


def beyond_coordinate_limit(name: str, value: float) -> Optional[str]:
    """None for a coordinate within ±COORDINATE_LIMIT, else a message naming it."""
    if -COORDINATE_LIMIT <= value <= COORDINATE_LIMIT:  # NaN fails
        return None
    return f"{name} {value!r} lies beyond the coordinate limit of ±{COORDINATE_LIMIT:g} m"


def point_beyond_limit(x: float, y: float) -> Optional[str]:
    return beyond_coordinate_limit("x", x) or beyond_coordinate_limit("y", y)


def finite_number(value: object) -> Optional[float]:
    """The float of a number read from JSON or YAML: an int or a float,
    not a bool, whose float is finite.  None for anything else, such as
    text, null, NaN or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


class Point2D(Record, frozen=True):
    """A planar point in meters: a frozen record of two coordinates,
    equal and hashed by value.  Every coordinate a command reads is
    checked by its reader, finite and within the envelope, so the point
    checks nothing, and ``Record``'s generated ``__init__`` stores the two
    slots through their own descriptors."""

    __slots__ = _fields = ("x", "y")
    x: float
    y: float

    def __reduce__(self):
        return Point2D, (self.x, self.y)

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def equal_with_arrays(a: Record, b: object) -> bool:
    """Record equality that compares each field by ``np.array_equal``, so an
    array is compared whole; a class that takes it as ``__eq__`` is unhashable."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    import numpy as np

    return all(map(np.array_equal, a._values(a), b._values(b)))


class BathymetryGrid(Record, frozen=True):
    """Raster of water depths; row 0 is the top (northernmost) row.

    origin_x / origin_y are the lower-left corner of the raster, matching
    the ESRI ASCII convention.  ``load_ascii_grid`` checks the cell size,
    the value count and every depth before it builds one, so the record
    checks nothing.
    """

    __eq__ = equal_with_arrays

    __slots__ = _fields = (
        "origin_x", "origin_y", "cell_size", "n_rows", "n_cols", "depth", "nodata_value"
    )
    origin_x: float
    origin_y: float
    cell_size: float
    n_rows: int
    n_cols: int
    depth: np.ndarray  # shape (n_rows, n_cols), read-only
    nodata_value: float

    def __init__(
        self,
        origin_x: float,
        origin_y: float,
        cell_size: float,
        n_rows: int,
        n_cols: int,
        depth: np.ndarray,
        nodata_value: float,
    ) -> None:
        import numpy as np

        arr = np.asarray(depth, dtype=float).reshape(n_rows, n_cols).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "origin_x", origin_x)
        object.__setattr__(self, "origin_y", origin_y)
        object.__setattr__(self, "cell_size", cell_size)
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "depth", arr)
        object.__setattr__(self, "nodata_value", nodata_value)

    @property
    def valid_mask(self) -> np.ndarray:
        return self.depth != self.nodata_value

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Center coordinates of every cell as (xs, ys), shape (n_rows, n_cols)."""
        import numpy as np

        cols = np.arange(self.n_cols)
        rows = np.arange(self.n_rows)
        xs = self.origin_x + (cols + 0.5) * self.cell_size
        ys = self.origin_y + (self.n_rows - rows - 0.5) * self.cell_size
        return np.broadcast_to(xs, (self.n_rows, self.n_cols)), np.broadcast_to(
            ys[:, None], (self.n_rows, self.n_cols)
        )


class MissionPolygon(Record, frozen=True):
    """Simple (non-self-intersecting) polygon, implicitly closed."""

    __slots__ = _fields = ("vertices",)
    vertices: tuple[Point2D, ...]

    def __init__(self, vertices: Sequence[Point2D]) -> None:
        verts = tuple(vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(verts)}")
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            if a.x == b.x and a.y == b.y:
                raise ValueError(f"consecutive duplicate vertex at index {i}")
        for i in range(n):
            for j in range(i + 1, n):
                # skip edges sharing a vertex
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _segments_cross(verts[i], verts[(i + 1) % n], verts[j], verts[(j + 1) % n]):
                    raise ValueError(f"edges {i} and {j} intersect")


def _segments_cross(p1: Point2D, p2: Point2D, q1: Point2D, q2: Point2D) -> bool:
    def orient(a, b, c):
        v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        return 0 if v == 0 else (1 if v > 0 else -1)

    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True

    def on_seg(a, b, c):
        return (
            orient(a, b, c) == 0
            and min(a.x, b.x) <= c.x <= max(a.x, b.x)
            and min(a.y, b.y) <= c.y <= max(a.y, b.y)
        )

    return on_seg(p1, p2, q1) or on_seg(p1, p2, q2) or on_seg(q1, q2, p1) or on_seg(q1, q2, p2)


def cells_in_polygon(grid: BathymetryGrid, poly: MissionPolygon) -> np.ndarray:
    """Boolean mask over grid cells whose centers lie inside poly.

    Even-odd ray casting; boundary points count as inside.  Its scalar
    reference, which it must agree with cell for cell, is the per-point
    test in ``tests/test_geo.py``.  Cell centers form a lattice, so the
    work goes by row and edge: an edge that straddles a row's center
    crosses it at x_cross, and the cells left of x_cross, a prefix of the
    sorted column centers that searchsorted finds, flip parity; the flips
    are taken as XOR toggles, accumulated along each row.  The boundary test
    runs only on the rows and columns inside each edge's bounding box.
    """
    import numpy as np

    xs, ys = grid.cell_centers()
    x = xs[0]  # column centers, ascending
    y = ys[:, 0]  # row centers, descending
    # flipping the prefix [0, k) of a row toggles its columns 0 and k
    toggles = np.zeros((grid.n_rows, grid.n_cols + 1), dtype=bool)
    boundary = np.zeros((grid.n_rows, grid.n_cols), dtype=bool)
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        # x and y are monotone, so each test holds on one run of indices
        rows = np.flatnonzero((y >= min(a.y, b.y)) & (y <= max(a.y, b.y)))
        cols = np.flatnonzero((x >= min(a.x, b.x)) & (x <= max(a.x, b.x)))
        if len(rows) and len(cols):
            r, c = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
            cross = (b.x - a.x) * (y[r, None] - a.y) - (b.y - a.y) * (x[c] - a.x)
            boundary[r, c] |= cross == 0
        if a.y != b.y:
            rows = np.flatnonzero((a.y > y) != (b.y > y))
            x_cross = a.x + (y[rows] - a.y) * (b.x - a.x) / (b.y - a.y)
            toggles[rows, 0] ^= True
            toggles[rows, np.searchsorted(x, x_cross, side="left")] ^= True
    inside = np.logical_xor.accumulate(toggles[:, :-1], axis=1)
    return inside | boundary


# ---------------------------------------------------------------------------
# ESRI ASCII grid I/O
# ---------------------------------------------------------------------------

def load_ascii_grid(text: str) -> BathymetryGrid:
    """Parse an ESRI ASCII grid (ncols/nrows/xllcorner/yllcorner/cellsize/
    NODATA_value header, then row-major values, top row first).

    Values are separated by any whitespace, rows may wrap across lines at
    any width, and ``#`` is a value (a bad one), not a comment. The values
    are read in bulk by numpy's text reader, which converts each token with
    the routine float() uses. When that read refuses the text or finds a
    value out of range, they are read again one token at a time: that loop
    raises at the first bad token in file order, naming it and its line,
    or accepts what float() takes and numpy does not, such as rows of
    uneven width, ``1_0`` and non-ASCII digits.
    """
    header: dict[str, float] = {}
    line_of: dict[str, int] = {}
    lines = text.splitlines()
    body_line = 0
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(header) < len(_HEADER_KEYS):
            key = tokens[0].lower()
            if key not in _HEADER_KEYS:
                raise GridFormatError(
                    f"unexpected header key {tokens[0]!r} (expected one of "
                    f"{', '.join(_HEADER_KEYS)})",
                    line_no,
                )
            if len(tokens) != 2:
                raise GridFormatError(f"header line needs exactly one value, got {tokens[1:]}", line_no)
            try:
                value = float(tokens[1])
            except ValueError:
                raise GridFormatError(f"non-numeric header value {tokens[1]!r}", line_no) from None
            if not math.isfinite(value):
                raise GridFormatError(f"non-finite header value {tokens[1]!r}", line_no)
            if key in ("ncols", "nrows") and not (value > 0 and value.is_integer()):
                raise GridFormatError(f"{key} must be a positive integer, got {tokens[1]!r}", line_no)
            if key == "cellsize":
                least, most = CELLSIZE_LIMITS
                if not least <= value <= most:
                    raise GridFormatError(
                        f"cellsize must lie in [{least:g}, {most:g}] m, got {tokens[1]!r}", line_no
                    )
            header[key] = value
            line_of[key] = line_no
        else:  # the first data line
            body_line = line_no
            break
    body = lines[body_line - 1 :] if body_line else []
    nodata = header.get("nodata_value")
    values = _read_values_in_bulk(body, nodata) if body else None
    if values is None:
        values = _read_values_token_by_token(body, body_line, nodata)
    last_line = len(lines) or 1
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise GridFormatError(f"missing header keys: {', '.join(missing)}", last_line)
    n_cols = int(header["ncols"])
    n_rows = int(header["nrows"])
    size = header["cellsize"]
    # both corners, the far one at the line of the count that puts it there
    for corner, count, n in (("xllcorner", "ncols", n_cols), ("yllcorner", "nrows", n_rows)):
        near, far = header[corner], header[corner] + n * size
        fault = beyond_coordinate_limit(corner, near)
        if fault:
            raise GridFormatError(fault, line_of[corner])
        fault = beyond_coordinate_limit(f"{corner} + {count} × cellsize", far)
        if fault:
            raise GridFormatError(fault, line_of[count])
    expected = n_rows * n_cols
    if len(values) != expected:
        raise GridFormatError(
            f"expected {expected} grid values ({n_rows}x{n_cols}), got {len(values)}",
            last_line,
        )
    return BathymetryGrid(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_size=header["cellsize"],
        n_rows=n_rows,
        n_cols=n_cols,
        depth=values,
        nodata_value=header["nodata_value"],
    )


def _read_values_in_bulk(lines: list[str], nodata: float) -> np.ndarray | None:
    """The values of the grid's data lines as one flat array, or None when
    numpy's reader refuses them or a value is neither a finite depth >= 0
    nor nodata."""
    import numpy as np

    try:
        values = np.loadtxt(lines, dtype=float, comments=None).ravel()
    except ValueError:
        return None
    if not ((values >= 0) & (values < math.inf) | (values == nodata)).all():
        return None
    return values


def _read_values_token_by_token(lines: list[str], first_line: int, nodata: float | None):
    """The values of the grid's data lines, numbered from first_line, in a
    float array; raises GridFormatError at the first bad token."""
    from array import array

    values = array("d")  # no float object per cell; BathymetryGrid reads the buffer
    for line_no, raw in enumerate(lines, start=first_line):
        for tok in raw.split():
            try:
                value = float(tok)
            except ValueError:
                raise GridFormatError(f"non-numeric grid value {tok!r}", line_no) from None
            # one comparison passes every finite, non-negative depth
            if not 0.0 <= value < math.inf:
                if not math.isfinite(value):
                    raise GridFormatError(f"non-finite grid value {tok!r}", line_no)
                if value != nodata:
                    raise GridFormatError(f"negative depth {tok!r} in a non-nodata cell", line_no)
            values.append(value)
    return values


# ---------------------------------------------------------------------------
# GeoJSON polygon input
# ---------------------------------------------------------------------------

def polygon_from_geojson(text: str) -> MissionPolygon:
    """Read a GeoJSON Polygon (bare geometry, Feature, or single-feature
    FeatureCollection). Only the exterior ring is accepted; holes are an error."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GeoJsonError(f"not valid JSON: {exc}") from None
    geom = obj if isinstance(obj, dict) else {}
    if geom.get("type") == "FeatureCollection":
        feats = geom.get("features")
        if not isinstance(feats, list) or len(feats) != 1:
            raise GeoJsonError("expected a features list with exactly one feature")
        geom = feats[0] if isinstance(feats[0], dict) else {}
    if geom.get("type") == "Feature":
        geom = geom.get("geometry")
        geom = geom if isinstance(geom, dict) else {}
    if geom.get("type") != "Polygon":
        raise GeoJsonError(f"expected a Polygon geometry, got {shown(geom.get('type'))}")
    rings = geom.get("coordinates")
    if not isinstance(rings, list) or not rings:
        raise GeoJsonError("polygon has no rings")
    if len(rings) > 1:
        raise GeoJsonError(f"polygon has {len(rings) - 1} hole(s); holes are not supported")
    ring = rings[0]
    if not isinstance(ring, list):
        raise GeoJsonError("bad ring coordinates: the ring is not a list of positions")
    if ring and ring[0] == ring[-1]:
        ring = ring[:-1]
    verts = []
    for i, position in enumerate(ring):
        if not isinstance(position, list):
            raise GeoJsonError(f"bad ring coordinates: vertex {i} is not a position")
        if len(position) != 2:
            raise GeoJsonError(
                f"bad ring coordinates: vertex {i} has {len(position)} numbers, expected 2"
            )
        x, y = map(finite_number, position)
        if x is None or y is None:
            raise GeoJsonError(
                f"bad ring coordinates: vertex {i} must be two finite numbers,"
                f" got {shown(position)}"
            )
        fault = point_beyond_limit(x, y)
        if fault:
            raise GeoJsonError(f"bad ring coordinates: vertex {i} {fault}")
        verts.append(Point2D(x, y))
    try:
        return MissionPolygon(tuple(verts))
    except ValueError as exc:
        raise GeoJsonError(str(exc)) from None
