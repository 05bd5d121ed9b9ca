import copy
import json
import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import uuvnav.geo as geo_module
from uuvnav.errors import GeoJsonError, GridFormatError
from uuvnav.geo import (
    _HEADER_KEYS,
    BathymetryGrid,
    MissionPolygon,
    Point2D,
    cells_in_polygon,
    load_ascii_grid,
    polygon_from_geojson,
)


def square(x0, y0, x1, y1):
    return MissionPolygon(
        (Point2D(x0, y0), Point2D(x1, y0), Point2D(x1, y1), Point2D(x0, y1))
    )


def flat_grid(n_rows, n_cols, depth, cell_size=100.0, origin=(0.0, 0.0), nodata=-9999.0):
    return BathymetryGrid(
        origin_x=origin[0],
        origin_y=origin[1],
        cell_size=cell_size,
        n_rows=n_rows,
        n_cols=n_cols,
        depth=np.full((n_rows, n_cols), float(depth)),
        nodata_value=nodata,
    )


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


# Point2D takes Record's generated __init__: these pin the
# frozen-dataclass semantics it keeps.


@pytest.mark.parametrize("axis", ["x", "y"])
def test_point_fields_cannot_be_assigned_or_deleted(axis):
    point = Point2D(1.5, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(point, axis, 3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(point, axis)
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.z = 3.0
    assert (point.x, point.y) == (1.5, 2.0)


@pytest.mark.parametrize(
    "a, b",
    [((1.5, 2.0), (1.5, 2.0)), ((0.0, -0.0), (-0.0, 0.0)), ((3, -42), (3.0, -42.0))],
)
def test_equal_coordinates_give_equal_points_with_equal_hashes(a, b):
    p, q = Point2D(*a), Point2D(*b)
    assert p is not q
    assert p == q and not p != q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_points_differ_from_other_types_and_other_points():
    p = Point2D(1.5, 2.0)
    assert p != Point2D(1.5, 2.5) and p != Point2D(2.0, 1.5)
    assert p != (1.5, 2.0)
    assert p.__eq__((1.5, 2.0)) is NotImplemented


def test_point_repr_spells_each_coordinate():
    assert repr(Point2D(1.5, -0.0)) == "Point2D(x=1.5, y=-0.0)"
    assert repr(Point2D(x=1.5, y=2.0)) == "Point2D(x=1.5, y=2.0)"
    assert repr(Point2D(3, 5e-324)) == "Point2D(x=3, y=5e-324)"


def test_point_copies_and_pickles_as_itself():
    p = Point2D(1.5, -0.0)
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(q) is Point2D and repr(q) == repr(p)


def test_point_distance_is_hypot_of_the_differences():
    p, q = Point2D(1.0, 2.0), Point2D(4.0, 6.0)
    assert p.distance_to(q) == q.distance_to(p) == 5.0
    assert p.distance_to(p) == 0.0
    a, b = Point2D(0.1, -1e300), Point2D(-0.2, 1e300)
    assert a.distance_to(b) == math.hypot(0.1 - -0.2, -1e300 - 1e300) == 2e300


# ---------------------------------------------------------------------------
# ASCII grid parsing
# ---------------------------------------------------------------------------

GRID_2X2 = """\
ncols 2
nrows 2
xllcorner 0
yllcorner 0
cellsize 10
NODATA_value -9999
1 2
3 4
"""


def test_parse_2x2_layout():
    g = load_ascii_grid(GRID_2X2)
    assert g.n_rows == 2 and g.n_cols == 2
    # first data row is the top row
    assert g.depth[0, 0] == 1 and g.depth[0, 1] == 2
    assert g.depth[1, 0] == 3 and g.depth[1, 1] == 4
    assert g.cell_size == 10


def test_parse_nodata_cells_marked_invalid():
    text = GRID_2X2.replace("3 4", "-9999 4")
    g = load_ascii_grid(text)
    assert not g.valid_mask[1, 0]
    assert g.valid_mask[1, 1]


@pytest.mark.parametrize(
    "body",
    [
        "1 2 3\n40 500 6000\n",
        "1e2 2.5E-3 7E+1\n0e0 5e-324 1.7976931348623157e308\n",
        "-9999 4 -9999.0\n-9.999e3 -0 0.1000000000000000055511151231257827\n",
    ],
    ids=["integer", "exponent", "nodata"],
)
def test_parsed_depths_are_the_floats_of_the_tokens_bit_for_bit(body):
    header = "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -9999\n"
    grid = load_ascii_grid(header + body)
    assert grid.depth.tobytes() == np.array([float(t) for t in body.split()]).tobytes()


def test_parse_value_count_mismatch_names_expected():
    text = GRID_2X2.replace("3 4\n", "")
    with pytest.raises(GridFormatError) as exc:
        load_ascii_grid(text)
    assert "4" in str(exc.value)


def test_parse_non_numeric_value_reports_line():
    text = GRID_2X2.replace("3 4", "3 oops")
    with pytest.raises(GridFormatError) as exc:
        load_ascii_grid(text)
    assert "line 8" in str(exc.value)


def test_parse_missing_header_key():
    text = GRID_2X2.replace("cellsize 10\n", "")
    with pytest.raises(GridFormatError) as exc:
        load_ascii_grid(text)
    assert "cellsize" in str(exc.value)


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("ncols 2", "ncols inf", 1, "non-finite header value 'inf'"),
        ("ncols 2", "ncols nan", 1, "non-finite header value 'nan'"),
        ("ncols 2", "ncols 2.5", 1, "ncols must be a positive integer, got '2.5'"),
        ("nrows 2", "nrows 0", 2, "nrows must be a positive integer, got '0'"),
        ("xllcorner 0", "xllcorner nan", 3, "non-finite header value 'nan'"),
        ("cellsize 10", "cellsize -inf", 5, "non-finite header value '-inf'"),
        ("NODATA_value -9999", "NODATA_value nan", 6, "non-finite header value 'nan'"),
        ("3 4", "3 nan", 8, "non-finite grid value 'nan'"),
        ("1 2", "inf 2", 7, "non-finite grid value 'inf'"),
        ("cellsize 10", "cellsize -5", 5, "cellsize must lie in [0.001, 100000] m, got '-5'"),
        ("cellsize 10", "cellsize 0", 5, "cellsize must lie in [0.001, 100000] m, got '0'"),
        ("cellsize 10", "cellsize 1e200", 5,
         "cellsize must lie in [0.001, 100000] m, got '1e200'"),
        ("ncols 2", "ncols 1e308", 1,
         "xllcorner + ncols × cellsize inf lies beyond the coordinate limit of ±1e+07 m"),
        ("3 4", "3 -4", 8, "negative depth '-4' in a non-nodata cell"),
        ("1 2", "-1 2", 7, "negative depth '-1' in a non-nodata cell"),
        ("cellsize 10", "cellsize 0.0009", 5,
         "cellsize must lie in [0.001, 100000] m, got '0.0009'"),
        ("cellsize 10", "cellsize 100001", 5,
         "cellsize must lie in [0.001, 100000] m, got '100001'"),
        ("xllcorner 0", "xllcorner -1.7e308", 3,
         "xllcorner -1.7e+308 lies beyond the coordinate limit of ±1e+07 m"),
        ("yllcorner 0", "yllcorner 10000000.5", 4,
         "yllcorner 10000000.5 lies beyond the coordinate limit of ±1e+07 m"),
        ("yllcorner 0", "yllcorner 9999990", 2,
         "yllcorner + nrows × cellsize 10000010.0 lies beyond the coordinate limit of ±1e+07 m"),
    ],
    ids=[
        "inf-ncols",
        "nan-ncols",
        "fractional-ncols",
        "zero-nrows",
        "nan-xllcorner",
        "inf-cellsize",
        "nan-nodata",
        "nan-depth",
        "inf-depth",
        "negative-cellsize",
        "zero-cellsize",
        "cell-area-overflows",
        "grid-extent-overflows",
        "negative-depth-line-8",
        "negative-depth-line-7",
        "cellsize-below-its-limit",
        "cellsize-above-its-limit",
        "corner-near-the-float-limit",
        "corner-beyond-the-coordinate-limit",
        "far-corner-beyond-the-coordinate-limit",
    ],
)
def test_parse_rejects_non_finite_and_fractional_values(old, new, line, message):
    with pytest.raises(GridFormatError) as exc:
        load_ascii_grid(GRID_2X2.replace(old, new))
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_grid_with_its_corners_on_the_coordinate_limit_loads():
    text = GRID_2X2.replace("xllcorner 0", "xllcorner -1e7")
    text = text.replace("yllcorner 0", "yllcorner 9999980")
    g = load_ascii_grid(text)
    assert (g.origin_x, g.origin_y + g.n_rows * g.cell_size) == (-1e7, 1e7)


def test_negative_depth_rejected():
    text = GRID_2X2.replace("3 4", "-3 4")
    with pytest.raises(GridFormatError):
        load_ascii_grid(text)


def write_ascii_grid(grid: BathymetryGrid) -> str:
    """Serialize back to ESRI ASCII; load_ascii_grid round-trips exactly."""
    out = [
        f"ncols {grid.n_cols}",
        f"nrows {grid.n_rows}",
        f"xllcorner {grid.origin_x!r}",
        f"yllcorner {grid.origin_y!r}",
        f"cellsize {grid.cell_size!r}",
        f"NODATA_value {grid.nodata_value!r}",
    ]
    for row in grid.depth:
        out.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(out) + "\n"


def test_roundtrip_exact():
    rng = np.random.default_rng(7)
    g = BathymetryGrid(
        origin_x=12.5,
        origin_y=-3.25,
        cell_size=7.5,
        n_rows=5,
        n_cols=4,
        depth=rng.uniform(0, 50, size=(5, 4)),
        nodata_value=-9999.0,
    )
    g2 = load_ascii_grid(write_ascii_grid(g))
    assert g2.origin_x == g.origin_x and g2.origin_y == g.origin_y
    assert g2.cell_size == g.cell_size
    assert np.array_equal(g2.depth, g.depth)


def test_grid_is_immutable():
    g = flat_grid(2, 2, 10.0)
    with pytest.raises(ValueError):
        g.depth[0, 0] = 99.0


# The reader as it was before the bulk read: one float() per token. It is
# the reference that load_ascii_grid must agree with, value for value and
# error for error; the package does not import it.

def reference_load_ascii_grid(text: str) -> BathymetryGrid:
    """Parse an ESRI ASCII grid (ncols/nrows/xllcorner/yllcorner/cellsize/
    NODATA_value header, then row-major values, top row first)."""
    from array import array

    header: dict[str, float] = {}
    values = array("d")  # no float object per cell; BathymetryGrid reads the buffer
    lines = text.splitlines()
    line_of: dict[str, int] = {}
    line_no = 0
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
            if key == "cellsize" and not 1e-3 <= value <= 1e5:
                raise GridFormatError(
                    f"cellsize must lie in [0.001, 100000] m, got {tokens[1]!r}", line_no
                )
            header[key] = value
            line_of[key] = line_no
        else:
            for tok in tokens:
                try:
                    value = float(tok)
                except ValueError:
                    raise GridFormatError(f"non-numeric grid value {tok!r}", line_no) from None
                # one comparison passes every finite, non-negative depth
                if not 0.0 <= value < math.inf:
                    if not math.isfinite(value):
                        raise GridFormatError(f"non-finite grid value {tok!r}", line_no)
                    if value != header["nodata_value"]:
                        raise GridFormatError(f"negative depth {tok!r} in a non-nodata cell", line_no)
                values.append(value)
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise GridFormatError(f"missing header keys: {', '.join(missing)}", line_no or 1)
    n_cols = int(header["ncols"])
    n_rows = int(header["nrows"])
    size = header["cellsize"]
    for corner, count, n in (("xllcorner", "ncols", n_cols), ("yllcorner", "nrows", n_rows)):
        for name, value, line in (
            (corner, header[corner], line_of[corner]),
            (f"{corner} + {count} × cellsize", header[corner] + n * size, line_of[count]),
        ):
            if not -1e7 <= value <= 1e7:
                raise GridFormatError(
                    f"{name} {value!r} lies beyond the coordinate limit of ±1e+07 m", line
                )
    expected = n_rows * n_cols
    if len(values) != expected:
        raise GridFormatError(
            f"expected {expected} grid values ({n_rows}x{n_cols}), got {len(values)}",
            line_no or 1,
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


def grid_outcome(load, text):
    """The header fields and depth bytes of the grid read from text, or
    the text and line of the GridFormatError that reading it raises."""
    try:
        g = load(text)
    except GridFormatError as exc:
        return "error", str(exc), exc.line
    fields = (g.origin_x, g.origin_y, g.cell_size, g.n_rows, g.n_cols, g.nodata_value)
    return "grid", fields, g.depth.shape, g.depth.tobytes()


# tokens numpy's reader reads as float() does, including zeros and nodata
PLAIN_VALUES = ["0", "-0", "0.0", "30", "1.5", "1e2", "+7", ".5", "1.", "007", "5e-324"]
# tokens float() takes and numpy's reader refuses
ODD_VALUES = ["1_0", "\u0661\u0662"]  # the second is "12" in Arabic-Indic digits
BAD_VALUES = ["#", "deep", "nan", "inf", "-inf", "1e999", "-3", "-0.5"]
SEPARATORS = ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000"]


@st.composite
def grid_texts(draw):
    """An ESRI grid text and whether it is plain: one row per line, values
    from PLAIN_VALUES, spaces and tabs between them, no fault. Others wrap
    rows at random widths, separate values by other whitespace, carry odd
    or bad tokens, one value too many or too few, or no values at all."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    nodata = draw(st.sampled_from(["-9999", "-3", "0", "7.5"]))
    lines = [f"ncols {n_cols}", f"nrows {n_rows}", "xllcorner 0", "yllcorner 0",
             "cellsize 10", f"NODATA_value {nodata}"]
    header_only = draw(st.integers(0, 19)) == 0
    odd = draw(st.booleans())
    pool = PLAIN_VALUES + [nodata] + (ODD_VALUES if odd else [])
    values = [] if header_only else draw(
        st.lists(st.sampled_from(pool), min_size=n_rows * n_cols, max_size=n_rows * n_cols)
    )
    wrap = draw(st.booleans())
    rows = []
    while values:
        width = draw(st.integers(1, len(values))) if wrap else n_cols
        rows.append(values[:width])
        values = values[width:]
    # one value too many or too few
    miscount = bool(rows) and draw(st.sampled_from([-1, 0, 0, 1]))
    if miscount == -1:
        rows[-1].pop()
    elif miscount == 1:
        rows[draw(st.integers(0, len(rows) - 1))].append(draw(st.sampled_from(PLAIN_VALUES)))
    # up to two bad tokens, each replacing a value or inserted at any place in
    # a row, its end included
    faults = draw(st.integers(0, 2)) if rows else 0
    for _ in range(faults):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row)))
        bad = draw(st.sampled_from(BAD_VALUES))
        if at < len(row) and draw(st.booleans()):
            row[at] = bad
        else:
            row.insert(at, bad)
    odd_space = draw(st.booleans())
    spaces = st.sampled_from([" ", " ", "  ", "\t"] + (SEPARATORS if odd_space else []))
    lines += ["".join(v + draw(spaces) for v in row[:-1]) + row[-1] if row else "" for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", " \t "])))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    plain = not (header_only or odd or wrap or miscount or faults or odd_space)
    return text, plain


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(grid_texts())
def test_grid_reader_matches_the_token_by_token_reference(case):
    text, plain = case
    token_loop = mock.patch.object(
        geo_module, "_read_values_token_by_token", wraps=geo_module._read_values_token_by_token
    )
    with token_loop as slow:
        got = grid_outcome(load_ascii_grid, text)
    assert got == grid_outcome(reference_load_ascii_grid, text)
    # a plain grid, zeros and nodata included, is read in bulk
    assert not (plain and slow.called)


def test_rows_wrapped_across_lines_give_the_same_grid():
    header = "ncols 3\nnrows 2\nxllcorner 5\nyllcorner -2\ncellsize 10\nNODATA_value -9999\n"
    one_row_per_line = grid_outcome(load_ascii_grid, header + "1 2.5 -9999\n0 4 5e-324\n")
    wrapped = grid_outcome(load_ascii_grid, header + "1\n2.5 -9999 0 4\n\n5e-324\n")
    assert wrapped[0] == "grid" and wrapped == one_row_per_line


# ---------------------------------------------------------------------------
# Point-in-polygon
# ---------------------------------------------------------------------------

def point_in_polygon(p: Point2D, poly: MissionPolygon) -> bool:
    """Even-odd ray-casting membership test; boundary points count as inside.

    The scalar reference that ``cells_in_polygon`` must agree with."""
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
        if (
            cross == 0
            and min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y)
        ):
            return True
    inside = False
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < x_cross:
                inside = not inside
    return inside


def test_pip_unit_square_cases():
    poly = square(0, 0, 1, 1)
    assert point_in_polygon(Point2D(0.5, 0.5), poly)
    assert not point_in_polygon(Point2D(1.5, 0.5), poly)
    # boundary counts as inside: edge midpoint and a vertex
    assert point_in_polygon(Point2D(1.0, 0.5), poly)
    assert point_in_polygon(Point2D(0.0, 0.0), poly)


def test_pip_concave_polygon():
    # L-shape: notch at the top right
    poly = MissionPolygon(
        (
            Point2D(0, 0),
            Point2D(4, 0),
            Point2D(4, 2),
            Point2D(2, 2),
            Point2D(2, 4),
            Point2D(0, 4),
        )
    )
    assert point_in_polygon(Point2D(1, 3), poly)
    assert not point_in_polygon(Point2D(3, 3), poly)
    assert point_in_polygon(Point2D(3, 1), poly)


def test_polygon_rejects_self_intersection():
    with pytest.raises(ValueError):
        MissionPolygon(
            (Point2D(0, 0), Point2D(2, 2), Point2D(2, 0), Point2D(0, 2))
        )


def test_polygon_rejects_too_few_vertices():
    with pytest.raises(ValueError):
        MissionPolygon((Point2D(0, 0), Point2D(1, 1)))


@st.composite
def grids_and_lattice_polygons(draw):
    """A small grid and a simple polygon whose vertices are cell centers of
    that lattice, some beyond the grid, so that cell centers fall on edges
    and vertices and edges run along rows."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cell = draw(st.sampled_from([1.0, 3.0, 0.1, 100.0]))
    grid = flat_grid(
        n_rows, n_cols, 5.0, cell_size=cell,
        origin=(draw(st.integers(-50, 50)) * 0.7, draw(st.integers(-50, 50)) * 0.3),
    )
    vertex = st.tuples(st.integers(-2, n_rows + 1), st.integers(-2, n_cols + 1))
    corners = [
        # the formula of BathymetryGrid.cell_centers, continued beyond the grid
        Point2D(
            grid.origin_x + (c + 0.5) * cell,
            grid.origin_y + (grid.n_rows - r - 0.5) * cell,
        )
        for r, c in draw(st.lists(vertex, min_size=3, max_size=7, unique=True))
    ]
    try:
        poly = MissionPolygon(tuple(corners))
    except ValueError:
        reject()  # collinear repeats or crossing edges
    return grid, poly


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grids_and_lattice_polygons())
@example(
    (
        flat_grid(12, 9, 5.0, cell_size=3.0, origin=(-4.0, 2.0)),
        MissionPolygon((Point2D(-2, 4), Point2D(20, 6), Point2D(15, 30), Point2D(1, 22))),
    )
)
def test_cells_in_polygon_matches_scalar_test(grid_and_poly):
    grid, poly = grid_and_poly
    mask = cells_in_polygon(grid, poly)
    assert mask.shape == (grid.n_rows, grid.n_cols)
    xs, ys = grid.cell_centers()
    for r in range(grid.n_rows):
        for c in range(grid.n_cols):
            assert mask[r, c] == point_in_polygon(Point2D(xs[r, c], ys[r, c]), poly), (r, c)


# ---------------------------------------------------------------------------
# Volume integration
# ---------------------------------------------------------------------------

def volume_under_polygon(grid: BathymetryGrid, poly: MissionPolygon) -> float:
    """Total water volume (m^3) of non-nodata cells whose centers lie in poly."""
    mask = cells_in_polygon(grid, poly) & grid.valid_mask
    if not mask.any():
        return 0.0
    return float(np.sum(grid.depth[mask]) * grid.cell_size**2)


def test_volume_flat_grid_full_cover():
    # 10x10 cells of 100 m at 10 m depth: 100 * 100*100 * 10 = 1.0e7 m^3
    g = flat_grid(10, 10, 10.0)
    poly = square(-1, -1, 1001, 1001)
    assert volume_under_polygon(g, poly) == pytest.approx(1.0e7)


def test_volume_disjoint_polygon_is_zero():
    g = flat_grid(10, 10, 10.0)
    poly = square(5000, 5000, 6000, 6000)
    assert volume_under_polygon(g, poly) == 0.0


def test_volume_two_cells():
    g = BathymetryGrid(
        origin_x=0.0,
        origin_y=0.0,
        cell_size=1.0,
        n_rows=1,
        n_cols=2,
        depth=np.array([[5.0, 15.0]]),
        nodata_value=-9999.0,
    )
    poly = square(-1, -1, 3, 2)
    assert volume_under_polygon(g, poly) == pytest.approx(20.0)


def test_volume_skips_nodata():
    depth = np.full((4, 4), 10.0)
    depth[1, 1] = -9999.0
    g = BathymetryGrid(
        origin_x=0.0,
        origin_y=0.0,
        cell_size=10.0,
        n_rows=4,
        n_cols=4,
        depth=depth,
        nodata_value=-9999.0,
    )
    poly = square(-1, -1, 41, 41)
    assert volume_under_polygon(g, poly) == pytest.approx(15 * 10.0 * 100.0)


def test_volume_additive_over_disjoint_split():
    rng = np.random.default_rng(3)
    g = BathymetryGrid(
        origin_x=0.0,
        origin_y=0.0,
        cell_size=10.0,
        n_rows=20,
        n_cols=20,
        depth=rng.uniform(1, 40, size=(20, 20)),
        nodata_value=-9999.0,
    )
    whole = square(-1, -1, 201, 201)
    # split on a cell edge so no center (x = 5, 15, ..., 195) sits on the cut
    left = square(-1, -1, 100, 201)
    right = square(100, -1, 201, 201)
    v = volume_under_polygon(g, whole)
    assert volume_under_polygon(g, left) + volume_under_polygon(g, right) == pytest.approx(v)


def test_volume_translation_equivariant():
    rng = np.random.default_rng(5)
    depth = rng.uniform(1, 30, size=(8, 8))
    g1 = BathymetryGrid(0.0, 0.0, 10.0, 8, 8, depth, -9999.0)
    g2 = BathymetryGrid(500.0, -300.0, 10.0, 8, 8, depth, -9999.0)
    p1 = square(12, 8, 61, 77)
    p2 = square(512, -292, 561, -223)
    assert volume_under_polygon(g1, p1) == pytest.approx(volume_under_polygon(g2, p2))


# ---------------------------------------------------------------------------
# GeoJSON input
# ---------------------------------------------------------------------------

def test_geojson_polygon_reads_exterior_ring():
    text = """{"type": "Polygon", "coordinates": [[[0,0],[10,0],[10,10],[0,10],[0,0]]]}"""
    poly = polygon_from_geojson(text)
    assert len(poly.vertices) == 4
    assert point_in_polygon(Point2D(5, 5), poly)


def test_geojson_feature_wrapper():
    text = (
        '{"type": "Feature", "properties": {}, "geometry": '
        '{"type": "Polygon", "coordinates": [[[0,0],[4,0],[4,4],[0,4],[0,0]]]}}'
    )
    poly = polygon_from_geojson(text)
    assert len(poly.vertices) == 4


def test_geojson_holes_rejected():
    text = (
        '{"type": "Polygon", "coordinates": ['
        "[[0,0],[10,0],[10,10],[0,10],[0,0]],"
        "[[2,2],[4,2],[4,4],[2,4],[2,2]]]}"
    )
    with pytest.raises(GeoJsonError) as exc:
        polygon_from_geojson(text)
    assert "hole" in str(exc.value)


def test_geojson_wrong_geometry_type():
    with pytest.raises(GeoJsonError):
        polygon_from_geojson('{"type": "Point", "coordinates": [0, 0]}')


def test_geojson_bad_json():
    with pytest.raises(GeoJsonError):
        polygon_from_geojson("{not json")


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"type": "FeatureCollection", "features": [5]}',
        '{"type": "FeatureCollection", "features": 5}',
        '{"type": "Feature", "geometry": 5}',
    ],
)
def test_geojson_non_object_parts_rejected(text):
    with pytest.raises(GeoJsonError):
        polygon_from_geojson(text)


def ring_text(*positions):
    ring = ",".join(positions)
    return f'{{"type": "Polygon", "coordinates": [[{ring}]]}}'


def test_geojson_text_coordinate_names_its_vertex():
    text = ring_text("[0, 0]", "[10, 0]", '["east", 10]', "[0, 10]", "[0, 0]")
    with pytest.raises(GeoJsonError) as exc:
        polygon_from_geojson(text)
    assert str(exc.value) == (
        "bad ring coordinates: vertex 2 must be two finite numbers, got ['east', 10]"
    )


# The reader is the only guard on an area's coordinates: Point2D takes
# what it is given.  JSON's NaN and Infinity literals and the text that
# spells one are each refused, in either slot, naming the vertex.
@pytest.mark.parametrize(
    "literal, value",
    [
        ("NaN", "nan"),
        ("Infinity", "inf"),
        ("-Infinity", "-inf"),
        ('"nan"', "'nan'"),
        ('"-inf"', "'-inf'"),
    ],
    ids=["NaN", "Infinity", "-Infinity", "text-nan", "text--inf"],
)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_geojson_non_finite_coordinate_names_its_vertex(axis, literal, value):
    position, shown = (f"[{literal}, 10]", f"[{value}, 10]") if axis == "x" else (
        f"[10, {literal}]", f"[10, {value}]"
    )
    text = ring_text("[0, 0]", "[10, 0]", position, "[0, 10]", "[0, 0]")
    with pytest.raises(GeoJsonError) as exc:
        polygon_from_geojson(text)
    assert str(exc.value) == (
        f"bad ring coordinates: vertex 2 must be two finite numbers, got {shown}"
    )


@pytest.mark.parametrize(
    "position, message",
    [
        ([1e200, 6500.0], "vertex 2 x 1e+200 lies beyond the coordinate limit of ±1e+07 m"),
        (
            [500.0, -10_000_000.5],
            "vertex 2 y -10000000.5 lies beyond the coordinate limit of ±1e+07 m",
        ),
    ],
)
def test_geojson_vertex_beyond_the_coordinate_limit_is_named(position, message):
    ring = [[500.0, 500.0], [6500.0, 500.0], position, [500.0, 6500.0], [500.0, 500.0]]
    with pytest.raises(GeoJsonError) as exc:
        polygon_from_geojson(json.dumps({"type": "Polygon", "coordinates": [ring]}))
    assert str(exc.value) == f"bad ring coordinates: {message}"


def test_geojson_square_on_the_coordinate_limit_loads():
    ring = [[-1e7, -1e7], [1e7, -1e7], [1e7, 1e7], [-1e7, 1e7]]
    poly = polygon_from_geojson(json.dumps({"type": "Polygon", "coordinates": [ring]}))
    assert [(v.x, v.y) for v in poly.vertices] == [tuple(p) for p in ring]


def test_geojson_three_number_position_names_its_vertex():
    text = ring_text("[0, 0]", "[10, 0, -5]", "[10, 10]", "[0, 10]", "[0, 0]")
    with pytest.raises(GeoJsonError) as exc:
        polygon_from_geojson(text)
    assert str(exc.value) == "bad ring coordinates: vertex 1 has 3 numbers, expected 2"


@pytest.mark.parametrize(
    "ring, message",
    [
        ('{"a": 1}', "bad ring coordinates: the ring is not a list of positions"),
        ('"abc"', "bad ring coordinates: the ring is not a list of positions"),
        ("[[0, 0], 5, [1, 1]]", "bad ring coordinates: vertex 1 is not a position"),
        ("[[0, 0], [1], [1, 1]]", "bad ring coordinates: vertex 1 has 1 numbers, expected 2"),
        (
            "[[0, 0], [1, null], [1, 1]]",
            "bad ring coordinates: vertex 1 must be two finite numbers, got [1, None]",
        ),
    ],
)
def test_geojson_malformed_ring_rejected_naming_the_vertex(ring, message):
    with pytest.raises(GeoJsonError) as exc:
        polygon_from_geojson(f'{{"type": "Polygon", "coordinates": [{ring}]}}')
    assert str(exc.value).startswith(message)
