"""``tracks.geojson`` is written by a text writer, not by ``json.dumps``.

The writer must give exactly the bytes ``json.dumps(indent=2,
sort_keys=True)`` gives for the same FeatureCollection, each ``Point2D``
written as ``[x, y]``, whichever objects the tracks share.
"""

import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from uuvnav.geo import Point2D
from uuvnav.sim.runner import write_tracks_geojson

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

ROLES = ("true", "estimated")


def reference_collection(tracks):
    """The FeatureCollection that ``tracks.geojson`` has always held."""
    features = []
    for uuv_id in sorted(tracks):
        for role in ROLES:
            features.append(
                {
                    "type": "Feature",
                    "properties": {"id": uuv_id, "role": role},
                    "geometry": {
                        "type": "LineString",
                        "coordinates": [[p.x, p.y] for p in tracks[uuv_id][role]],
                    },
                }
            )
    return {"type": "FeatureCollection", "features": features}


def written(tracks):
    out = io.StringIO()
    write_tracks_geojson(tracks, out)
    return out.getvalue()


# ids that json must escape: quotes, backslashes, control and non-ASCII
ids = st.text(alphabet='u1"\\\n\t\x00/é \U0001f30a', min_size=1, max_size=6) | st.text(
    max_size=6
)
coordinates = (
    st.sampled_from([0.0, -0.0, 5e-324, -2.225e-308, 1e300, -1e300, 3.0, -42.0, 1e16, 0.1])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([3, -42, 0, 10**16])
)
points = st.builds(Point2D, coordinates, coordinates)


def respelled(c, draw):
    """``c``, or an equal number that json spells differently: an int for
    an integral float, -0.0 for 0.0 and 0.0 for -0.0."""
    if not draw(st.booleans()):
        return c
    if c == 0:
        return -float(c)
    if isinstance(c, int):
        return float(c)
    return int(c) if c.is_integer() else c


def copy_of(p, draw):
    """A distinct ``Point2D`` equal to ``p``, perhaps spelled differently."""
    return Point2D(respelled(p.x, draw), respelled(p.y, draw))


@st.composite
def tracks_of_objects(draw, pool):
    """A track drawn from ``pool``: objects repeated in a row and apart,
    and distinct copies equal to a pool object, in a row or not."""
    track = []
    for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=6)):
        p = pool[i]
        if draw(st.integers(0, 3)) == 0:
            p = copy_of(p, draw)
        track.extend([p] * draw(st.integers(1, 3)))
    return track


@st.composite
def vehicle_tracks(draw):
    """A vehicle's two tracks, as the simulator logs them and beyond: an
    estimated track that shares all, some or none of the true track's
    objects, or one drawn apart from it."""
    pool = draw(st.lists(points, min_size=1, max_size=4))
    true = draw(tracks_of_objects(pool))
    kind = draw(st.sampled_from(["the same list", "all", "some", "none", "apart"]))
    if kind == "the same list":
        estimated = true
    elif kind == "all":
        estimated = list(true)
    elif kind == "some":
        estimated = [p if draw(st.booleans()) else copy_of(p, draw) for p in true]
    elif kind == "none":
        estimated = [copy_of(p, draw) for p in true]
    else:
        estimated = draw(tracks_of_objects(pool))
    return {"true": true, "estimated": estimated}


fleets = st.dictionaries(ids, vehicle_tracks(), min_size=1, max_size=3)

A, B = Point2D(2.5, -4.0), Point2D(-0.0, 5e-324)


@PROPERTY
@given(fleets)
@example({'u"1\\': {"true": [], "estimated": [B]}})
@example({"uuv1": {"true": [Point2D(1e300, -1e300)], "estimated": [Point2D(2, -7.0), A]}})
# equal objects in a row that spell differently, equal distinct objects
# in a row, and one object repeated apart, in both roles
@example(
    {
        "uuv1": {
            role: [
                Point2D(0.0, 5.0),
                Point2D(-0.0, 5.0),
                Point2D(3, 1.5),
                Point2D(3.0, 1.5),
                A,
                Point2D(2.5, -4.0),
                B,
                A,
                A,
            ]
            for role in ROLES
        }
    }
)
# estimated tracks that share all, some and none of the true track's
# objects, the copies spelled differently
@example(
    {
        "uuv1": {
            "true": [Point2D(3.0, -0.0), Point2D(0.0, 2.0), Point2D(1e16, 5.5)],
            "estimated": [Point2D(3, 0.0), Point2D(-0.0, 2), Point2D(10**16, 5.5)],
        },
        "uuv2": {"true": [A, A, B], "estimated": [A, A, B]},
        "uuv3": {"true": [A, B, B], "estimated": [A, Point2D(-0.0, 5e-324), B]},
        "uuv4": {"true": [A, B], "estimated": [A, B, B]},
    }
)
def test_writer_matches_json_dumps_byte_for_byte(tracks):
    expected = json.dumps(reference_collection(tracks), indent=2, sort_keys=True) + "\n"
    assert written(tracks) == expected


def test_no_tracks_is_an_empty_collection():
    assert written({}) == json.dumps(reference_collection({}), indent=2, sort_keys=True) + "\n"
