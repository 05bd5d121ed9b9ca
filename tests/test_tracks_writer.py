"""``tracks.geojson`` is written by a text writer, not by ``json.dumps``.

The writer must give exactly the bytes ``json.dumps(indent=2,
sort_keys=True)`` gives for the same FeatureCollection, and must refuse
the non-finite coordinates json would spell ``NaN`` or ``Infinity``.
"""

import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uuvnav.errors import SimulationError
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
                    "geometry": {"type": "LineString", "coordinates": tracks[uuv_id][role]},
                }
            )
    return {"type": "FeatureCollection", "features": features}


def written(tracks):
    out = io.StringIO()
    write_tracks_geojson(tracks, out)
    return out.getvalue()


# ids that json must escape: quotes, backslashes, control and non-ASCII
ids = st.text(alphabet='u1"\\\n\t\x00/é \U0001f30a', min_size=1, max_size=6) | st.text(
    max_size=6
)
coordinates = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.225e-308, 1e300, -1e300, 3.0, -42.0, 1e16, 0.1]
) | st.floats(allow_nan=False, allow_infinity=False)
points = st.lists(coordinates, min_size=2, max_size=2)
track = st.lists(points, max_size=4)


def respelled(c, draw):
    """``c``, or an equal number that json spells differently: an int for
    an integral float, -0.0 for 0.0 and 0.0 for -0.0."""
    if not draw(st.booleans()):
        return c
    if c == 0:
        return -c
    return int(c) if c.is_integer() else c


@st.composite
def shared_tracks(draw):
    """Tracks as the simulator logs them: a point list repeated in a row
    for a vehicle that has not moved, and an estimated track made of the
    true track's own point lists, or of equal copies spelled differently."""
    true = [p for p in draw(track) for _ in range(draw(st.integers(1, 3)))]
    kind = draw(st.sampled_from(["the same list", "the same points", "equal copies"]))
    if kind == "the same list":
        estimated = true
    elif kind == "the same points":
        estimated = list(true)
    else:
        estimated = [[respelled(c, draw) for c in p] for p in true]
    return {"true": true, "estimated": estimated}


SHARED = [[2.5, -4.0], [2.5, -4.0]]

fleets = st.dictionaries(
    ids,
    st.fixed_dictionaries({role: track for role in ROLES}) | shared_tracks(),
    min_size=1,
    max_size=3,
)


@PROPERTY
@given(fleets)
@example({'u"1\\': {"true": [], "estimated": [[-0.0, 5e-324]]}})
@example({"uuv1": {"true": [[1e300, -1e300]], "estimated": [[2.0, -7.0], [0.1, 1e16]]}})
# equal points that spell differently, and a repeat, in both roles: a
# vehicle's points are spelled once only when both are non-zero floats
@example(
    {
        "uuv1": {
            role: [[0.0, 5.0], [-0.0, 5.0], [3, 1.5], [3.0, 1.5], [2.5, -4.0], [2.5, -4.0]]
            for role in ROLES
        }
    }
)
# an estimated track of equal copies that spell differently, and one of
# the true track's own points
@example(
    {
        "uuv1": {
            "true": [[3.0, -0.0], [0.0, 2.0], [1e16, 5.5]],
            "estimated": [[3, 0.0], [-0.0, 2], [10**16, 5.5]],
        },
        "uuv2": {"true": SHARED, "estimated": list(SHARED)},
    }
)
def test_writer_matches_json_dumps_byte_for_byte(tracks):
    expected = json.dumps(reference_collection(tracks), indent=2, sort_keys=True) + "\n"
    assert written(tracks) == expected


def test_no_tracks_is_an_empty_collection():
    assert written({}) == json.dumps(reference_collection({}), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("role", ROLES)
def test_non_finite_coordinate_is_refused_naming_vehicle_and_role(bad, role):
    tracks = {
        "uuv1": {"true": [[0.0, 1.0]], "estimated": [[0.0, 1.0]]},
        "uuv2": {"true": [[0.0, 1.0]], "estimated": [[0.0, 1.0]]},
    }
    tracks["uuv2"][role] = [[0.0, 1.0], [2.0, bad]]
    with pytest.raises(SimulationError, match=f"^uuv2: non-finite position in its {role} track"):
        written(tracks)
