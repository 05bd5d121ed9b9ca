"""``simulate`` writes, byte for byte, what its plain reference writes.

``sim_reference.py`` steps the same world without the simulator's
shortcuts: the block scan, the shared true-and-estimated point, the
``Detection`` record and the text writers.  Fleets of one to six
vehicles run on the bundled chart, moved so that a drawn beacon may sit
on the origin, which puts signed zeros into the tracks, or moved ``FAR``
into negative coordinates, past the bound of ``BeaconGrid`` (2**20
cells from the origin), where the simulator scans the whole chart.
"""

import io
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import sim_reference
from uuvnav.config import ScenarioConfig, UuvSpec
from uuvnav.geo import Point2D
from uuvnav.sim.runner import run_scenario, write_events_jsonl, write_tracks_geojson
from uuvnav.sim.world import BeaconGrid, BeaconState, WorldParams

REPO = Path(__file__).resolve().parent.parent
DOMAIN = REPO / "domains" / "uuv-nav.hddl"
CHART = json.loads((REPO / "scenarios" / "beacons.geojson").read_text())
BEACONS = {f["properties"]["id"]: f["geometry"]["coordinates"] for f in CHART["features"]}
IDS = sorted(BEACONS)
# the origin of a chart moved far into negative coordinates: about 4.3e9 m
# from it, against a grid bound of 2**20 cells of at most 2600 m
FAR = (2.0**32, 2.0**32)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

beacon_ids = st.sampled_from(IDS)
tasks = st.one_of(
    st.tuples(st.just("mission"), beacon_ids, beacon_ids),
    st.tuples(st.just("rendezvous")),
    st.tuples(st.sampled_from(["transit-leg", "navigate-to-beacon", "localize-at"]), beacon_ids),
)
# a start near a beacon, across a cell edge from it, or far from the chart
offsets = st.sampled_from([0.0, 40.0, -150.0, 1990.0, -1300.0]) | st.floats(-2500.0, 2500.0)
vehicles = st.tuples(
    beacon_ids | st.just("far"),
    offsets,
    offsets,
    st.booleans(),  # a zero coordinate of the start is -0.0
    st.lists(tasks, min_size=1, max_size=2),
)
worlds = st.fixed_dictionaries(
    {
        "tick": st.sampled_from([1.0, 0.5, 0.7]),
        "current": st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.2, -0.1)]),
        "uuv_speed": st.sampled_from([2.0, 9.0, 25.0]),
        "comm_range": st.sampled_from([2000.0, 900.0]),
        "pulse_period": st.sampled_from([10.0, 3.0]),
        "step_cap": st.sampled_from([300, 600]),
    }
)
# a beacon of its own period and range, so that the scan sees two of each
retuned = st.none() | st.tuples(
    beacon_ids, st.sampled_from([7.0, 2.5]), st.sampled_from([1200.0, 2600.0])
)


def texts_of_both(tmp, origin, world, silenced, retune, fleet):
    """The runner's and the reference's three output texts for one
    scenario, written under ``tmp``."""
    ox, oy = FAR if origin == "far" else BEACONS[origin] if origin else (0.0, 0.0)
    features = []
    for feature in CHART["features"]:
        feature = json.loads(json.dumps(feature))
        x, y = feature["geometry"]["coordinates"]
        feature["geometry"]["coordinates"] = [x - ox, y - oy]
        if retune and feature["properties"]["id"] == retune[0]:
            feature["properties"].update(pulse_period=retune[1], acoustic_range=retune[2])
        features.append(feature)
    chart = tmp / "chart.geojson"
    chart.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    specs = []
    for number, (near, dx, dy, negative_zero, network) in enumerate(fleet, start=1):
        uuv_id = f"uuv{number}"
        bx, by = (9500.0, 4000.0) if near == "far" else BEACONS[near]
        x, y = bx - ox + dx, by - oy + dy
        if negative_zero:
            x, y = (-0.0 if x == 0 else x), (-0.0 if y == 0 else y)
        subtasks = " ".join(f"({name} {uuv_id} {' '.join(args)})" for name, *args in network)
        if len(network) > 1:
            subtasks = f"(and {subtasks})"
        problem = tmp / f"{uuv_id}.hddl"
        problem.write_text(
            f"(define (problem p{number}) (:domain uuv-nav)"
            f" (:objects {uuv_id} - uuv {' '.join(IDS)} - beacon)"
            f" (:init {' '.join(f'(beacon-active {b})' for b in IDS)})"
            f" (:htn :ordered-subtasks {subtasks}))"
        )
        specs.append(UuvSpec(uuv_id, Point2D(x, y), problem))
    config = ScenarioConfig(
        output_dir=tmp,
        beacons=chart,
        domain=DOMAIN,
        world=WorldParams(**world),
        uuvs=tuple(specs),
        inactive_beacons=(silenced,) if silenced else (),
    )
    expected = sim_reference.run_reference(config)
    report = run_scenario(config)
    events, tracks = io.StringIO(), io.StringIO()
    write_events_jsonl(report.events, events)
    write_tracks_geojson(report.tracks, tracks)
    summary = json.dumps(report.summary, indent=2, sort_keys=True) + "\n"
    return (events.getvalue(), tracks.getvalue(), summary), expected


NOMINAL = {
    "tick": 1.0,
    "current": (0.0, 0.0),
    "uuv_speed": 9.0,
    "comm_range": 2000.0,
    "pulse_period": 10.0,
    "step_cap": 600,
}


@PROPERTY
@given(
    st.none() | beacon_ids | st.just("far"),
    worlds,
    st.none() | beacon_ids,
    retuned,
    st.lists(vehicles, min_size=1, max_size=6),
)
# b4 on the origin and a vehicle on it at (-0.0, -0.0): its first move
# keeps the place but spells it (0.0, 0.0)
@example("b4", NOMINAL, None, None, [("b4", 0.0, 0.0, True, [("navigate-to-beacon", "b4")])])
# a fix at b5, heard across a cell edge, and a listener beyond comm_range
@example(
    None,
    NOMINAL,
    None,
    None,
    [
        ("b5", -300.0, 200.0, False, [("mission", "b5", "b7")]),
        ("b4", 700.0, 900.0, False, [("rendezvous",)]),
        ("far", 0.0, 0.0, False, [("rendezvous",)]),
    ],
)
# the via beacon silenced under a current, at tick 0.7: a divergence
# replans the vehicle and its fleet mate in range
@example(
    None,
    dict(NOMINAL, tick=0.7, current=(0.2, -0.1)),
    "b6",
    ("b5", 7.0, 1200.0),
    [
        ("b5", 300.0, 300.0, False, [("mission", "b6", "b8")]),
        ("b6", -900.0, 0.0, False, [("rendezvous",)]),
    ],
)
# six vehicles on the chart moved far into negative coordinates, where
# every vehicle scans the whole chart: a fix at b6 under a current, two
# listeners in range of it and one beyond, and two transits
@example(
    "far",
    dict(NOMINAL, current=(0.2, -0.1)),
    None,
    ("b7", 2.5, 2600.0),
    [
        ("b5", 300.0, 300.0, False, [("mission", "b6", "b8")]),
        ("b6", -900.0, 0.0, False, [("rendezvous",)]),
        ("b4", 700.0, 900.0, False, [("rendezvous",)]),
        ("far", 0.0, 0.0, False, [("rendezvous",)]),
        ("b8", -1300.0, 40.0, False, [("transit-leg", "b7"), ("navigate-to-beacon", "b4")]),
        ("b7", 0.0, -150.0, True, [("localize-at", "b5")]),
    ],
)
def test_simulate_matches_the_plain_reference(origin, world, silenced, retune, fleet):
    with tempfile.TemporaryDirectory() as tmp:
        actual, expected = texts_of_both(Path(tmp), origin, world, silenced, retune, fleet)
    for name, got, want in zip(("events", "tracks", "summary"), actual, expected):
        assert got == want, name


def test_the_far_chart_lies_beyond_the_grid_bound():
    """Every beacon of the chart moved ``FAR``, and every start drawn round
    it, is outside the bound of the widest grid the property draws, so
    ``cell`` gives None and the whole chart is scanned."""
    ox, oy = FAR
    grid = BeaconGrid(
        BeaconState(b, Point2D(x - ox, y - oy), acoustic_range=2600.0)
        for b, (x, y) in BEACONS.items()
    )
    for x, y in list(BEACONS.values()) + [(9500.0, 4000.0)]:
        for dx, dy in itertools.product((-2500.0, 2500.0), repeat=2):
            assert grid.cell(x - ox + dx, y - oy + dy) is None
