"""``simulate`` writes, byte for byte, what its plain reference writes.

``sim_reference.py`` steps the same world without the simulator's
shortcuts: the block scan, the shared true-and-estimated point, the
``Detection`` record and the text writers.  Fleets of one to six
vehicles run on the bundled chart, moved so that a drawn beacon may sit
on the origin, which puts signed zeros into the tracks, or moved ``FAR``
into the corner of the coordinate limit, where the rounding of positions
is coarsest.

Two more checks hold the envelope that the simulator relies on: every
scenario drawn with its world values at their limits runs to its end,
and ``BeaconGrid``'s block holds every beacon in range of a vehicle out
to the farthest point a run can reach.
"""

import io
import itertools
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import sim_reference
from uuvnav.config import ScenarioConfig, UuvSpec
from uuvnav.geo import COORDINATE_LIMIT, Point2D
from uuvnav.sim.runner import run_scenario, write_events_jsonl, write_tracks_geojson
from uuvnav.sim.world import (
    CURRENT_LIMIT,
    PARAMS,
    REACH_LIMIT,
    BeaconGrid,
    BeaconState,
    WorldParams,
)

REPO = Path(__file__).resolve().parent.parent
DOMAIN = REPO / "domains" / "uuv-nav.hddl"
CHART = json.loads((REPO / "scenarios" / "beacons.geojson").read_text())
BEACONS = {f["properties"]["id"]: f["geometry"]["coordinates"] for f in CHART["features"]}
IDS = sorted(BEACONS)
# the origin of a chart moved into the corner of the coordinate limit: the
# start farthest south-west, 2500 m from b4 at (1000, 1000), is on it
FAR = (COORDINATE_LIMIT - 1500.0, COORDINATE_LIMIT - 1500.0)
# the farthest a run can take a vehicle from the origin on an axis: a
# beacon at the coordinate limit, a standoff circle of the largest radius
# round it, then the largest reach
EDGE = COORDINATE_LIMIT + PARAMS["standoff_radius"][2] + REACH_LIMIT

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


def scenario(tmp, origin, world, silenced, retune, fleet):
    """The config of one scenario, its chart and problems written under
    ``tmp``."""
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
    return ScenarioConfig(
        output_dir=tmp,
        beacons=chart,
        domain=DOMAIN,
        world=WorldParams(**world),
        uuvs=tuple(specs),
        inactive_beacons=(silenced,) if silenced else (),
    )


def texts(report):
    """The three output texts of a run."""
    events, tracks = io.StringIO(), io.StringIO()
    write_events_jsonl(report.events, events)
    write_tracks_geojson(report.tracks, tracks)
    summary = json.dumps(report.summary, indent=2, sort_keys=True) + "\n"
    return events.getvalue(), tracks.getvalue(), summary


def texts_of_both(tmp, origin, world, silenced, retune, fleet):
    """The runner's and the reference's three output texts for one
    scenario, written under ``tmp``."""
    config = scenario(tmp, origin, world, silenced, retune, fleet)
    expected = sim_reference.run_reference(config)
    return texts(run_scenario(config)), expected


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


# Each world value at one end of its limits, with a current of the
# largest speed or none, and a step_cap that keeps the reach in its limit.
limit_worlds = st.fixed_dictionaries(
    {name: st.sampled_from(PARAMS[name][1:]) for name in PARAMS if name != "step_cap"}
    | {
        "current": st.sampled_from(
            [(0.0, 0.0), (CURRENT_LIMIT, 0.0), (-0.6 * CURRENT_LIMIT, -0.8 * CURRENT_LIMIT)]
        ),
        "step_cap": st.sampled_from([1, 2, 40]),
    }
)
# a beacon of the longest or shortest period, heard from far or not at all
limit_retuned = st.none() | st.tuples(
    beacon_ids,
    st.sampled_from(PARAMS["pulse_period"][1:]),
    st.sampled_from(PARAMS["acoustic_range"][1:]),
)


@PROPERTY
@given(
    st.sampled_from([None, "far"]),
    limit_worlds,
    st.none() | beacon_ids,
    limit_retuned,
    st.lists(vehicles, min_size=1, max_size=4),
)
# a fix at b6 in the far corner: in reach of b6 from the start and heard on
# every tick, then the widest circle at the slowest speed, which starts
# and cannot end; and the narrowest at the fastest speed under the
# strongest current, which ends at once, so the broadcast reaches the
# listener
@example(
    "far",
    {name: PARAMS[name][2] for name in PARAMS}
    | {"uuv_speed": 1e-3, "pulse_period": 1e-3, "step_cap": 40, "current": (0.0, 0.0)},
    None,
    None,
    [("b6", -2500.0, 2500.0, False, [("mission", "b6", "b8")])],
)
@example(
    "far",
    {name: PARAMS[name][2] for name in PARAMS}
    | {"standoff_radius": 1e-3, "pulse_period": 1e-3, "step_cap": 13, "current": (0.0, 100.0)},
    None,
    None,
    [
        ("b6", 2500.0, 2500.0, False, [("mission", "b6", "b8")]),
        ("b4", -2500.0, -2500.0, False, [("rendezvous",)]),
    ],
)
def test_every_scenario_at_the_limits_of_the_envelope_runs_to_its_end(
    origin, world, silenced, retune, fleet
):
    """The run raises nothing, every output is finite, and every position
    lies within EDGE of the origin, where BeaconGrid's block rule is proved."""
    speed = world["uuv_speed"] + math.hypot(*world["current"])
    world["step_cap"] = min(world["step_cap"], int(REACH_LIMIT / (speed * world["tick"])))
    with tempfile.TemporaryDirectory() as tmp:
        report = run_scenario(scenario(Path(tmp), origin, world, silenced, retune, fleet))
    assert report.summary["ticks"] <= world["step_cap"]
    events, tracks, _ = texts(report)
    assert "Infinity" not in events + tracks and "NaN" not in events + tracks
    json.dumps(report.summary, allow_nan=False)
    for track in report.tracks.values():
        for point in track["true"] + track["estimated"]:
            assert abs(point.x) <= EDGE and abs(point.y) <= EDGE


def test_block_holds_every_beacon_in_range_out_to_the_envelope_edge():
    """Brute force over BeaconGrid's block rule at the edge of the square a
    run can reach: in each corner, charts whose ranges are below the cell
    side's 32 m floor, at it, or up to 2600 m, each beacon on a cell edge
    and heard from a ring of points at its range, a float inside it and
    half of it; every beacon in range of a point is in its cell's block."""
    angles = [k * math.pi / 12.0 for k in range(24)]
    angles += [math.atan2(4.0, 3.0), math.atan2(-3.0, 4.0)]  # 3-4-5 diagonals
    for ranges in ([0.0, 5.0], [0.0, 5.0, 31.5, 32.0], [32.0, 700.0, 2600.0]):
        side = BeaconGrid(
            BeaconState(f"b{i}", Point2D(0.0, 0.0), acoustic_range=r) for i, r in enumerate(ranges)
        ).side
        for sx, sy in itertools.product((1.0, -1.0), repeat=2):
            # on the farthest cell edges from which a beacon's range stays
            # inside, or a float below them, at the top of the cell below
            chart = []
            for i, r in enumerate(ranges):
                edge = math.floor((EDGE - r) / side)
                x, y = edge * side, (edge - i) * side
                if i % 2:
                    x, y = math.nextafter(x, -math.inf), math.nextafter(y, -math.inf)
                chart.append(BeaconState(f"b{i}", Point2D(sx * x, sy * y), acoustic_range=r))
            grid = BeaconGrid(chart)
            assert grid.side == side
            for beacon in chart:
                bx, by, r = beacon.position.x, beacon.position.y, beacon.acoustic_range
                for angle in angles:
                    for reach in (r, math.nextafter(r, 0.0), 0.5 * r):
                        x, y = bx + reach * math.cos(angle), by + reach * math.sin(angle)
                        block = [b for b, _, _ in grid.block(grid.cell(x, y))]
                        for other in chart:
                            ox, oy = other.position.x, other.position.y
                            if math.hypot(x - ox, y - oy) <= other.acoustic_range:
                                assert other in block, (other.id, x, y)
