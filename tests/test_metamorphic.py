"""``simulate`` on transformed copies of its own inputs.

The reference in ``test_sim_reference.py`` checks that the simulator's
fast paths compute what its plain code computes; it cannot see a fault
that both share, such as an output that depends on where the chart's
axes point, where its origin lies or the order of its features.  Here
each scenario drawn by that file's generators runs twice, once as drawn
and once transformed in a way whose effect on the outputs is known:

- a rotation by 90°, (x, y) -> (-y, x), of the chart, every start and
  the current keeps the events in their order, with every range and
  every position, turned back, equal to a relative 1e-9.  A straight
  step turns exactly; a circle's sines and cosines round differently.
  Two kinds of drawn scenario are left out, as the filters below say:
  a vehicle that starts on a beacon's own point, and the one speed at
  which a step from the circle ends on the arrival tolerance;
- a translation by ``SHIFT`` of the chart and every start keeps the
  events in their order, every position shifted back, to the same
  tolerance, except a detection within 1e-6 m of its beacon's acoustic
  range: every sum rounds differently, so such a hearing comes and goes.
  Left out: a leg that ends exactly on the arrival tolerance, and a
  start a distinct float off a beacon that the shift puts on its point;
- a permutation of the chart's features keeps the multiset of events;
  only the order of the detections within one vehicle's tick may change.

A reflection does not keep the events when a vehicle circles, since the
standoff circle turns counter-clockwise; it is not pinned here.  Each
relation held over 500 drawn scenarios; 100 are run here.
"""

import json
import math
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_sim_reference import (
    BEACONS,
    beacon_ids,
    retuned,
    scenario,
    texts,
    vehicles,
    worlds,
)
from uuvnav.config import ScenarioConfig, UuvSpec
from uuvnav.geo import Point2D
from uuvnav.sim.runner import run_scenario
from uuvnav.sim.world import PARAMS, WorldParams

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
RELATIVE = 1e-9
# the translation, north and not south, since the far chart's corner start
# lies on the coordinate limit at -1e7; and how near a beacon's acoustic
# range a hearing may come and go with it
SHIFT = (1024.0, 2048.0)
EDGE = 1e-6


def scenarios(world=worlds):
    return st.tuples(
        st.none() | beacon_ids | st.just("far"),
        world,
        st.none() | beacon_ids,
        retuned,
        st.lists(vehicles, min_size=1, max_size=4),
    )


def on_the_beacons(config):
    """For each vehicle of ``config``, whether it starts on a beacon's own
    point."""
    chart = json.loads(config.beacons.read_text())
    points = {tuple(f["geometry"]["coordinates"]) for f in chart["features"]}
    return [(s.start.x, s.start.y) in points for s in config.uuvs]


# a vehicle that starts on a beacon's own point takes no step to it, so it
# circles that beacon from its initial heading, east, which no input turns
def off_the_beacons(config, copy):
    return not any(on_the_beacons(config))


# a start a distinct float off a beacon can land on its point when shifted
def as_on_the_beacons(config, copy):
    return on_the_beacons(config) == on_the_beacons(copy)


# at 25 m/s, one step from the 50 m standoff circle ends on the 25 m
# arrival tolerance, where the circle's rounding decides the arrival tick
below_the_tie = worlds.filter(lambda w: w["uuv_speed"] != 25.0)
# every drawn step length is a multiple of 0.1 m and most starts lie a
# whole number of metres from their beacon, so a leg often ends exactly on
# the 25 m arrival tolerance, where rounding decides the arrival tick; a
# tolerance a 32nd of a metre short of it ties no such leg
untied = worlds.map(lambda w: dict(w, arrival_tolerance=24.96875))


def turn(x, y):
    return -y, x


def turn_back(x, y):
    return y, -x


def unmoved(x, y):
    return x, y


def shift_back(x, y):
    return x - SHIFT[0], y - SHIFT[1]


def transformed(config, tmp, move=unmoved, reorder=list, shift=(0.0, 0.0)):
    """``config`` with ``move`` applied to its chart's points, its starts
    and its current, then ``shift`` added to the points and the starts,
    and its chart's features put in ``reorder``'s order."""

    def place(x, y):
        x, y = move(x, y)
        return x + shift[0], y + shift[1]

    chart = json.loads(config.beacons.read_text())
    for feature in chart["features"]:
        feature["geometry"]["coordinates"] = list(place(*feature["geometry"]["coordinates"]))
    chart["features"] = reorder(chart["features"])
    moved_chart = tmp / "moved.geojson"
    moved_chart.write_text(json.dumps(chart))
    world = config.world
    params = {name: getattr(world, name) for name in PARAMS}
    return ScenarioConfig(
        config.output_dir,
        moved_chart,
        config.domain,
        WorldParams(**params, current=move(*world.current)),
        tuple(UuvSpec(s.id, Point2D(*place(s.start.x, s.start.y)), s.problem) for s in config.uuvs),
        config.inactive_beacons,
    )


def events_of_both(drawn, keep=None, **transform):
    """The events of a drawn scenario and of its copy transformed by
    ``transformed(..., **transform)``, each a list of dicts as
    ``events.jsonl`` holds them; a pair of configs that ``keep`` refuses
    is not run."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = scenario(tmp, *drawn)
        copy = transformed(config, tmp, **transform)
        if keep:
            assume(keep(config, copy))
        return [
            [json.loads(line) for line in texts(run_scenario(c))[0].splitlines()]
            for c in (config, copy)
        ]


def near(a, b):
    return abs(a - b) <= RELATIVE * max(abs(a), abs(b), 1.0)


def same_event(event, other, back):
    """``other``, its position mapped by ``back``, equals ``event`` with
    every float to a relative 1e-9."""
    if event.keys() != other.keys():
        return False
    for key, value in event.items():
        theirs = other[key]
        if key == "position":
            theirs = back(*theirs)
            if math.dist(value, theirs) > RELATIVE * max(math.hypot(*value), 1.0):
                return False
        elif isinstance(value, float):
            if not near(value, theirs):
                return False
        elif value != theirs:
            return False
    return True


@PROPERTY
@given(scenarios(below_the_tie))
def test_a_turned_world_keeps_the_events(drawn):
    events, turned = events_of_both(drawn, off_the_beacons, move=turn)
    assert len(events) == len(turned)
    for event, other in zip(events, turned):
        assert same_event(event, other, turn_back), (event, other)


def off_the_range_edges(events, ranges):
    """``events`` without the detections whose range lies within 1e-6 m
    of their beacon's acoustic range."""
    return [
        e
        for e in events
        if e["kind"] != "detection" or abs(e["range"] - ranges[e["beacon"]]) > EDGE
    ]


@PROPERTY
@given(scenarios(untied))
def test_a_shifted_world_keeps_the_events_off_the_range_edges(drawn):
    ranges = dict.fromkeys(BEACONS, PARAMS["acoustic_range"][0])
    retune = drawn[3]
    if retune:
        ranges[retune[0]] = retune[2]
    both = events_of_both(drawn, as_on_the_beacons, shift=SHIFT)
    events, shifted = (off_the_range_edges(e, ranges) for e in both)
    assert len(events) == len(shifted)
    for event, other in zip(events, shifted):
        assert same_event(event, other, shift_back), (event, other)


@PROPERTY
@given(scenarios(), st.randoms(use_true_random=False))
def test_a_reordered_chart_keeps_the_multiset_of_events(drawn, random):
    def shuffled(features):
        return random.sample(features, len(features))

    events, reordered = events_of_both(drawn, reorder=shuffled)
    canonical = [json.dumps(e, sort_keys=True) for e in events]
    assert Counter(canonical) == Counter(json.dumps(e, sort_keys=True) for e in reordered)
