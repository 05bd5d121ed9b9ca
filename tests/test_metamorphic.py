"""``simulate`` on transformed copies of its own inputs.

The reference in ``test_sim_reference.py`` checks that the simulator's
fast paths compute what its plain code computes; it cannot see a fault
that both share, such as an output that depends on where the chart's
axes point or on the order of its features.  Here each scenario drawn
by that file's generators runs twice, once as drawn and once
transformed in a way whose effect on the outputs is known:

- a rotation by 90°, (x, y) -> (-y, x), of the chart, every start and
  the current keeps the events in their order, with every range and
  every position, turned back, equal to a relative 1e-9.  A straight
  step turns exactly; a circle's sines and cosines round differently.
  Two kinds of drawn scenario are left out, as the filters below say:
  a vehicle that circles the beacon it starts on, and the one speed at
  which a step from the circle ends on the arrival tolerance;
- a permutation of the chart's features keeps the multiset of events;
  only the order of the detections within one vehicle's tick may change.

A reflection does not keep the events when a vehicle circles, since the
standoff circle turns counter-clockwise; a translation moves a hearing
that sits within a rounding error of a beacon's range.  Neither is
pinned here.  Both relations held over 500 drawn scenarios each; 100
are run here.
"""

import json
import math
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from test_sim_reference import beacon_ids, retuned, scenario, texts, vehicles, worlds
from uuvnav.config import ScenarioConfig, UuvSpec
from uuvnav.geo import Point2D
from uuvnav.sim.runner import run_scenario
from uuvnav.sim.world import PARAMS, WorldParams

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
RELATIVE = 1e-9


def scenarios(fleet=vehicles, world=worlds):
    return st.tuples(
        st.none() | beacon_ids | st.just("far"),
        world,
        st.none() | beacon_ids,
        retuned,
        st.lists(fleet, min_size=1, max_size=4),
    )


# a vehicle that starts on a beacon, or so near it that its first step is
# none, starts a circle round it from its initial heading, east, which no
# input turns; so the turned world starts each vehicle a micrometre or more
# from the beacon it is drawn near
off_the_beacons = vehicles.filter(lambda v: v[0] == "far" or math.hypot(v[1], v[2]) > 1e-6)
# at 25 m/s, one step from the 50 m standoff circle ends on the 25 m
# arrival tolerance, where the circle's rounding decides the arrival tick
below_the_tie = worlds.filter(lambda w: w["uuv_speed"] != 25.0)


def turn(x, y):
    return -y, x


def turn_back(x, y):
    return y, -x


def transformed(config, tmp, move, reorder=list):
    """``config`` with ``move`` applied to its chart's points, its starts
    and its current, and its chart's features put in ``reorder``'s order."""
    chart = json.loads(config.beacons.read_text())
    for feature in chart["features"]:
        feature["geometry"]["coordinates"] = list(move(*feature["geometry"]["coordinates"]))
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
        tuple(UuvSpec(s.id, Point2D(*move(s.start.x, s.start.y)), s.problem) for s in config.uuvs),
        config.inactive_beacons,
    )


def events_of_both(drawn, move, reorder=list):
    """The events of a drawn scenario and of its transformed copy, each a
    list of dicts as ``events.jsonl`` holds them."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = scenario(tmp, *drawn)
        copy = transformed(config, tmp, move, reorder)
        return [
            [json.loads(line) for line in texts(run_scenario(c))[0].splitlines()]
            for c in (config, copy)
        ]


def near(a, b):
    return abs(a - b) <= RELATIVE * max(abs(a), abs(b), 1.0)


def same_event(event, turned):
    """``turned``, its position turned back, equals ``event`` with every
    float to a relative 1e-9."""
    if event.keys() != turned.keys():
        return False
    for key, value in event.items():
        other = turned[key]
        if key == "position":
            other = turn_back(*other)
            if math.dist(value, other) > RELATIVE * max(math.hypot(*value), 1.0):
                return False
        elif isinstance(value, float):
            if not near(value, other):
                return False
        elif value != other:
            return False
    return True


@PROPERTY
@given(scenarios(off_the_beacons, below_the_tie))
def test_a_turned_world_keeps_the_events(drawn):
    events, turned = events_of_both(drawn, turn)
    assert len(events) == len(turned)
    for event, other in zip(events, turned):
        assert same_event(event, other), (event, other)


@PROPERTY
@given(scenarios(), st.randoms(use_true_random=False))
def test_a_reordered_chart_keeps_the_multiset_of_events(drawn, random):
    def shuffled(features):
        return random.sample(features, len(features))

    events, reordered = events_of_both(drawn, lambda x, y: (x, y), shuffled)
    canonical = [json.dumps(e, sort_keys=True) for e in events]
    assert Counter(canonical) == Counter(json.dumps(e, sort_keys=True) for e in reordered)
