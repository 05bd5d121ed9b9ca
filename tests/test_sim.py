import math
import re
import struct
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from uuvnav import monitor
from uuvnav.config import load_scenario
from uuvnav.errors import InputError
from uuvnav.geo import COORDINATE_LIMIT, Point2D
from uuvnav.hddl.ground import GroundAction, ground
from uuvnav.hddl.parser import parse_domain, parse_problem
from uuvnav.sim.runner import run_scenario
from uuvnav.sim.world import (
    ACTIONS,
    EVENT_ORDER,
    PARAMS,
    REACH_LIMIT,
    BeaconState,
    Projection,
    UUVState,
    WorldParams,
    WorldState,
    _circle_ticks,
    action_behaviour,
    pulse_fires,
    sense_beacon,
    step,
)

REPO = Path(__file__).resolve().parent.parent
# the farthest a run can take a vehicle from the origin on an axis: a
# beacon at the coordinate limit, a standoff circle of the largest radius
# round it, then the largest reach
EDGE = COORDINATE_LIMIT + PARAMS["standoff_radius"][2] + REACH_LIMIT
DOMAIN_PATH = REPO / "domains" / "uuv-nav.hddl"
SCENARIOS = REPO / "scenarios"
PROBLEMS = SCENARIOS / "problems"


def replace(record, **changes):
    """A copy of a record whose ``__init__`` takes its ``_fields``, with
    ``changes`` made."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


def act(name, *args, pre=(), add=(), delete=()):
    return GroundAction(
        name=name,
        args=tuple(args),
        pos_pre=frozenset(pre),
        neg_pre=frozenset(),
        add_eff=frozenset(add),
        del_eff=frozenset(delete),
    )


def nav(u, b):
    return act("navigate-to-beacon", u, b, add=[("near", u, b)])


def uuv(uuv_id, x, y, queue=None, uncertainty=100.0, belief=None):
    return UUVState(
        id=uuv_id,
        true_position=Point2D(x, y),
        estimated_position=Point2D(x, y),
        position_uncertainty=uncertainty,
        heading=0.0,
        queue=list(queue or []),
        belief=set(belief or []),
    )


def beacon(beacon_id, x, y, active=True, acoustic_range=2000.0, pulse_period=10.0):
    return BeaconState(
        id=beacon_id,
        position=Point2D(x, y),
        active=active,
        acoustic_range=acoustic_range,
        pulse_period=pulse_period,
    )


def pulses(b, tick_number, tick):
    """The per-beacon pulse rule: an active beacon pulses on the ticks
    where ``pulse_fires`` for its own period."""
    return b.active and pulse_fires(tick_number, tick, b.pulse_period)


def world(uuvs, beacons, **overrides):
    return WorldState(
        uuvs=list(uuvs),
        beacons={b.id: b for b in beacons},
        params=WorldParams(**overrides),
    )


def by_id(world, uuv_id):
    return next(u for u in world.uuvs if u.id == uuv_id)


def detections(events):
    """The detection events of a tick; an idle vehicle (an empty plan) also
    logs its mission-completed on the first tick."""
    return [e for e in events if e.kind == "detection"]


def run_until(w, predicate, cap=10000):
    events = []
    for _ in range(cap):
        batch = step(w)
        events.extend(batch)
        if predicate(w, events):
            return w, events
    raise AssertionError("condition not reached within cap")


def read_world(tmp_path, **values):
    """The WorldParams that load_scenario reads from a scenario whose
    ``world`` mapping is ``values``."""
    doc = {
        "output_dir": "out",
        "paths": {"beacons": str(SCENARIOS / "beacons.geojson"), "domain": str(DOMAIN_PATH)},
        "world": values,
        "uuvs": [{"id": "u1", "start": [0.0, 0.0], "problem": str(PROBLEMS / "uuv1-mission.hddl")}],
    }
    path = tmp_path / "world.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_scenario(path).world


def world_refusal(tmp_path, **values) -> str:
    """The message load_scenario refuses such a scenario with, after the
    file's name."""
    with pytest.raises(InputError) as excinfo:
        read_world(tmp_path, **values)
    path, message = str(excinfo.value).split(": ", 1)
    assert path == str(tmp_path / "world.yaml")
    return message


class TestParams:
    """The scenario reader holds each world value to its envelope;
    WorldParams stores what it is given."""

    def test_a_value_left_out_takes_its_default(self, tmp_path):
        defaults = {name: default for name, (default, _, _) in PARAMS.items()}
        assert read_world(tmp_path) == WorldParams(**defaults, current=(0.0, 0.0))

    def test_bad_tick_rejected(self, tmp_path):
        assert world_refusal(tmp_path, tick=0.0).startswith("world.tick must lie in [")

    def test_bad_pulse_period_rejected(self, tmp_path):
        assert world_refusal(tmp_path, pulse_period=0.0).startswith("world.pulse_period ")

    def test_negative_speed_rejected(self, tmp_path):
        assert world_refusal(tmp_path, uuv_speed=-1.0).startswith("world.uuv_speed ")

    def test_unknown_parameter_is_a_type_error(self):
        # Python's own binding of the generated __init__; from 3.13 it may
        # add a suggestion after the name
        with pytest.raises(TypeError, match=r"unexpected keyword argument 'warp_factor'"):
            WorldParams(warp_factor=9)

    @pytest.mark.parametrize("step_cap", [0, -3])
    def test_step_cap_must_be_positive(self, tmp_path, step_cap):
        assert world_refusal(tmp_path, step_cap=step_cap) == (
            f"world.step_cap must lie in [1, 1e+07], got {step_cap}"
        )

    @pytest.mark.parametrize(
        "name",
        [
            "acoustic_range",
            "comm_range",
            "drift_rate",
            "arrival_tolerance",
            "localization_floor",
            "initial_uncertainty",
            "margin_base",
        ],
    )
    def test_ranges_and_rates_must_be_non_negative(self, tmp_path, name):
        message = world_refusal(tmp_path, **{name: -1.0})
        assert re.fullmatch(rf"world\.{name} must lie in \[0, .*\], got -1.0", message)
        assert getattr(read_world(tmp_path, **{name: 0.0}), name) == 0.0

    @pytest.mark.parametrize("name", list(PARAMS))
    def test_every_value_is_held_to_its_limits_and_takes_them(self, tmp_path, name):
        _, least, most = PARAMS[name]
        for value in (least, most):
            # at the top of tick, speed or step_cap, the reach is held down
            # by the other two
            others = {"tick": 1e-3, "uuv_speed": 1e-3, "step_cap": 1}
            others.pop(name, None)
            assert getattr(read_world(tmp_path, **{name: value, **others}), name) == value
        # step_cap is read as an integer
        past = (least - 1, most + 1) if isinstance(least, int) else (least - 1e-3, most * 1.001)
        for value in past:
            message = world_refusal(tmp_path, **{name: value})
            assert message.startswith(f"world.{name} must lie in [")

    def test_current_speed_is_held_to_its_limit(self, tmp_path):
        world = read_world(tmp_path, current=[-60.0, 80.0], uuv_speed=1e-3, tick=1.0, step_cap=10)
        assert world.current == (-60.0, 80.0)
        assert world_refusal(tmp_path, current=[-60.0, 80.001]).startswith(
            "world.current must have a norm of at most 100 m/s, got (-60.0, 80.001)"
        )

    def test_reach_is_held_to_its_limit(self, tmp_path):
        # (2 + 0.5) m/s × 0.5 s × 8e6 ticks is 1e7 m, the most a run may reach
        world = read_world(tmp_path, tick=0.5, step_cap=8_000_000, current=[0.0, -0.5])
        assert world.step_cap == 8_000_000
        assert re.match(
            r"world\.step_cap 8000001 and tick 0.5 give a reach .* of 10000001.25 m, above its",
            world_refusal(tmp_path, tick=0.5, step_cap=8_000_001, current=[0.0, -0.5]),
        )

    @pytest.mark.parametrize(
        "name, value",
        [(name, math.nan) for name in PARAMS]
        + [("current", [math.nan, 0.0]), ("current", [0.0, math.nan])],
    )
    def test_nan_is_refused_naming_the_field(self, tmp_path, name, value):
        assert world_refusal(tmp_path, **{name: value}).startswith(f"world.{name}")


class TestSenseBeacon:
    """Which beacons pulse is decided once per tick (the rule is ``pulses``);
    ``sense_beacon`` is only the range test on the true position's distance."""

    def test_heard_only_at_pulse_instants(self):
        b = beacon("b1", 0.0, 0.0)
        assert pulses(b, 10, 1.0)
        assert not pulses(b, 5, 1.0)
        assert not pulses(b, 11, 1.0)
        # At tick 0.7 the pulse at t = 10 falls in tick 15, (9.8, 10.5].
        assert [k for k in range(1, 30) if pulses(b, k, 0.7)] == [15, 29]
        w = world([uuv("u1", 100.0, 0.0)], [b])
        heard = [detections(step(w)) for _ in range(20)]
        assert [k + 1 for k, batch in enumerate(heard) if batch] == [10, 20]

    def test_range_boundary_inclusive(self):
        b = beacon("b1", 0.0, 0.0, acoustic_range=500.0)
        assert sense_beacon(500.0, b)
        assert not sense_beacon(500.001, b)

    def test_inactive_beacon_is_silent(self):
        b = beacon("b1", 0.0, 0.0, active=False)
        assert not any(pulses(b, k, 1.0) for k in range(1, 100))
        w = world([uuv("u1", 10.0, 0.0)], [b])
        assert not any(detections(step(w)) for _ in range(30))

    def test_true_position_not_estimate_decides_range(self):
        b = beacon("b1", 0.0, 0.0, acoustic_range=100.0)
        heard = []
        for true_x, estimated_x in ((50.0, 5000.0), (5000.0, 50.0)):
            u = uuv("u1", true_x, 0.0)
            u.estimated_position = Point2D(estimated_x, 0.0)
            w = world([u], [b])
            heard.append(any(detections(step(w)) for _ in range(10)))
        assert heard == [True, False]


class TestPulseRule:
    @pytest.mark.parametrize(
        "tick, period, n",
        [
            (0.7, 10.0, 5000),
            (0.3, 10.0, 10000),
            (0.1, 10.0, 22804),
            (1.0, 7.5, 3000),
            (0.25, 3.3, 4000),
        ],
    )
    def test_each_pulse_falls_in_exactly_one_tick(self, tick, period, n):
        b = beacon("b1", 0.0, 0.0, pulse_period=period)
        fired = sum(pulses(b, k, tick) for k in range(1, n + 1))
        assert fired == math.floor(n * tick / period)

    def test_silent_beacon_never_pulses(self):
        b = beacon("b1", 0.0, 0.0, active=False, pulse_period=3.3)
        assert not any(pulses(b, k, 0.7) for k in range(1, 5000))

    @pytest.mark.parametrize("tick", [10.0, 12.5, 25.0])
    def test_tick_longer_than_period_pulses_once_per_tick(self, tick):
        b = beacon("b1", 0.0, 0.0, pulse_period=10.0)
        assert all(pulses(b, k, tick) for k in range(1, 1000))

    @pytest.mark.parametrize("tick", [1.0, 0.7, 12.5])
    def test_pulses_tested_once_per_period_match_the_per_beacon_rule(self, tick):
        # b4 is silenced and is the last beacon of its 7.5 s period, so a
        # scan that let it stand for its period would silence b2 too.
        chart = [
            beacon("b1", 0.0, 0.0, pulse_period=10.0),
            beacon("b2", 400.0, 0.0, pulse_period=7.5),
            beacon("b3", 0.0, 400.0, pulse_period=3.0, acoustic_range=300.0),
            beacon("b4", 800.0, 0.0, pulse_period=7.5, active=False),
            beacon("b5", 0.0, 800.0, pulse_period=10.0, acoustic_range=500.0),
            beacon("b6", 400.0, 400.0, pulse_period=3.0),
        ]
        fleet = [
            uuv("u1", 100.0, 100.0, queue=[nav("u1", "b2")]),
            uuv("u2", 0.0, 600.0),
            uuv("u3", 700.0, 300.0, queue=[nav("u3", "b5")]),
        ]
        w = world(fleet, chart, tick=tick)
        heard = set()
        for _ in range(math.ceil(90.0 / tick)):
            got = self.heard(step(w))
            assert got == self.per_beacon_reference(w, chart, tick)
            heard.update(b for _, b, _ in got)
        assert heard == {"b1", "b2", "b3", "b5", "b6"}

    @staticmethod
    def heard(events):
        return [(e.subject, e.beacon, e.range) for e in events if e.kind == "detection"]

    @staticmethod
    def per_beacon_reference(w, chart, tick):
        """The tick's detections with the pulse rule run on every beacon."""
        return [
            (u.id, b.id, d)
            for u in w.uuvs
            if u.status != "failed"
            for b in chart
            if pulses(b, w.ticks_run, tick)
            and sense_beacon(d := u.true_position.distance_to(b.position), b)
        ]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        periods=st.lists(
            st.sampled_from([2.5, 3.0, 4.4, 7.5, 10.0, 13.0]), min_size=1, max_size=3, unique=True
        ),
        tick=st.sampled_from([0.7, 0.9, 1.7, 2.3, 6.1, 17.0]),
        data=st.data(),
    )
    def test_random_charts_match_the_per_beacon_rule(self, periods, tick, data):
        # 17.0 is longer than every period: each of its ticks hears one pulse
        assert not any((p / tick).is_integer() for p in periods)
        chart = [
            beacon(
                f"b{i}",
                data.draw(st.sampled_from([0.0, 300.0, 700.0])),
                data.draw(st.sampled_from([0.0, 400.0, 900.0])),
                active=data.draw(st.booleans()),
                acoustic_range=data.draw(st.sampled_from([250.0, 600.0, 2000.0])),
                pulse_period=periods[i % len(periods)],
            )
            for i in range(data.draw(st.integers(len(periods), 6)))
        ]
        fleet = [
            uuv("u1", 100.0, 100.0, queue=[nav("u1", chart[-1].id)]),
            uuv("u2", 650.0, 350.0),
        ]
        w = world(fleet, chart, tick=tick)
        ticks = math.ceil(60.0 / tick)
        silence_at = data.draw(st.integers(1, ticks - 1))
        silenced = data.draw(st.sampled_from(chart))
        for k in range(1, ticks + 1):
            if k == silence_at:
                silenced.active = False
            assert self.heard(step(w)) == self.per_beacon_reference(w, chart, tick)


    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_grid_scan_matches_the_per_beacon_rule(self, data):
        """The 3 × 3 block scan hears what the scan of every beacon hears."""
        ranges = data.draw(
            st.lists(
                st.sampled_from([0.0, 5.0, 250.0, 600.0, 2000.0]) | st.floats(0.0, 2500.0),
                min_size=1,
                max_size=6,
            )
        )
        side = max([32.0, *ranges]) * (1.0 + 2.0**-20)  # BeaconGrid's cell side
        # round the origin, or at the edge of where a run can take a vehicle
        ox = data.draw(st.sampled_from([0.0, -1234.5, EDGE - 3000.0, -EDGE + 3000.0]))
        oy = data.draw(st.sampled_from([0.0, 333.25, -EDGE + 3000.0, EDGE - 3000.0]))
        offsets = st.integers(-3000, 3000).map(float) | st.floats(-3000.0, 3000.0)
        chart = [
            beacon(
                f"b{i}",
                ox + data.draw(offsets),
                oy + data.draw(offsets),
                acoustic_range=r,
                pulse_period=data.draw(st.sampled_from([10.0, 25.0])),
            )
            for i, r in enumerate(ranges)
        ]

        def placed(i):
            """A vehicle's start: anywhere, on a cell edge or a float below
            it, or exactly at a beacon's range along an axis or on a 3-4-5
            diagonal."""
            how = data.draw(st.sampled_from(["free", "edge", "axis", "diagonal"]))
            if how == "free":
                return ox + data.draw(offsets), oy + data.draw(offsets)
            if how == "edge":
                x = (math.floor(ox / side) + data.draw(st.integers(-2, 2))) * side
                if data.draw(st.booleans()):
                    x = math.nextafter(x, -math.inf)
                return x, oy + data.draw(offsets)
            b = data.draw(st.sampled_from(chart))
            r, bx, by = b.acoustic_range, b.position.x, b.position.y
            if how == "axis":
                return data.draw(st.sampled_from([(bx + r, by), (bx - r, by), (bx, by + r)]))
            k = r / 5.0
            return data.draw(st.sampled_from([(bx + 3 * k, by + 4 * k), (bx - 4 * k, by - 3 * k)]))

        fleet = []
        for i in range(data.draw(st.integers(1, 4))):
            x, y = placed(i)
            target = data.draw(st.sampled_from(chart)).id
            queue = [nav(f"u{i}", target)] if data.draw(st.booleans()) else []
            fleet.append(uuv(f"u{i}", x, y, queue=queue))
        # a tick of 10 s moves 20 m and fires every period-10 beacon
        w = world(fleet, chart, tick=10.0, arrival_tolerance=1.0)
        silence_at = data.draw(st.integers(1, 8))
        silenced = data.draw(st.sampled_from(chart))
        for k in range(1, 9):
            if k == silence_at:
                silenced.active = False
            assert self.heard(step(w)) == self.per_beacon_reference(w, chart, 10.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_grid_scan_hears_at_range_at_cell_and_envelope_edges(self, sign):
        side = 500.0 * (1.0 + 2.0**-20)
        chart = [
            beacon("b1", sign * side, 0.0, acoustic_range=500.0),  # on a cell edge
            beacon("b2", sign * (EDGE - 500.0), 0.0, acoustic_range=500.0),
            beacon("b3", sign * (EDGE - 150.0), 400.0, acoustic_range=100.0),
        ]
        fleet = [
            uuv("u1", sign * side - 500.0, 0.0),  # b1 at exactly its range, one cell over
            uuv("u2", sign * side + 300.0, sign * -400.0),  # b1 at 500 on a 3-4-5 diagonal
            uuv("u3", sign * EDGE, 0.0),  # b2 at 500, as far out as a run can go
            uuv("u4", sign * (EDGE - 150.0), 500.0),  # b3 at 100
        ]
        w = world(fleet, chart, tick=10.0)
        heard = self.heard(step(w))
        assert heard == self.per_beacon_reference(w, chart, 10.0)
        assert [(u, b) for u, b, _ in heard] == [
            ("u1", "b1"), ("u2", "b1"), ("u3", "b2"), ("u4", "b3")
        ]


class TestTickSizeIndependence:
    HORIZON = 5000.0  # seconds: the nominal scenario's step_cap at tick 1.0

    def run(self, tick):
        config = load_scenario(SCENARIOS / "nominal.yaml")
        params = replace(config.world, tick=tick, step_cap=math.ceil(self.HORIZON / tick))
        report = run_scenario(replace(config, world=params))
        assert report.summary["all_missions_completed"]
        return report.summary["event_counts"]["detection"]

    def test_nominal_detections_do_not_depend_on_tick(self):
        at_one = self.run(1.0)
        assert [self.run(tick) for tick in (0.7, 0.5, 0.3)] == [at_one] * 3


class TestMovement:
    def test_moves_at_speed_towards_target(self):
        w = world([uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")])], [beacon("b1", 100.0, 0.0)])
        step(w)
        u = by_id(w, "u1")
        assert u.true_position == Point2D(2.0, 0.0)
        assert u.estimated_position == Point2D(2.0, 0.0)
        assert u.position_uncertainty == pytest.approx(100.0 + 0.02 * 2.0)

    def test_current_separates_truth_from_estimate(self):
        w = world(
            [uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")])],
            [beacon("b1", 100.0, 0.0)],
            current=(0.5, 0.0),
        )
        step(w)
        u = by_id(w, "u1")
        assert u.true_position == Point2D(2.5, 0.0)
        assert u.estimated_position == Point2D(2.0, 0.0)

    def test_current_past_the_float_range_is_refused_where_it_is_read(self, tmp_path):
        # refused with the world, before any vehicle moves
        assert world_refusal(tmp_path, current=[1e308, 0.0], tick=2.0).startswith(
            "world.current must have a norm of at most 100 m/s"
        )

    def test_final_step_clamps_to_target(self):
        w = world(
            [uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")])],
            [beacon("b1", 3.0, 0.0)],
            arrival_tolerance=0.5,
        )
        w, events = run_until(w, lambda _, ev: any(e.kind == "action-completed" for e in ev))
        u = by_id(w, "u1")
        assert u.estimated_position == Point2D(3.0, 0.0)

    def test_arrival_emits_waypoint_then_completion(self):
        w = world([uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")])], [beacon("b1", 100.0, 0.0)])
        w, events = run_until(w, lambda _, ev: any(e.kind == "mission-completed" for e in ev))
        kinds = [e.kind for e in events if e.subject == "u1" and e.kind != "detection"]
        assert kinds == ["action-started", "waypoint-reached", "action-completed", "mission-completed"]
        u = by_id(w, "u1")
        assert ("near", "u1", "b1") in u.belief
        assert u.status == "completed"
        assert u.estimated_position.distance_to(Point2D(100.0, 0.0)) <= 25.0


    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        start=st.sampled_from([-7.0, -2.5, -0.0, 0.0, 1.5, 4.0]),
        end=st.sampled_from([-6.0, -0.0, 0.0, 0.5, 3.0, 9.0]),
        across=st.sampled_from([-0.0, 0.0, 2.0]),
        vertical=st.booleans(),
        one_point=st.booleans(),
        speed=st.sampled_from([0.5, 1.0, 2.5]),
        tick=st.sampled_from([0.5, 1.0, 3.0]),
        current=st.sampled_from(
            [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.25, 0.0), (0.0, -1.5)]
        ),
    )
    def test_positions_match_the_two_point_formula_bit_for_bit(
        self, start, end, across, vertical, one_point, speed, tick, current
    ):
        """A leg along an axis, across 0 or from and to ±0.0, ends each tick
        on the bits of the formula that builds truth and estimate apart."""

        def on_axis(a):
            return (across, a) if vertical else (a, across)

        sx, sy = on_axis(start)
        tx, ty = on_axis(end)
        position = Point2D(sx, sy)
        u = uuv("u1", sx, sy, queue=[nav("u1", "b1")])
        u.true_position = position
        u.estimated_position = position if one_point else Point2D(sx, sy)
        w = world(
            [u], [beacon("b1", tx, ty)],
            uuv_speed=speed, tick=tick, current=current, arrival_tolerance=0.1,
        )
        true, est = (sx, sy), (sx, sy)
        bits = struct.Struct("<dd").pack
        for _ in range(12):
            moving = u.status == "active"
            step(w)
            if moving:
                dx, dy = tx - est[0], ty - est[1]
                remaining = math.hypot(dx, dy)
                step_len = speed * tick
                if remaining == 0:
                    vx, vy = 0.0, 0.0
                elif remaining <= step_len:
                    vx, vy = dx, dy
                else:
                    vx, vy = dx / remaining * step_len, dy / remaining * step_len
                true = (
                    true[0] + vx + current[0] * tick,
                    true[1] + vy + current[1] * tick,
                )
                est = (est[0] + vx, est[1] + vy)
            assert bits(u.true_position.x, u.true_position.y) == bits(*true)
            assert bits(u.estimated_position.x, u.estimated_position.y) == bits(*est)

    def test_an_estimate_of_minus_zero_keeps_truth_apart(self):
        """From x = -0.0, a velocity that underflows to -0.0 leaves the
        estimate at -0.0, while truth, -0.0 + -0.0 + 0.0, is 0.0: one point
        cannot serve as both, even under zero current."""
        u = uuv("u1", -0.0, 0.0, queue=[nav("u1", "b1")])
        u.estimated_position = u.true_position
        w = world([u], [beacon("b1", -5e-324, 1000.0)])
        step(w)
        assert math.copysign(1.0, u.estimated_position.x) == -1.0
        assert math.copysign(1.0, u.true_position.x) == 1.0
        assert u.true_position.y == u.estimated_position.y == 2.0

    def test_a_step_on_the_target_is_plus_zero(self):
        """On the target already, the step is (0.0, 0.0), not tx - ex =
        -0.0 - 0.0 = -0.0: truth at -0.0 under a current of -0.0 moves to
        -0.0 + 0.0 + -0.0 = 0.0, as in the plain reference."""
        u = uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")])
        u.true_position = Point2D(-0.0, 0.0)
        w = world([u], [beacon("b1", -0.0, 0.0)], current=(-0.0, 0.0))
        step(w)
        assert u.status == "completed"
        assert math.copysign(1.0, u.true_position.x) == 1.0
        assert math.copysign(1.0, u.estimated_position.x) == 1.0

    @pytest.mark.parametrize(
        "start, target",
        [
            # 1.5 + (1e-20 - 1.5) rounds to 0.0, 1e-20 short of the beacon
            ((1.5, 0.0), (1e-20, 0.0)),
            # a start a distinct float off the beacon, nearer than any step
            ((5e-13, 0.0), (0.0, 0.0)),
        ],
    )
    def test_a_step_that_reaches_its_target_arrives_at_zero_tolerance(self, start, target):
        u = uuv("u1", *start, queue=[nav("u1", "b1")])
        w = world([u], [beacon("b1", *target)], arrival_tolerance=0.0)
        assert [e.kind for e in step(w)] == [
            "action-started",
            "waypoint-reached",
            "action-completed",
            "mission-completed",
        ]
        assert u.status == "completed"
        assert u.estimated_position == Point2D(0.0, 0.0)


class TestCircleLocalize:
    def make(self, active=True):
        steps = [act("circle-localize", "u1", "b1", add=[("localized", "u1")])]
        u = uuv("u1", 10.0, 0.0, queue=steps)
        return world([u], [beacon("b1", 0.0, 0.0, active=active)])

    def test_duration_is_circumference_over_speed(self):
        w = self.make()
        expected_ticks = math.ceil(2.0 * math.pi * 50.0 / 2.0)
        done_time = None
        for _ in range(500):
            batch = step(w)
            for e in batch:
                if e.kind == "action-completed":
                    done_time = e.time
            if done_time is not None:
                break
        assert done_time == float(expected_ticks)

    def test_completion_resets_uncertainty_and_pins_estimate(self):
        w = self.make()
        w, _ = run_until(w, lambda ww, _: by_id(ww, "u1").status == "completed")
        u = by_id(w, "u1")
        assert u.position_uncertainty == 5.0
        assert u.true_position == u.estimated_position
        assert u.true_position.distance_to(Point2D(0.0, 0.0)) == pytest.approx(50.0)
        assert ("localized", "u1") in u.belief

    def test_beacon_silenced_mid_circle_fails_mission(self):
        w = self.make()
        for _ in range(20):
            step(w)
        w.beacons["b1"].active = False
        batch = step(w)
        kinds = [e.kind for e in batch]
        assert "action-failed" in kinds and "mission-failed" in kinds
        u = by_id(w, "u1")
        assert u.status == "failed"
        assert not u.queue

    def test_circle_past_the_float_range_is_refused_where_it_is_read(self, tmp_path):
        # refused with the world, before any vehicle circles
        assert world_refusal(tmp_path, standoff_radius=1e307).startswith(
            "world.standoff_radius must lie in [0.001, "
        )

    def test_replan_mid_circle_then_a_new_circle_flies_a_full_lap(self):
        domain = parse_domain(DOMAIN_PATH.read_text())
        problem = parse_problem(
            "(define (problem refix) (:domain uuv-nav)"
            " (:objects u1 - uuv b1 - beacon) (:init (beacon-active b1))"
            " (:htn :ordered-subtasks (localize-at u1 b1)))",
            domain,
        )
        w = self.make()
        w.params = replace(w.params, arrival_tolerance=60.0)
        u = by_id(w, "u1")
        u.belief = set(problem.init)
        u.setup = monitor.PlanningSetup(ground(domain, problem), problem.htn)
        for _ in range(20):
            step(w)
        monitor.replan_episode(u, monitor.Expectation("b1", 0.0, 1.0), w)
        started = []
        while "circle-localize" not in started:
            before = u.estimated_position
            started += [e.payload["action"] for e in step(w) if e.kind == "action-started"]
        # each action of the new plan starts afresh, the circle from where
        # the vehicle is when it begins
        assert started == ["navigate-to-beacon", "sense-beacon", "circle-localize"]
        lap = _circle_ticks(w.params)
        omega = w.params.uuv_speed / w.params.standoff_radius
        theta0 = math.atan2(before.y, before.x)  # b1 sits at the origin
        ticks = 1
        while u.status == "active":
            step(w)
            ticks += 1
        assert ticks == lap
        theta = theta0 + omega * lap * w.params.tick
        assert u.estimated_position == Point2D(50.0 * math.cos(theta), 50.0 * math.sin(theta))


def projected_duration(action, vehicle, w):
    """How long the monitor projects the action to take, from the table."""
    projection = Projection(w, 0.0, vehicle.estimated_position, vehicle.position_uncertainty)
    action_behaviour(action.name).project(projection, action)
    return projection.time


class TestActionTable:
    @pytest.mark.parametrize(
        "speed, tick, radius",
        [
            (2.0, 1.0, 50.0),
            (1.5, 0.7, 30.0),
            (3.0, 0.25, 12.5),
            (0.5, 2.0, 80.0),
            (2.0, 1.0, 10.0 / math.pi),
            (40.0, 1.0, 5.0),
        ],
    )
    def test_circle_completes_on_the_projected_tick(self, speed, tick, radius):
        circle = act("circle-localize", "u1", "b1")
        vehicle = uuv("u1", 10.0, 0.0, queue=[circle])
        w = world(
            [vehicle], [beacon("b1", 0.0, 0.0)], uuv_speed=speed, tick=tick, standoff_radius=radius
        )
        projected = projected_duration(circle, vehicle, w)
        w, _ = run_until(w, lambda ww, _: by_id(ww, "u1").status == "completed")
        assert w.ticks_run * tick == projected

    def test_unlisted_action_is_one_instant_tick_on_both_sides(self):
        hold = act("hold", "u1")
        vehicle = uuv("u1", 0.0, 0.0, queue=[hold])
        w = world([vehicle], [], tick=0.5)
        assert projected_duration(hold, vehicle, w) == 0.5
        step(w)
        assert by_id(w, "u1").status == "completed"

    def test_every_domain_action_has_an_entry(self):
        domain = parse_domain(DOMAIN_PATH.read_text())
        assert {a.name for a in domain.actions} == set(ACTIONS)


class TestBroadcast:
    def test_reaches_only_comm_range(self):
        sender = uuv("u1", 0.0, 0.0, queue=[act("broadcast", "u1", add=[("broadcasted", "u1")])])
        near_rx = uuv("u2", 1500.0, 0.0)
        far_rx = uuv("u3", 2500.0, 0.0)
        w = world([sender, near_rx, far_rx], [])
        events = step(w)
        received = [e.subject for e in events if e.kind == "broadcast-received"]
        assert received == ["u2"]
        u2, u3 = by_id(w, "u2"), by_id(w, "u3")
        assert ("heard-broadcast", "u2") in u2.belief
        assert ("broadcasted", "u1") in u2.belief
        assert u2.broadcast_target == Point2D(0.0, 0.0)
        assert u3.broadcast_target is None
        assert ("heard-broadcast", "u3") not in u3.belief

    def test_await_completes_on_receipt(self):
        sender = uuv(
            "u1",
            0.0,
            0.0,
            queue=[act("hold", "u1"), act("broadcast", "u1", add=[("broadcasted", "u1")])],
        )
        listener = uuv(
            "u2", 100.0, 0.0,
            queue=[act("await-broadcast", "u2", add=[("heard-broadcast", "u2")])],
        )
        w = world([sender, listener], [])
        first = step(w)
        assert by_id(w, "u2").status == "active"
        # broadcast fires on the second tick; the listener (later in id
        # order) sees it the same tick and completes.
        second = step(w)
        u2_kinds = [e.kind for e in second if e.subject == "u2"]
        assert "action-completed" in u2_kinds
        assert by_id(w, "u2").status == "completed"

    def test_navigate_to_broadcast_follows_received_position(self):
        sender = uuv("u1", 0.0, 0.0, queue=[act("broadcast", "u1")])
        chaser = uuv(
            "u2", 300.0, 0.0,
            queue=[act("navigate-to-broadcast", "u2", add=[("at-rendezvous", "u2")])],
        )
        w = world([sender, chaser], [], arrival_tolerance=1.0)
        w, _ = run_until(w, lambda ww, _: by_id(ww, "u2").status != "active")
        u2 = by_id(w, "u2")
        assert u2.status == "completed"
        assert u2.estimated_position == Point2D(0.0, 0.0)

    def test_navigate_to_broadcast_without_position_fails(self):
        chaser = uuv("u2", 300.0, 0.0, queue=[act("navigate-to-broadcast", "u2")])
        w = world([chaser], [])
        events = step(w)
        assert by_id(w, "u2").status == "failed"
        assert any(e.kind == "action-failed" for e in events)


class TestEventStream:
    def test_instant_action_completes_first_tick(self):
        w = world([uuv("u1", 0.0, 0.0, queue=[act("hover", "u1")])], [])
        events = step(w)
        assert [e.kind for e in events] == [
            "action-started",
            "action-completed",
            "mission-completed",
        ]
        assert all(e.time == 1.0 for e in events)

    def test_detection_logged_during_transit(self):
        w = world([uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")])], [beacon("b1", 500.0, 0.0)])
        for _ in range(10):
            batch = step(w)
        detections = [e for e in batch if e.kind == "detection"]
        assert len(detections) == 1
        assert detections[0].beacon == "b1"
        assert detections[0].time == 10.0

    def test_events_grouped_by_subject_within_tick(self):
        uuvs = [
            uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")]),
            uuv("u2", 50.0, 0.0, queue=[nav("u2", "b1")]),
        ]
        w = world(uuvs, [beacon("b1", 500.0, 0.0)])
        events = step(w)
        assert [e.subject for e in events] == sorted(e.subject for e in events)

    def test_identical_worlds_produce_identical_streams(self):
        def build():
            uuvs = [
                uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")]),
                uuv("u2", 900.0, 300.0, queue=[nav("u2", "b1")]),
            ]
            return world(uuvs, [beacon("b1", 600.0, 100.0)])

        w1, w2 = build(), build()
        log1, log2 = [], []
        for _ in range(200):
            b1 = step(w1)
            b2 = step(w2)
            log1.extend(b1)
            log2.extend(b2)
        assert repr(log1) == repr(log2)


def test_replan_events_are_sorted_into_their_tick():
    """With a pulse every tick, the divergence tick of b6-silenced logs
    detections for every vehicle before replanning logs for uuv1..uuv4;
    the tick's events still come out ordered by (time, subject), each
    vehicle's replan after its own detection."""
    config = load_scenario(REPO / "scenarios" / "b6-silenced.yaml")
    config = replace(config, world=replace(config.world, pulse_period=1.0))
    events = run_scenario(config).events
    assert [EVENT_ORDER(e) for e in events] == sorted(EVENT_ORDER(e) for e in events)
    replan_time = next(e.time for e in events if e.kind == "replan-triggered")
    tick = [(e.subject, e.kind) for e in events if e.time == replan_time]
    assert tick[:3] == [
        ("uuv1", "detection"), ("uuv1", "replan-triggered"), ("uuv2", "replan-triggered")
    ]
    assert tick[-1] == ("uuv5", "detection")


def test_vehicle_with_an_empty_plan_completes_on_its_first_tick(tmp_path):
    problem = tmp_path / "empty.hddl"
    problem.write_text(
        "(define (problem empty) (:domain uuv-nav) (:objects uuv1 - uuv)"
        " (:htn :ordered-subtasks ()) (:init))"
    )
    config = load_scenario(REPO / "scenarios" / "nominal.yaml")
    (spec,) = [s for s in config.uuvs if s.id == "uuv1"]
    config = replace(
        config,
        uuvs=(replace(spec, problem=problem),),
        world=replace(config.world, step_cap=300),
    )
    report = run_scenario(config)
    assert report.summary["ticks"] == 1
    assert report.summary["all_missions_completed"] is True
    assert report.summary["uuvs"]["uuv1"]["status"] == "completed"
    assert [(e.time, e.kind, e.subject) for e in report.events] == [
        (1.0, "mission-completed", "uuv1")
    ]
