import math
from dataclasses import replace
from pathlib import Path

import pytest

from uuvnav.config import load_scenario
from uuvnav.errors import SimulationError
from uuvnav.geo import Point2D
from uuvnav.hddl.ground import GroundAction
from uuvnav.hddl.parser import parse_domain
from uuvnav.sim import (
    BeaconState,
    UUVState,
    WorldParams,
    WorldState,
    sense_beacon,
    step,
)
from uuvnav.sim.runner import run_scenario
from uuvnav.sim.world import ACTIONS, Projection, action_behaviour

REPO = Path(__file__).resolve().parent.parent
DOMAIN_PATH = REPO / "domains" / "uuv-nav.hddl"
SCENARIOS = REPO / "scenarios"


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


def uuv(uuv_id, x, y, queue=None, speed=2.0, uncertainty=100.0, belief=None):
    return UUVState(
        id=uuv_id,
        true_position=Point2D(x, y),
        estimated_position=Point2D(x, y),
        position_uncertainty=uncertainty,
        heading=0.0,
        speed=speed,
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


def world(uuvs, beacons, **overrides):
    return WorldState(
        uuvs=list(uuvs),
        beacons={b.id: b for b in beacons},
        params=WorldParams(**overrides),
    )


def run_until(w, predicate, cap=10000):
    events = []
    for _ in range(cap):
        batch = step(w)
        events.extend(batch)
        if predicate(w, events):
            return w, events
    raise AssertionError("condition not reached within cap")


class TestParams:
    def test_bad_tick_rejected(self):
        with pytest.raises(SimulationError):
            WorldParams(tick=0.0)

    def test_bad_pulse_period_rejected(self):
        with pytest.raises(SimulationError):
            WorldParams(pulse_period=0.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(SimulationError):
            WorldParams(uuv_speed=-1.0)

    @pytest.mark.parametrize("step_cap", [0, -3])
    def test_step_cap_must_be_positive(self, step_cap):
        with pytest.raises(SimulationError, match="^step_cap must be positive$"):
            WorldParams(step_cap=step_cap)

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
    def test_ranges_and_rates_must_be_non_negative(self, name):
        with pytest.raises(SimulationError, match=f"^{name} must be non-negative$"):
            WorldParams(**{name: -1.0})
        WorldParams(**{name: 0.0})


class TestSenseBeacon:
    """Which beacons pulse is decided once per tick (``pulses_during``);
    ``sense_beacon`` is only the range test on the true position."""

    def test_heard_only_at_pulse_instants(self):
        b = beacon("b1", 0.0, 0.0)
        assert b.pulses_during(10, 1.0)
        assert not b.pulses_during(5, 1.0)
        assert not b.pulses_during(11, 1.0)
        # At tick 0.7 the pulse at t = 10 falls in tick 15, (9.8, 10.5].
        assert [k for k in range(1, 30) if b.pulses_during(k, 0.7)] == [15, 29]
        w = world([uuv("u1", 100.0, 0.0)], [b])
        heard = [step(w) for _ in range(20)]
        assert [k + 1 for k, batch in enumerate(heard) if batch] == [10, 20]

    def test_range_boundary_inclusive(self):
        b = beacon("b1", 0.0, 0.0, acoustic_range=500.0)
        assert sense_beacon(uuv("u1", 500.0, 0.0), b)
        assert not sense_beacon(uuv("u1", 500.001, 0.0), b)

    def test_inactive_beacon_is_silent(self):
        b = beacon("b1", 0.0, 0.0, active=False)
        assert not any(b.pulses_during(k, 1.0) for k in range(1, 100))
        w = world([uuv("u1", 10.0, 0.0)], [b])
        assert not any(step(w) for _ in range(30))

    def test_true_position_not_estimate_decides_range(self):
        b = beacon("b1", 0.0, 0.0, acoustic_range=100.0)
        u = uuv("u1", 50.0, 0.0)
        u.estimated_position = Point2D(5000.0, 0.0)
        assert sense_beacon(u, b)
        u.true_position, u.estimated_position = Point2D(5000.0, 0.0), Point2D(50.0, 0.0)
        assert not sense_beacon(u, b)


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
        pulses = sum(b.pulses_during(k, tick) for k in range(1, n + 1))
        assert pulses == math.floor(n * tick / period)

    def test_silent_beacon_never_pulses(self):
        b = beacon("b1", 0.0, 0.0, active=False, pulse_period=3.3)
        assert not any(b.pulses_during(k, 0.7) for k in range(1, 5000))

    @pytest.mark.parametrize("tick", [10.0, 12.5, 25.0])
    def test_tick_longer_than_period_pulses_once_per_tick(self, tick):
        b = beacon("b1", 0.0, 0.0, pulse_period=10.0)
        assert all(b.pulses_during(k, tick) for k in range(1, 1000))

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
            events = step(w)
            got = [
                (e.subject, e.payload["beacon"], e.payload["range"])
                for e in events
                if e.kind == "detection"
            ]
            expected = [
                (u.id, b.id, u.true_position.distance_to(b.position))
                for u in w.uuvs
                for b in chart
                if b.pulses_during(w.ticks_run, tick) and sense_beacon(u, b)
            ]
            assert got == expected
            heard.update(b for _, b, _ in got)
        assert heard == {"b1", "b2", "b3", "b5", "b6"}


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
        u = w.uuv("u1")
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
        u = w.uuv("u1")
        assert u.true_position == Point2D(2.5, 0.0)
        assert u.estimated_position == Point2D(2.0, 0.0)

    def test_current_past_the_float_range_is_a_simulation_error(self):
        w = world(
            [uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")])],
            [beacon("b1", 100.0, 0.0)],
            current=(1e308, 0.0),
            tick=2.0,
        )
        with pytest.raises(SimulationError, match="u1: the current carried it out of range"):
            step(w)

    def test_final_step_clamps_to_target(self):
        w = world(
            [uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")])],
            [beacon("b1", 3.0, 0.0)],
            arrival_tolerance=0.5,
        )
        w, events = run_until(w, lambda _, ev: any(e.kind == "action-completed" for e in ev))
        u = w.uuv("u1")
        assert u.estimated_position == Point2D(3.0, 0.0)

    def test_arrival_emits_waypoint_then_completion(self):
        w = world([uuv("u1", 0.0, 0.0, queue=[nav("u1", "b1")])], [beacon("b1", 100.0, 0.0)])
        w, events = run_until(w, lambda _, ev: any(e.kind == "mission-completed" for e in ev))
        kinds = [e.kind for e in events if e.subject == "u1" and e.kind != "detection"]
        assert kinds == ["action-started", "waypoint-reached", "action-completed", "mission-completed"]
        u = w.uuv("u1")
        assert ("near", "u1", "b1") in u.belief
        assert u.status == "completed"
        assert u.estimated_position.distance_to(Point2D(100.0, 0.0)) <= 25.0


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
        w, _ = run_until(w, lambda ww, _: ww.uuv("u1").status == "completed")
        u = w.uuv("u1")
        assert u.position_uncertainty == 5.0
        assert u.true_position == u.estimated_position
        assert u.true_position.distance_to(Point2D(0.0, 0.0)) == pytest.approx(50.0)
        assert ("localized", "u1") in u.belief

    def test_beacon_silenced_mid_circle_fails_mission(self):
        w = self.make()
        for _ in range(20):
            step(w)
        w.beacon("b1").active = False
        batch = step(w)
        kinds = [e.kind for e in batch]
        assert "action-failed" in kinds and "mission-failed" in kinds
        u = w.uuv("u1")
        assert u.status == "failed"
        assert not u.queue


def projected_duration(action, vehicle, w):
    """How long the monitor projects the action to take, from the table."""
    projection = Projection(
        vehicle, w, 0.0, vehicle.estimated_position, vehicle.position_uncertainty
    )
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
        vehicle = uuv("u1", 10.0, 0.0, queue=[circle], speed=speed)
        w = world([vehicle], [beacon("b1", 0.0, 0.0)], tick=tick, standoff_radius=radius)
        projected = projected_duration(circle, vehicle, w)
        w, _ = run_until(w, lambda ww, _: ww.uuv("u1").status == "completed")
        assert w.ticks_run * tick == projected

    def test_unlisted_action_is_one_instant_tick_on_both_sides(self):
        hold = act("hold", "u1")
        vehicle = uuv("u1", 0.0, 0.0, queue=[hold])
        w = world([vehicle], [], tick=0.5)
        assert projected_duration(hold, vehicle, w) == 0.5
        step(w)
        assert w.uuv("u1").status == "completed"

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
        u2, u3 = w.uuv("u2"), w.uuv("u3")
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
        assert w.uuv("u2").status == "active"
        # broadcast fires on the second tick; the listener (later in id
        # order) sees it the same tick and completes.
        second = step(w)
        u2_kinds = [e.kind for e in second if e.subject == "u2"]
        assert "action-completed" in u2_kinds
        assert w.uuv("u2").status == "completed"

    def test_navigate_to_broadcast_follows_received_position(self):
        sender = uuv("u1", 0.0, 0.0, queue=[act("broadcast", "u1")])
        chaser = uuv(
            "u2", 300.0, 0.0,
            queue=[act("navigate-to-broadcast", "u2", add=[("at-rendezvous", "u2")])],
        )
        w = world([sender, chaser], [], arrival_tolerance=1.0)
        w, _ = run_until(w, lambda ww, _: ww.uuv("u2").status != "active")
        u2 = w.uuv("u2")
        assert u2.status == "completed"
        assert u2.estimated_position == Point2D(0.0, 0.0)

    def test_navigate_to_broadcast_without_position_fails(self):
        chaser = uuv("u2", 300.0, 0.0, queue=[act("navigate-to-broadcast", "u2")])
        w = world([chaser], [])
        events = step(w)
        assert w.uuv("u2").status == "failed"
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
        assert detections[0].payload["beacon"] == "b1"
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

    def test_unknown_ids_raise(self):
        w = world([uuv("u1", 0.0, 0.0)], [])
        with pytest.raises(SimulationError):
            w.uuv("nope")
        with pytest.raises(SimulationError):
            w.beacon("nope")
