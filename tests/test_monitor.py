import math
from pathlib import Path

import pytest

from uuvnav import monitor
from uuvnav.errors import SimulationError
from uuvnav.geo import Point2D
from uuvnav.hddl.ground import GroundAction, ground
from uuvnav.hddl.parser import parse_domain, parse_problem
from uuvnav.sim import BeaconState, UUVState, WorldParams, WorldState

REPO = Path(__file__).resolve().parent.parent
DOMAIN_PATH = REPO / "domains" / "uuv-nav.hddl"
PROBLEMS = REPO / "scenarios" / "problems"


def act(name, *args, add=()):
    return GroundAction(
        name=name,
        args=tuple(args),
        pos_pre=frozenset(),
        neg_pre=frozenset(),
        add_eff=frozenset(add),
        del_eff=frozenset(),
    )


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


BEACONS = {
    "b1": BeaconState(id="b1", position=Point2D(1000.0, 0.0)),
    "b2": BeaconState(id="b2", position=Point2D(1000.0, 1000.0)),
}


def derive(steps, vehicle, params=None, ticks_run=0, beacons=None):
    world = WorldState([vehicle], beacons or BEACONS, params or WorldParams(), ticks_run=ticks_run)
    return monitor.derive_expectations(steps, vehicle, world)


class TestDeriveExpectations:
    def test_single_leg_window(self):
        exps = derive([act("navigate-to-beacon", "u1", "b1")], uuv("u1", 0.0, 0.0))
        assert len(exps) == 1
        e = exps[0]
        # leg: 1000 m at 2 m/s, margin 0.5 * (1 + 100/1000)
        assert e.beacon_id == "b1"
        assert e.step_index == 0
        assert e.earliest == pytest.approx(500.0 * (1.0 - 0.55))
        assert e.latest == pytest.approx(500.0 * (1.0 + 0.55) + 10.0)

    def test_second_leg_chains_position_time_and_uncertainty(self):
        steps = [
            act("navigate-to-beacon", "u1", "b1"),
            act("navigate-to-beacon", "u1", "b2"),
        ]
        exps = derive(steps, uuv("u1", 0.0, 0.0))
        assert len(exps) == 2
        second = exps[1]
        # second leg starts at the first leg's nominal end (t=500) from
        # b1's position with uncertainty grown by the first 1000 m
        unc = 100.0 + 0.02 * 1000.0
        margin = 0.5 * (1.0 + unc / 1000.0)
        assert second.earliest == pytest.approx(500.0 + 500.0 * (1.0 - margin))
        assert second.latest == pytest.approx(500.0 + 500.0 * (1.0 + margin) + 10.0)
        assert exps[0].latest < second.latest

    def test_windows_do_not_share_start_offsets(self):
        steps = [
            act("navigate-to-beacon", "u1", "b1"),
            act("navigate-to-beacon", "u1", "b2"),
        ]
        exps = derive(steps, uuv("u1", 0.0, 0.0))
        assert exps[0].earliest < exps[1].earliest

    def test_circle_resets_uncertainty_for_later_legs(self):
        steps = [
            act("navigate-to-beacon", "u1", "b1"),
            act("circle-localize", "u1", "b1"),
            act("navigate-to-beacon", "u1", "b2"),
        ]
        exps = derive(steps, uuv("u1", 0.0, 0.0))
        last = exps[-1]
        circle_time = math.ceil(2.0 * math.pi * 50.0 / 2.0)
        anchor = 500.0 + circle_time
        margin = 0.5 * (1.0 + 5.0 / 1000.0)
        assert last.earliest == pytest.approx(anchor + 500.0 * (1.0 - margin))
        assert last.latest == pytest.approx(anchor + 500.0 * (1.0 + margin) + 10.0)

    def test_sense_shifts_anchor_by_pulse_period(self):
        steps = [
            act("navigate-to-beacon", "u1", "b1"),
            act("sense-beacon", "u1", "b1"),
            act("navigate-to-beacon", "u1", "b2"),
        ]
        with_sense = derive(steps, uuv("u1", 0.0, 0.0))
        without = derive([steps[0], steps[2]], uuv("u1", 0.0, 0.0))
        assert with_sense[1].earliest == pytest.approx(without[1].earliest + 10.0)

    def test_slack_and_sense_use_the_beacons_own_pulse_period(self):
        slow_b1 = BeaconState(id="b1", position=Point2D(1000.0, 0.0), pulse_period=30.0)
        slow = {**BEACONS, "b1": slow_b1}
        steps = [
            act("navigate-to-beacon", "u1", "b1"),
            act("sense-beacon", "u1", "b1"),
            act("navigate-to-beacon", "u1", "b2"),
        ]
        params = WorldParams(pulse_period=10.0)
        exps = derive(steps, uuv("u1", 0.0, 0.0), params=params, beacons=slow)
        assert exps[0].latest == pytest.approx(500.0 * (1.0 + 0.55) + 30.0)
        without_sense = derive([steps[0], steps[2]], uuv("u1", 0.0, 0.0), beacons=slow)
        assert exps[1].earliest == pytest.approx(without_sense[1].earliest + 30.0)

    def test_transit_leg_advances_but_gets_no_window(self):
        steps = [
            act("transit-leg", "u1", "b1"),
            act("navigate-to-beacon", "u1", "b2"),
        ]
        exps = derive(steps, uuv("u1", 0.0, 0.0))
        assert len(exps) == 1
        assert exps[0].beacon_id == "b2"
        assert exps[0].step_index == 1
        assert exps[0].earliest > 500.0

    def test_projection_stops_at_await(self):
        steps = [
            act("await-broadcast", "u1"),
            act("navigate-to-beacon", "u1", "b1"),
        ]
        assert derive(steps, uuv("u1", 0.0, 0.0)) == []

    def test_zero_speed_with_distance_is_error(self):
        vehicle = uuv("u1", 0.0, 0.0, speed=0.0)
        with pytest.raises(SimulationError, match="zero speed"):
            derive([act("navigate-to-beacon", "u1", "b1")], vehicle)

    def test_zero_speed_circle_is_error(self):
        vehicle = uuv("u1", 1000.0, 0.0, speed=0.0)
        with pytest.raises(SimulationError, match="zero speed"):
            derive([act("circle-localize", "u1", "b1")], vehicle)

    def test_unknown_beacon_is_error(self):
        with pytest.raises(SimulationError, match="no position known"):
            derive([act("navigate-to-beacon", "u1", "b9")], uuv("u1", 0.0, 0.0))

    def test_zero_distance_leg_expects_a_pulse_soon(self):
        vehicle = uuv("u1", 1000.0, 0.0)
        exps = derive([act("navigate-to-beacon", "u1", "b1")], vehicle, ticks_run=40)
        assert exps[0].earliest == 40.0
        assert exps[0].latest == 50.0


def window(uuv_id="u1", beacon_id="b1", step_index=0, earliest=225.0, latest=785.0):
    return monitor.Expectation(uuv_id, beacon_id, step_index, earliest, latest)


def settle(world, tick_number, heard=()):
    """Check the world's windows on this tick, after each (vehicle id,
    beacon id) in ``heard`` heard its beacon on it."""
    world.ticks_run = tick_number
    for uuv_id, beacon_id in heard:
        world.uuv(uuv_id).last_detection[beacon_id] = tick_number
    return monitor.check(world)


class TestCheckAndDetections:
    def make_world(self):
        u1, u2 = uuv("u1", 0.0, 0.0), uuv("u2", 0.0, 0.0)
        u1.expectations = [window()]
        return WorldState(uuvs=[u1, u2], beacons=dict(BEACONS), params=WorldParams())

    def test_detection_marks_met(self):
        world = self.make_world()
        assert settle(world, 300, heard=[("u1", "b1")]) == []
        assert world.uuv("u1").expectations == []

    def test_early_detection_counts(self):
        world = self.make_world()
        assert settle(world, 100, heard=[("u1", "b1")]) == []
        assert world.uuv("u1").expectations == []

    def test_late_detection_does_not_count(self):
        world = self.make_world()
        assert settle(world, 790, heard=[("u1", "b1")]) == [window()]
        assert world.uuv("u1").expectations == []

    def test_other_subject_or_beacon_ignored(self):
        world = self.make_world()
        assert settle(world, 300, heard=[("u2", "b1"), ("u1", "b2")]) == []
        assert world.uuv("u1").expectations == [window()]

    def test_detection_on_an_earlier_tick_is_ignored(self):
        world = self.make_world()
        world.uuv("u1").last_detection["b1"] = 299
        assert settle(world, 300) == []
        assert world.uuv("u1").expectations == [window()]

    def test_check_fires_after_window_close(self):
        world = self.make_world()
        assert settle(world, 785) == []
        assert world.uuv("u1").expectations == [window()]
        assert settle(world, 786) == [window()]
        assert world.uuv("u1").expectations == []

    def test_check_fires_only_once(self):
        world = self.make_world()
        assert len(settle(world, 786)) == 1
        assert settle(world, 787) == []

    def test_met_window_never_fires(self):
        world = self.make_world()
        settle(world, 300, heard=[("u1", "b1")])
        assert settle(world, 1000) == []

    def test_failed_vehicle_window_still_fires(self):
        world = self.make_world()
        world.uuv("u1").status = "failed"
        assert settle(world, 786) == [window()]

    def test_windows_close_in_fleet_then_plan_order(self):
        world = self.make_world()
        later = window(beacon_id="b2", step_index=1, latest=700.0)
        world.uuv("u1").expectations.append(later)
        world.uuv("u2").expectations = [window(uuv_id="u2", latest=10.0)]
        assert settle(world, 786) == [window(), later, window(uuv_id="u2", latest=10.0)]


def load_setup(problem_name):
    domain = parse_domain(DOMAIN_PATH.read_text())
    problem = parse_problem((PROBLEMS / problem_name).read_text(), domain)
    tables = ground(domain, problem)
    return (
        monitor.PlanningSetup(tables=tables, network=problem.htn, goal=problem.goal),
        set(problem.init),
    )


class TestReplanEpisode:
    def make_world(self):
        setup1, init1 = load_setup("uuv1-mission.hddl")
        setup2, init2 = load_setup("uuv2-listen.hddl")
        setup3, init3 = load_setup("uuv3-listen.hddl")
        u1 = uuv("uuv1", 4000.0, 4000.0, belief=init1 | {("near", "uuv1", "b6")})
        u1.queue = [
            act("sense-beacon", "uuv1", "b6"),
            act("circle-localize", "uuv1", "b6"),
            act("broadcast", "uuv1"),
            act("navigate-to-beacon", "uuv1", "b8"),
        ]
        u2 = uuv("uuv2", 4500.0, 4000.0, belief=init2, queue=[act("await-broadcast", "uuv2")])
        u3 = uuv("uuv3", 9000.0, 4000.0, belief=init3, queue=[act("await-broadcast", "uuv3")])
        for vehicle, setup in ((u1, setup1), (u2, setup2), (u3, setup3)):
            vehicle.setup = setup
            vehicle.expectations = [window(vehicle.id, "b8", 3, 2000.0, 3000.0)]
        world = WorldState(
            uuvs=[u1, u2, u3],
            beacons={
                "b6": BeaconState(id="b6", position=Point2D(4000.0, 4000.0), active=False),
                "b8": BeaconState(id="b8", position=Point2D(5500.0, 5500.0)),
            },
            params=WorldParams(),
            ticks_run=1626,
        )
        return world, window("uuv1", "b6", 0, 1000.0, 1625.0)

    def test_in_range_vehicles_replan(self):
        world, exp = self.make_world()
        monitor.replan_episode(exp, world)
        replanned = [e.subject for e in world.events if e.kind == "replan-triggered"]
        assert replanned == ["uuv1", "uuv2"]
        u1 = world.uuv("uuv1")
        assert [a.name for a in u1.queue] == ["broadcast", "transit-leg"]
        assert ("beacon-unreachable", "b6") in u1.belief
        assert ("beacon-unreachable", "b6") in world.uuv("uuv2").belief
        assert u1.replan_count == 1

    def test_out_of_range_vehicle_untouched(self):
        world, exp = self.make_world()
        monitor.replan_episode(exp, world)
        u3 = world.uuv("uuv3")
        assert ("beacon-unreachable", "b6") not in u3.belief
        assert [a.name for a in u3.queue] == ["await-broadcast"]
        assert u3.replan_count == 0
        assert u3.expectations == [window("uuv3", "b8", 3, 2000.0, 3000.0)]

    def test_new_expectations_replace_old(self):
        world, exp = self.make_world()
        monitor.replan_episode(exp, world)
        # fallback plan has no beacon-approach legs, so no windows
        assert world.uuv("uuv1").expectations == []
        assert world.uuv("uuv2").expectations == []

    def test_unsolvable_replan_fails_only_that_mission(self):
        world, exp = self.make_world()
        # strip the fact the fallback method needs nothing, but the
        # preferred method everything: removing beacon-active leaves the
        # localize task with no applicable method at all
        u1 = world.uuv("uuv1")
        u1.setup = monitor.PlanningSetup(
            tables=u1.setup.tables, network=(("localize-at", "uuv1", "b6"),), goal=None
        )
        u1.belief.discard(("beacon-active", "b6"))
        monitor.replan_episode(exp, world)
        assert any(e.kind == "mission-failed" and e.subject == "uuv1" for e in world.events)
        assert world.uuv("uuv1").status == "failed"
        assert world.uuv("uuv1").expectations == []
        assert world.uuv("uuv2").status == "active"
        assert [a.name for a in world.uuv("uuv2").queue] == ["await-broadcast", "navigate-to-broadcast"]

    def test_empty_queue_divergence_is_warning_noop(self):
        world, exp = self.make_world()
        u1 = world.uuv("uuv1")
        u1.queue.clear()
        monitor.replan_episode(exp, world)
        assert [e.kind for e in world.events] == ["warning"]
        assert u1.expectations == [window("uuv1", "b8", 3, 2000.0, 3000.0)]
        assert u1.replan_count == 0
        assert ("beacon-unreachable", "b6") not in world.uuv("uuv2").belief

    def test_windows_closing_on_one_tick_each_run_an_episode(self):
        # uuv1 and uuv2 are in comm range and both windows close on tick
        # 1626.  Both are collected before either episode replans, so
        # uuv2's divergence is handled although the first episode has
        # already replaced uuv2's windows.
        world, _ = self.make_world()
        world.uuv("uuv1").expectations = [window("uuv1", "b6", 0, 1000.0, 1625.0)]
        world.uuv("uuv2").expectations = [window("uuv2", "b8", 0, 1000.0, 1625.0)]
        for exp in monitor.check(world):
            monitor.replan_episode(exp, world)
        replans = [
            (e.subject, e.payload["beacon"]) for e in world.events if e.kind == "replan-triggered"
        ]
        assert replans == [("uuv1", "b6"), ("uuv2", "b6"), ("uuv1", "b8"), ("uuv2", "b8")]
        for vehicle in (world.uuv("uuv1"), world.uuv("uuv2")):
            assert {("beacon-unreachable", "b6"), ("beacon-unreachable", "b8")} <= vehicle.belief
            assert vehicle.replan_count == 2
