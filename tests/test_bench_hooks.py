"""The benchmark's tracer rebinds names in uuvnav's modules
(``bench/tracing.py``).  Running it here makes a rename under ``src/``
that breaks ``bench/run.py --trace 1`` fail the test suite instead.
"""

import json
import math
from pathlib import Path

import pytest

from uuvnav.cli import main
from uuvnav.sim.world import pulse_fires

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import tracing

    return tracing


def test_tracer_hooks_see_a_simulate_run(capsys, tmp_path, tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install_spans(tracer)
        tracing.install_counters(tracer)
        out_dir = tmp_path / "run"
        code = main(
            ["simulate", "--scenario", str(REPO / "scenarios" / "nominal.yaml"),
             "--out-dir", str(out_dir)]
        )
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    steps = [span for span in tracer.spans if span[0] == "sim.step"]
    assert len(steps) == summary["ticks"] > 0
    assert any(span[0] == "monitor.check" for span in tracer.spans)
    assert tracer.counts["sim.sense_calls"] > 0
    assert tracer.counts["sim.sense_hits"] == summary["event_counts"]["detection"]
    assert tracer.counts["sim.detections"] == summary["event_counts"]["detection"]


def test_tracer_sees_one_sense_call_per_vehicle_and_pulsing_beacon_in_its_block(
    capsys, monkeypatch, tmp_path, tracing
):
    import uuvnav.sim.runner as runner

    # counted from the world after each step, with the pulse rule run on
    # every beacon and the block rule of uuvnav.sim.world written out: a
    # vehicle that has not failed range-tests each pulsing beacon whose
    # cell is within one of its own on both axes, or every pulsing beacon
    # once a coordinate of the vehicle is past side × 2**20
    pairs = 0
    step = runner.step

    def cell(x, y, side):
        return math.floor(x / side), math.floor(y / side)

    def counted_step(world):
        nonlocal pairs
        events = step(world)
        beacons = world.beacons.values()
        side = max([1.0] + [b.acoustic_range for b in beacons]) * (1.0 + 2.0**-20)
        pulsing = [
            cell(b.position.x, b.position.y, side)
            for b in beacons
            if b.active and pulse_fires(world.ticks_run, world.params.tick, b.pulse_period)
        ]
        for u in world.uuvs:
            if u.status == "failed":
                continue
            x, y = u.true_position.x, u.true_position.y
            if max(abs(x), abs(y)) > side * 2.0**20:
                pairs += len(pulsing)
                continue
            cx, cy = cell(x, y, side)
            pairs += sum(abs(bx - cx) <= 1 and abs(by - cy) <= 1 for bx, by in pulsing)
        return events

    monkeypatch.setattr(runner, "step", counted_step)
    tracer = tracing.Tracer()
    try:
        tracing.install_counters(tracer)
        code = main(
            ["simulate", "--scenario", str(REPO / "scenarios" / "nominal.yaml"),
             "--out-dir", str(tmp_path / "run")]
        )
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    assert tracer.counts["sim.sense_calls"] == pairs > 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert tracer.counts["sim.sense_hits"] == summary["event_counts"]["detection"]


def test_tracer_hooks_count_the_b6_divergence(capsys, tmp_path, tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install_spans(tracer)
        out_dir = tmp_path / "run"
        code = main(
            ["simulate", "--scenario", str(REPO / "scenarios" / "b6-silenced.yaml"),
             "--out-dir", str(out_dir)]
        )
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    names = [span[0] for span in tracer.spans]
    assert names.count("monitor.check") == summary["ticks"] > 0
    assert tracer.counts["monitor.divergences"] == 1
    assert names.count("monitor.replan") == 1


def test_tracer_hooks_see_plan_and_validate(capsys, tmp_path, tracing):
    inputs = [
        "--domain", str(REPO / "domains" / "uuv-nav.hddl"),
        "--problem", str(REPO / "scenarios" / "problems" / "uuv1-mission.hddl"),
    ]
    plan_path = tmp_path / "plan.json"
    tracer = tracing.Tracer()
    try:
        tracing.install_spans(tracer)
        plan_code = main(["plan", *inputs, "--format", "json", "--out", str(plan_path)])
        plan_spans = [span[0] for span in tracer.spans]
        validate_code = main(["validate", *inputs, "--plan", str(plan_path)])
        validate_spans = [span[0] for span in tracer.spans[len(plan_spans):]]
    finally:
        tracer.restore()
    capsys.readouterr()
    assert plan_code == validate_code == 0
    assert plan_spans.count("htn.plan") == 1 and "htn.validate" not in plan_spans
    assert validate_spans.count("htn.validate") == 1 and "htn.plan" not in validate_spans
    assert "hddl.ground" in plan_spans and "hddl.ground" in validate_spans
    assert tracer.counts["hddl.ground_instances"] > 0
    stats = json.loads(plan_path.read_text())["stats"]
    assert tracer.counts["htn.nodes_expanded"] == stats["nodes_expanded"]
