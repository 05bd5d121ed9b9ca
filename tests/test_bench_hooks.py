"""The benchmark's tracer rebinds names in uuvnav's modules
(``bench/tracing.py``).  Running it here makes a rename under ``src/``
that breaks ``bench/run.py --trace 1`` fail the test suite instead.
"""

import json
from pathlib import Path

import pytest

from uuvnav.cli import main

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


def test_tracer_sees_one_sense_call_per_vehicle_and_pulsing_beacon(
    capsys, monkeypatch, tmp_path, tracing
):
    import uuvnav.sim.runner as runner

    # counted from the world after each step, with the pulse rule run on
    # every beacon: vehicles that have not failed times beacons that pulsed
    pairs = 0
    step = runner.step

    def counted_step(world):
        nonlocal pairs
        events = step(world)
        listening = sum(u.status != "failed" for u in world.uuvs)
        pulsing = sum(
            b.pulses_during(world.ticks_run, world.params.tick) for b in world.beacons.values()
        )
        pairs += listening * pulsing
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
