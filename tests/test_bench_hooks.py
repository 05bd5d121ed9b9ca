"""The benchmark's tracer rebinds names in uuvnav's modules
(``bench/tracing.py``).  Running it here makes a rename under ``src/``
that breaks ``bench/run.py --trace 1`` fail the test suite instead.
"""

import json
from pathlib import Path

from uuvnav.cli import main

REPO = Path(__file__).resolve().parent.parent


def test_tracer_hooks_see_a_simulate_run(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    from tracing import Tracer, install_counters, install_spans

    tracer = Tracer()
    try:
        install_spans(tracer)
        install_counters(tracer)
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
