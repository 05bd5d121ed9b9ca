"""Benchmark for the uuvnav pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/uuvnav`` and
``domains/uuv-nav.hddl`` must be there).  The run generates the
workload's inputs from the seed, then issues its CLI commands through
``uuvnav.cli.main`` in this one process, pass after pass, for S seconds.
Every pass's outputs are checked and hashed; the first pass is a warm-up
and is not timed into the result.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run.  Earlier lines are a readable report.  Inputs,
outputs and spans go to ``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from tracing import LAYERS, Tracer, install_counters, install_spans, percentile, summarize

ROOT = Path.cwd()
SRC = ROOT / "src"
DOMAIN = ROOT / "domains" / "uuv-nav.hddl"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 11
MIN_PASSES = 3  # one warm-up plus at least two timed passes
SETUP_CODE = (
    "import time; t = time.perf_counter(); import uuvnav.cli; "
    "print(time.perf_counter() - t)"
)


def measure_setup() -> list[float]:
    """Seconds a fresh interpreter takes to import uuvnav.cli, SETUP_RUNS
    times, after one unmeasured import that fills the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(done.stdout))
    return times


def make_invoke(cli):
    """Run one CLI command in-process and time only the main() call."""

    def invoke(argv: list[str]) -> workloads.Outcome:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback counts as a failed command
                code = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        return workloads.Outcome(argv, code, out.getvalue(), err.getvalue(), seconds)

    return invoke


class Pass:
    """One pass: its outcomes, check failures, work done, output digests
    and the bytes the CLI wrote."""

    def __init__(self, workload, outcomes):
        self.outcomes = outcomes
        self.wall = sum(o.seconds for o in outcomes)
        self.failures = workload.check(outcomes)
        self.work = workload.work_units(outcomes)
        files = workload.output_files()
        self.digests = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() if f.exists() else None for f in files
        }
        self.output_bytes = sum(f.stat().st_size for f in files if f.exists()) + sum(
            len(o.stdout.encode()) for o in outcomes
        )


def fresh_pass(workload, invoke) -> list[workloads.Outcome]:
    """Run one pass from a collected heap, as a fresh CLI process would
    start; the collection is outside the timed calls."""
    gc.collect()
    return workload.run_pass(invoke)


def run_passes(workload, invoke, seconds: float) -> list[Pass]:
    """Repeat passes until ``seconds`` have gone by and at least
    MIN_PASSES ran."""
    deadline = perf_counter() + seconds
    passes = []
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(Pass(workload, fresh_pass(workload, invoke)))
    return passes


def median(values):
    return statistics.median(values) if values else 0.0


def upper_decile(values):
    """The time that nine tenths of the samples stay under.

    On a shared host a sample is slow whenever a neighbour shares its
    core, and such samples run at one steady, slower speed. How many
    samples find the core free changes from run to run, so the median and
    the fast tail move with the neighbours while this stays put.
    """
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def tally(passes: list[Pass]) -> tuple[int, int, list[str]]:
    """Commands attempted, commands failed, and the failure messages."""
    attempted = sum(len(p.outcomes) for p in passes)
    failed = 0
    messages = []
    for p in passes:
        failed += len({index for index, _ in p.failures})
        for index, message in p.failures:
            stderr = p.outcomes[index].stderr.strip()
            messages.append(message + (f" ({stderr})" if stderr else ""))
    return attempted, failed, messages


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    timed = passes[1:]
    walls = [p.wall for p in timed]
    wall = upper_decile(walls)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": upper_decile(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        # every pass does the same work: their outputs are identical
        "work_per_s": {"value": timed[0].work / wall, "unit": "1/s"},
    }
    samples = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": 1, "work_per_s": len(walls)}
    return metrics, samples


def per_layer(workload, untraced: list[Pass], traced: list[Pass], traces: list[dict], counts: dict, extra: dict) -> dict:
    def med(fn):
        return median([fn(t) for t in traces])

    def total(name):
        return med(lambda t: t["total"].get(name, 0.0))

    def calls(name):
        return int(med(lambda t: t["calls"].get(name, 0)))

    def pct(name, q):
        return med(lambda t: percentile(t["durations"].get(name, []), q)) * 1e6

    iterations = counts.get("deploy.iterations", 0)
    lloyd_s = total("deploy.lloyd")
    sense_calls = extra["sense_calls"]
    values = {
        "geo.load_grid_s": total("geo.load_grid"),
        "geo.polygon_mask_s": total("geo.polygon_mask"),
        "geo.cells": getattr(workload, "cells", 0),
        "deploy.lloyd_s": lloyd_s,
        "deploy.iterations": iterations,
        "deploy.iter_s": lloyd_s / iterations if iterations else 0.0,
        "deploy.assign_pass_s": extra["assign_pass_s"],
        "deploy.tracemalloc_peak_mb": extra["tracemalloc_peak_bytes"] / 2**20,
        "deploy.graph_s": total("deploy.graph"),
        "deploy.astar_us.p50": pct("deploy.astar", 50),
        "deploy.astar_us.p99": pct("deploy.astar", 99),
        "deploy.astar_queries": calls("deploy.astar"),
        "config.load_scenario_s": total("config.load_scenario"),
        "config.load_beacons_s": total("config.load_beacons"),
        "hddl.parse_domain_s": total("hddl.parse_domain"),
        "hddl.parse_problem_s": total("hddl.parse_problem"),
        "hddl.ground_s": total("hddl.ground"),
        "hddl.ground_instances": counts.get("hddl.ground_instances", 0),
        "htn.plan_s": total("htn.plan"),
        "htn.plan_calls": calls("htn.plan"),
        "htn.nodes_expanded": counts.get("htn.nodes_expanded", 0),
        "htn.decompositions": counts.get("htn.decompositions", 0),
        "htn.validate_s": total("htn.validate"),
        "htn.validate_calls": calls("htn.validate"),
        "sim.step_s": total("sim.step"),
        "sim.step_us.p50": pct("sim.step", 50),
        "sim.step_us.p99": pct("sim.step", 99),
        "sim.ticks": calls("sim.step"),
        "sim.events": counts.get("sim.events", 0),
        "sim.detections": counts.get("sim.detections", 0),
        "sim.sense_calls": sense_calls,
        "sim.detection_hit_ratio": extra["sense_hits"] / sense_calls if sense_calls else 0.0,
        "monitor.check_s": total("monitor.check"),
        "monitor.check_calls": calls("monitor.check"),
        "monitor.divergences": counts.get("monitor.divergences", 0),
        "monitor.replan_s": total("monitor.replan"),
        "monitor.replan_episodes": calls("monitor.replan"),
        "cli.output_bytes": traced[0].output_bytes,
        "trace.overhead_ratio": median([p.wall for p in traced]) / median([p.wall for p in untraced[1:]]),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = med(lambda t: t["self_by_layer"][layer])
    units = {}
    for name in values:
        if name.endswith("_s"):
            units[name] = "s"
        elif ".astar_us." in name or ".step_us." in name:
            units[name] = "us"
        elif name.endswith("_mb"):
            units[name] = "MB"
        elif name.endswith("ratio"):
            units[name] = "ratio"
        elif name.endswith("_bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def traced_run(workload, invoke, seconds: float):
    """A warm-up, untraced and traced passes in turn, then one counting pass.

    Alternating the two kinds of pass keeps drift in machine speed out of
    the overhead ratio.
    """
    import uuvnav.deploy

    untraced, traced, traces, spans, counts = [], [], [], [], []
    tracer = Tracer()

    def traced_pass() -> None:
        tracer.clear()
        install_spans(tracer)
        try:
            outcomes = fresh_pass(workload, invoke)
        finally:
            tracer.restore()
        traced.append(Pass(workload, outcomes))
        traces.append(summarize(tracer.spans))
        spans.append(list(tracer.spans))
        counts.append(dict(tracer.counts))

    def untraced_pass() -> None:
        untraced.append(Pass(workload, fresh_pass(workload, invoke)))

    untraced_pass()  # warm-up
    deadline = perf_counter() + seconds * 0.8
    while len(traced) < 2 or perf_counter() < deadline:
        # swap the order in every other pair, so neither kind always goes first
        pair = (untraced_pass, traced_pass) if len(traced) % 2 == 0 else (traced_pass, untraced_pass)
        for one_pass in pair:
            one_pass()
    # layer counts repeat exactly from pass to pass
    problems = [] if all(c == counts[0] for c in counts) else [f"layer counts differ between traced passes: {counts}"]
    kept = tracer.kept.get("deploy")

    counter = Tracer()
    install_counters(counter)
    try:
        counting = Pass(workload, fresh_pass(workload, invoke))
    finally:
        counter.restore()

    assign = []
    if kept is not None:
        from uuvnav.geo import load_ascii_grid, polygon_from_geojson

        grid = load_ascii_grid(workload.inputs["bathymetry"].read_text())
        poly = polygon_from_geojson(workload.inputs["area"].read_text())
        for _ in range(3):
            start = perf_counter()
            uuvnav.deploy.assign_cells(kept.beacon_positions, kept.site_weights, grid, poly)
            assign.append(perf_counter() - start)
    extra = {
        "assign_pass_s": median(assign),
        "tracemalloc_peak_bytes": counter.counts["deploy.tracemalloc_peak_bytes"],
        "sense_calls": counter.counts["sim.sense_calls"],
        "sense_hits": counter.counts["sim.sense_hits"],
    }
    with open(workload.work / "spans.jsonl", "w") as fh:
        for i, pass_spans in enumerate(spans):
            for name, start, end, parent in pass_spans:
                fh.write(json.dumps({"pass": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
    metrics = per_layer(workload, untraced, traced, traces, counts[0], extra)
    top = sorted(((v, k) for k, v in traces[-1]["self_by_name"].items()), reverse=True)[:6]
    notes = [f"self time {k}: {v:.4f} s" for v, k in top]
    return untraced + traced + [counting], metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uuvnav" / "cli.py").is_file() or not DOMAIN.is_file():
        print(f"error: run from a uuvnav checkout; {SRC / 'uuvnav'} or {DOMAIN} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uuvnav.cli as cli

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    setup = measure_setup() if args.trace == 0 else []
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.make(args.workload, args.seed, work, DOMAIN.read_text())
    workload.generate()
    invoke = make_invoke(cli)

    if args.trace:
        passes, metrics, notes, problems = traced_run(workload, invoke, args.seconds)
        samples = {}
    else:
        passes = run_passes(workload, invoke, args.seconds)
        metrics, samples = end_to_end(passes, setup)
        notes, problems = [], []

    attempted, failed, messages = tally(passes)
    digests = {json.dumps(p.digests, sort_keys=True) for p in passes}
    if len(digests) != 1:
        problems.append("outputs differ between passes")
    messages += problems
    correct = failed == 0 and not problems

    timed = passes[1:]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "failure_ratio": failed / attempted,
        "work_metric": workload.work_metric,
        "work_per_pass": passes[0].work,
        "first_pass_s": passes[0].wall,
        "pass_walls_s": [p.wall for p in passes],
        "samples": samples,
        "digests": passes[0].digests,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, {attempted} commands, {failed} failed")
    for message in messages[:20] + notes:
        print(f"  {message}")
    for name, m in metrics.items():
        n = samples.get(name)
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}" + (f"  (n={n})" if n else ""))
    if not args.trace:
        print(f"  {workload.work_metric:28s} {metrics['work_per_s']['value']:.6g} 1/s  (n={len(timed)})")
        print(f"  {'failure_ratio':28s} {detail['failure_ratio']:.6g} ratio  (n={attempted})")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
