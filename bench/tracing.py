"""Spans and counters around calls into uuvnav's layers.

Nothing under ``src/`` is instrumented.  Instead the benchmark rebinds
names in uuvnav's modules to timing wrappers (``uuvnav.sim.runner.step``,
``uuvnav.cli.ground`` and so on), so a call made through that name opens
a span.  Spans are kept in memory as ``[name, start, end, parent]`` and
written out by the caller when the run ends.  Everything installed is put
back by ``restore``.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("geo", "deploy", "config", "hddl", "htn", "sim", "monitor", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.kept: dict[str, object] = {}  # last result of selected calls
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        """Replace ``module.attr`` with a wrapper that records a span."""
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def patch(self, module, attr: str, replacement) -> None:
        """Replace ``module.attr`` with ``replacement(original)``, no span."""
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, replacement(fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()


def _on_lloyd(tracer: Tracer, result) -> None:
    tracer.counts["deploy.iterations"] += result.iterations_used
    tracer.kept["deploy"] = result


def _on_ground(tracer: Tracer, result) -> None:
    tracer.counts["hddl.ground_instances"] += result.instance_count


def _on_plan(tracer: Tracer, result) -> None:
    tracer.counts["htn.nodes_expanded"] += result.stats.nodes_expanded
    tracer.counts["htn.decompositions"] += result.stats.decompositions


def _on_check(tracer: Tracer, result) -> None:
    tracer.counts["monitor.divergences"] += len(result)


def _on_run(tracer: Tracer, result) -> None:
    tracer.counts["sim.events"] += len(result.events)
    tracer.counts["sim.detections"] += sum(e.kind == "detection" for e in result.events)


def install_spans(tracer: Tracer) -> None:
    """Wrap the public functions each layer is entered through."""
    import uuvnav.cli as cli
    import uuvnav.deploy as deploy
    import uuvnav.monitor as monitor
    import uuvnav.sim.runner as runner

    tracer.wrap(cli, "main", "cli.main")
    for module, attr, name, on_result in (
        (cli, "load_ascii_grid", "geo.load_grid", None),
        (cli, "polygon_from_geojson", "geo.load_polygon", None),
        (deploy, "cells_in_polygon", "geo.polygon_mask", None),
        (cli, "lloyd_deploy", "deploy.lloyd", _on_lloyd),
        (cli, "build_beacon_graph", "deploy.graph", None),
        (cli, "BeaconGraph", "deploy.graph", None),
        (cli, "astar_route", "deploy.astar", None),
        (cli, "load_scenario", "config.load_scenario", None),
        (cli, "load_beacons", "config.load_beacons", None),
        (runner, "load_beacons", "config.load_beacons", None),
        (cli, "parse_domain", "hddl.parse_domain", None),
        (runner, "parse_domain", "hddl.parse_domain", None),
        (cli, "parse_problem", "hddl.parse_problem", None),
        (runner, "parse_problem", "hddl.parse_problem", None),
        (cli, "ground", "hddl.ground", _on_ground),
        (runner, "ground", "hddl.ground", _on_ground),
        (cli, "plan", "htn.plan", _on_plan),
        (runner, "plan", "htn.plan", _on_plan),
        (monitor, "plan", "htn.plan", _on_plan),
        (cli, "validate", "htn.validate", None),
        (cli, "run_scenario", "sim.run_scenario", _on_run),
        (runner, "step", "sim.step", None),
        (monitor, "check", "monitor.check", _on_check),
        (monitor, "replan_episode", "monitor.replan", None),
    ):
        tracer.wrap(module, attr, name, on_result)


def install_counters(tracer: Tracer) -> None:
    """Count detection-scan calls and take deploy's tracemalloc peak.

    Both cost far more than a span (the scan calls sense_beacon once per
    vehicle and beacon every tick), so they run in a pass of their own
    whose time is not reported.
    """
    import uuvnav.cli as cli
    import uuvnav.sim.world as world

    counts = tracer.counts

    def count_sense(fn):
        def sense_beacon(*args):
            heard = fn(*args)
            counts["sim.sense_calls"] += 1
            counts["sim.sense_hits"] += heard
            return heard

        return sense_beacon

    def measure_memory(fn):
        def lloyd_deploy(*args):
            tracemalloc.start()
            try:
                return fn(*args)
            finally:
                counts["deploy.tracemalloc_peak_bytes"] = max(
                    counts["deploy.tracemalloc_peak_bytes"], tracemalloc.get_traced_memory()[1]
                )
                tracemalloc.stop()

        return lloyd_deploy

    tracer.patch(world, "sense_beacon", count_sense)
    tracer.patch(cli, "lloyd_deploy", measure_memory)


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-pass figures from one pass's spans, keyed by span name: total
    time, call count and each call's duration; and self time by layer and
    by span name, where a span's self time is its duration minus that of
    its child spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    self_by_layer: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    self_by_name: dict[str, float] = defaultdict(float)
    for (name, start, end, _), below in zip(spans, child):
        total[name] += end - start
        calls[name] += 1
        durations[name].append(end - start)
        self_by_layer[name.split(".", 1)[0]] += end - start - below
        self_by_name[name] += end - start - below
    return {
        "total": total,
        "calls": calls,
        "durations": durations,
        "self_by_layer": self_by_layer,
        "self_by_name": self_by_name,
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of values; 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
