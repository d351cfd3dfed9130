"""Span tracer that wraps circnoc's public functions from outside the package.

Each wrapped call records one span ``(name, start, end, parent, op, info)``
in memory: ``parent`` is the index of the enclosing span (-1 at the top),
``op`` the benchmark operation that caused it, and ``info`` a detail taken
from the call (the figure id of ``run_experiment``; the algorithm and hop
count of ``trace_route``).  A span's self time is its duration minus the
durations of its direct children; circnoc is single-threaded here, so
children never overlap.

Per-hop functions (``adaptive_step``, ``clockwise_step``) and the cached
``circulant_distance_profile`` are left unwrapped, because a wrapper costs
more than the work it would time.  ``bfs_distances`` only gets a call
counter, so that its BFS work stays in the self time of ``metrics`` and
``efficiency_k``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# (module that defines it, function, metric name, "span" or "count")
BOUNDARIES = (
    ("circnoc.cli", "main", "cli.main", "span"),
    ("circnoc.harness", "run_experiment", "harness.run_experiment", "span"),
    ("circnoc.harness", "fuzz_termination", "harness.fuzz_termination", "span"),
    ("circnoc.topology", "metrics", "topology.metrics", "span"),
    ("circnoc.topology", "bfs_distances", "topology.bfs_distances", "count"),
    ("circnoc.topology", "build_circulant", "topology.build_graph", "span"),
    ("circnoc.topology", "build_mesh", "topology.build_graph", "span"),
    ("circnoc.topology", "build_torus", "topology.build_graph", "span"),
    ("circnoc.topology", "search_best_ring_circulant", "topology.search_best_ring_circulant", "span"),
    ("circnoc.topology", "search_best_circulant2", "topology.search_best_circulant2", "span"),
    ("circnoc.routing", "build_routing_table", "routing.build_routing_table", "span"),
    ("circnoc.routing", "trace_route", "routing.trace_route", "span"),
    ("circnoc.analysis", "efficiency_k", "analysis.efficiency_k", "span"),
    ("circnoc.analysis", "cycle_report", "analysis.cycle_report", "span"),
)

FIGURES = ("topology_metrics", "cycles", "efficiency", "memory", "resources", "capacity")
ALGORITHMS = ("table", "clockwise", "adaptive")


_DETAILS = {
    "harness.run_experiment": lambda result: result.figure,
    "routing.trace_route": lambda result: (result.algorithm, result.hops),
}


class Tracer:
    """Installs span and counter wrappers and keeps what they record."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        """Wrap every boundary in each ``circnoc.*`` namespace that binds it.

        A module that imports a function by name, or a module-level dict
        that maps to it (such as ``topology.SELECTION_RULES``), holds its
        own reference, so each one is replaced.  A boundary that cannot be
        found is listed in ``absent`` instead of failing the run.
        """
        modules = [m for k, m in sys.modules.items() if k == "circnoc" or k.startswith("circnoc.")]
        package = sys.modules.get("circnoc")
        wrappers: dict[int, object] = {}
        for module_name, attr, name, kind in BOUNDARIES:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                original = getattr(package, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
            elif kind == "span":
                wrappers[id(original)] = self._span(name, original, _DETAILS.get(name))
            else:
                wrappers[id(original)] = self._counter(name, original)
        # Each wrapper's closure keeps its original alive, so ids stay unique.
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._replace(module, key, wrappers[id(value)], setattr)
                elif isinstance(value, dict):
                    for item_key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._replace(value, item_key, wrappers[id(item)], dict.__setitem__)

    def uninstall(self) -> None:
        """Put every original function back where ``install`` replaced it."""
        for container, key, original, assign in reversed(self._undo):
            assign(container, key, original)
        self._undo.clear()

    def _replace(self, container, key, wrapper, assign) -> None:
        original = container[key] if isinstance(container, dict) else getattr(container, key)
        self._undo.append((container, key, original, assign))
        assign(container, key, wrapper)

    def _span(self, name, fn, detail):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, self.op, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            info = detail(result) if detail is not None else None
            spans[index] = (name, start, end, parent, self.op, info)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> list[tuple[str, object, float, float]]:
        """``(name, info, duration, self time)`` for every recorded span."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return [
            (name, info, end - start, end - start - children[i])
            for i, (name, start, end, _, _, info) in enumerate(self.spans)
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self times and route statistics from the spans."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        figure_s: Counter = Counter()
        route_self: dict[str, list[float]] = {alg: [] for alg in ALGORITHMS}
        route_hops: Counter = Counter()
        for name, info, duration, own in self.self_times():
            calls[name] += 1
            self_s[name] += own
            if name == "harness.run_experiment" and info is not None:
                figure_s[info] += duration
            elif name == "harness.fuzz_termination":
                figure_s["fuzz"] += duration
            elif name == "routing.trace_route" and info is not None:
                algorithm, hops = info
                route_self[algorithm].append(own)
                route_hops[algorithm] += hops
        out = {"cli.main.self_s": self_s["cli.main"]}
        for figure in FIGURES:
            out[f"harness.run_experiment.s.{figure}"] = figure_s[figure]
        out["harness.fuzz_termination.s"] = figure_s["fuzz"]
        out["topology.metrics.calls"] = calls["topology.metrics"]
        out["topology.metrics.self_s"] = self_s["topology.metrics"]
        out["topology.bfs_distances.calls"] = self.counts["topology.bfs_distances"]
        out["topology.build_graph.self_s"] = self_s["topology.build_graph"]
        for search in ("search_best_ring_circulant", "search_best_circulant2"):
            out[f"topology.{search}.calls"] = calls[f"topology.{search}"]
            out[f"topology.{search}.self_s"] = self_s[f"topology.{search}"]
        out["routing.build_routing_table.self_s"] = self_s["routing.build_routing_table"]
        for alg in ALGORITHMS:
            times = route_self[alg]
            busy = sum(times)
            out[f"routing.trace_route.calls.{alg}"] = len(times)
            out[f"routing.trace_route.self_s.{alg}"] = busy
            out[f"routing.hops.{alg}"] = route_hops[alg]
            out[f"routing.hops_per_s.{alg}"] = route_hops[alg] / busy if busy else 0.0
            out[f"routing.route_us.p50.{alg}"] = _percentile_us(times, 50)
            out[f"routing.route_us.p99.{alg}"] = _percentile_us(times, 99)
        for name in ("efficiency_k", "cycle_report"):
            out[f"analysis.{name}.calls"] = calls[f"analysis.{name}"]
            out[f"analysis.{name}.self_s"] = self_s[f"analysis.{name}"]
        out["tracing.absent_boundaries"] = len(self.absent)
        return out

    def dump(self) -> dict:
        """The recorded spans and counters as one JSON-ready object."""
        return {
            "fields": ["name", "start", "end", "parent", "op", "info"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }


def _percentile_us(times: list[float], pct: int) -> float:
    if len(times) < 2:
        return times[0] * 1e6 if times else 0.0
    return statistics.quantiles(times, n=100)[pct - 1] * 1e6
