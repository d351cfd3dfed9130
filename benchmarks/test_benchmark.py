"""Tests of the benchmark itself: failed checks count and fail the run.

Run from the repository root: python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import circnoc  # noqa: E402
import tracer as tracer_module  # noqa: E402
from worker import reference_distances, route_error  # noqa: E402


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    """A copy of what a benchmark checkout holds, safe to corrupt."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def _run(root: Path, workload: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def test_route_error_accepts_valid_and_flags_invalid_routes():
    n, s2 = 100, 44
    cfg = circnoc.RouterConfig(n, 1, s2)
    ref = reference_distances(n, s2)
    for algorithm in circnoc.ALGORITHMS:
        trace = circnoc.trace_route(algorithm, 0, 37, cfg)
        assert route_error(trace, algorithm, 0, 37, n, s2, ref) is None
    table = circnoc.trace_route("table", 0, 37, cfg)
    detour = table.nodes[:1] + (1, 0) + table.nodes[1:]
    longer = circnoc.RouteTrace("table", n, 1, s2, 0, 37, detour, (0, 2) + table.ports)
    assert "shortest" in route_error(longer, "table", 0, 37, n, s2, ref)
    jump = circnoc.RouteTrace("table", n, 1, s2, 0, 37, (0, 37), (0,))
    assert "not port" in route_error(jump, "table", 0, 37, n, s2, ref)
    short = circnoc.RouteTrace("table", n, 1, s2, 0, 37, table.nodes[:-1], table.ports[:-1])
    assert "src to dst" in route_error(short, "table", 0, 37, n, s2, ref)


def test_corrupted_pinned_hash_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    pinned_path = root / "benchmarks" / "pinned_sha256.json"
    pinned = json.loads(pinned_path.read_text())
    pinned["design_search_csv"] = "0" * 64
    pinned_path.write_text(json.dumps(pinned))
    code, lines = _run(root, "design_search")
    result = json.loads(lines[-1])
    assert code == 1
    assert result["failed"] >= 1 and not result["correct"]


def test_invalid_route_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    routing = root / "src" / "circnoc" / "routing.py"
    text = routing.read_text()
    unit_only = text.replace("step = cfg.s2 if s >= cfg.s2 else cfg.s1", "step = cfg.s1")
    assert unit_only != text
    routing.write_text(unit_only)
    code, lines = _run(root, "route_traffic")
    result = json.loads(lines[-1])
    assert code == 1
    assert result["failed"] >= 1 and not result["correct"]


def test_directory_without_sources_fails_without_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    code, lines = _run(root, "paper_figures")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.fixture
def tracer():
    instance = tracer_module.Tracer()
    yield instance
    instance.uninstall()


def test_tracer_wraps_every_binding_and_restores_them(tracer):
    topology, harness, routing = circnoc.topology, circnoc.harness, circnoc.routing
    original = routing.trace_route
    tracer.install()
    assert harness.trace_route is routing.trace_route is circnoc.trace_route is not original
    rows = topology.compare_topologies([3], "best_general")
    names = {span[0] for span in tracer.spans}
    assert {"topology.search_best_circulant2", "topology.metrics", "topology.build_graph"} <= names
    assert tracer.counts["topology.bfs_distances"] == 3 * 9
    assert rows[0].circulant_metrics.diameter >= 1
    tracer.uninstall()
    assert harness.trace_route is routing.trace_route is circnoc.trace_route is original


def test_tracer_reports_missing_boundary_as_absent(tracer, monkeypatch):
    gone = ("circnoc.topology", "no_such_function", "topology.gone", "span")
    monkeypatch.setattr(tracer_module, "BOUNDARIES", tracer_module.BOUNDARIES + (gone,))
    tracer.install()
    assert tracer.absent == ["circnoc.topology.no_such_function"]
    assert tracer.layer_metrics()["tracing.absent_boundaries"] == 1


def test_self_time_excludes_children(tracer):
    tracer.spans.extend([
        ("outer", 0.0, 10.0, -1, 0, None),
        ("inner", 1.0, 4.0, 0, 0, None),
        ("inner", 5.0, 6.0, 0, 0, None),
    ])
    assert [own for _, _, _, own in tracer.self_times()] == [6.0, 3.0, 1.0]


def test_per_layer_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {metric["name"] for metric in spec["per_layer"]}
    produced = set(tracer_module.Tracer().layer_metrics())
    assert produced <= listed
