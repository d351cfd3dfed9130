import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from circnoc import analysis, routing, topology
from circnoc.analysis import chip_capacity
from circnoc.cli import build_parser, main
from circnoc.errors import ValidationError
from circnoc.harness import ExperimentConfig, run_experiment
from circnoc.routing import RouterConfig, build_routing_table, trace_route


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_topo_metrics(capsys):
    code, out, _ = run(capsys, "topo", "--circulant", "8,1,3", "--metrics")
    assert code == 0
    assert "D = 2" in out
    assert "1.4286" in out


def test_topo_metrics_deterministic(capsys):
    _, first, _ = run(capsys, "topo", "--circulant", "16,1,7", "--metrics")
    _, second, _ = run(capsys, "topo", "--circulant", "16,1,7", "--metrics")
    assert first == second


def test_topo_mesh_and_torus(capsys):
    code, out, _ = run(capsys, "topo", "--mesh", "3x3", "--metrics")
    assert code == 0 and "D = 4" in out
    code, out, _ = run(capsys, "topo", "--torus", "3x3", "--metrics")
    assert code == 0 and "D = 2" in out


def test_topo_metrics_csv_lists_every_generatrix(capsys, tmp_path):
    path = tmp_path / "m.csv"
    code, _, _ = run(capsys, "topo", "--circulant", "16,1,3,5", "--metrics", "--out", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8").splitlines() == [
        "n,topology,generatrices,diameter,avg_distance,edges",
        f"16,circulant,1 3 5,3,{26 / 15!r},48",
    ]
    code, _, _ = run(capsys, "topo", "--circulant", "7,1", "--metrics", "--out", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8").splitlines()[1] == "7,circulant,1,3,2.0,7"
    for flag, value, line in [
        ("--circulant", "8,1,3", f"8,circulant,1 3,2,{10 / 7!r},16"),
        ("--mesh", "3x3", "9,mesh,,4,2.0,12"),
        ("--torus", "3x3", "9,torus,,2,1.5,18"),
    ]:
        code, _, _ = run(capsys, "topo", flag, value, "--metrics", "--out", str(path))
        assert code == 0
        assert path.read_text(encoding="utf-8").splitlines()[1] == line


def test_topo_answers_from_the_identity_without_neighbor_lists(capsys):
    # 10**30 neighbor lists could never be built; the sizes are closed forms
    code, out, _ = run(capsys, "topo", "--circulant", f"{10**30},1,3")
    assert code == 0
    assert out == f"C({10**30}; 1, 3): n={10**30} edges={2 * 10**30} max_degree=4\n"
    code, out, _ = run(capsys, "topo", "--torus", "3000x3000", "--metrics")
    assert code == 0
    assert out.splitlines() == [
        "torus 3000x3000: n=9000000 edges=18000000 max_degree=4",
        "diameter D = 3000",
        "average distance L_av = 1500.0002",
    ]


def test_topo_requires_exactly_one_topology(capsys):
    code, _, err = run(capsys, "topo", "--circulant", "8,1,3", "--mesh", "3x3")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "topo")
    assert code == 1


def test_topo_dot_and_edge_exports(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, _, _ = run(capsys, "topo", "--circulant", "8,1,3", "--out", str(dot))
    assert code == 0
    assert dot.read_text(encoding="utf-8").startswith("graph circulant {")
    edges = tmp_path / "g.csv"
    code, _, _ = run(capsys, "topo", "--mesh", "2x2", "--out", str(edges), "--format", "csv")
    assert code == 0
    assert edges.read_text(encoding="utf-8").splitlines()[0] == "u,v"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--circulant", f"{10**30},1,3"),
        ("--mesh", f"{10**15}x{10**15}"),
        ("--torus", f"{10**15}x{10**15}"),
    ],
)
@pytest.mark.parametrize("fmt", ["dot", "csv"])
def test_export_of_a_topology_too_large_to_list_exits_one(capsys, tmp_path, flag, value, fmt):
    # an export lists every node, so an n-entry list that cannot be allocated is a bad input
    path = tmp_path / "g"
    code, _, err = run(capsys, "topo", flag, value, "--out", str(path), "--format", fmt)
    assert code == 1
    assert err == f"error: n={10**30} is too large for an n-entry node list\n"
    assert not path.exists()


def test_table_writes_golden_csv(capsys, tmp_path):
    # rows from,to,port for every u != v, sorted by (from, to)
    path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "table", "--circulant", "8,1,3", "--out", str(path))
    assert code == 0
    assert out.endswith(f"wrote {path}\n")
    table = build_routing_table(RouterConfig(8, 1, 3))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "from,to,port" and lines[1] == "0,1,0"
    assert lines[1:] == [f"{u},{v},{table.port(u, v)}" for u in range(8) for v in range(8) if u != v]


def test_route_trace_and_json(capsys, tmp_path):
    path = tmp_path / "trace.json"
    code, out, _ = run(
        capsys, "route", "--algorithm", "adaptive", "--circulant", "100,1,44",
        "--src", "0", "--dst", "37", "--out", str(path),
    )
    assert code == 0
    assert "hops = 7" in out and "cycles = 2" in out
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["nodes"] == [0, 56, 12, 68, 24, 80, 36, 37]
    expect = trace_route("adaptive", 0, 37, RouterConfig(100, 1, 44))
    assert payload["ports"] == list(expect.ports)


def test_route_with_huge_wrap_bound_stops_scanning(capsys):
    # the scan stops once no further wrap can improve, whatever the bound
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "route", "--algorithm", "adaptive", "--circulant", "100,1,44",
        "--src", "0", "--dst", "37", "--max-cycles", "100000000",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert "0 -> 56 -> 12 -> 68 -> 24 -> 80 -> 36 -> 37" in out


@pytest.mark.parametrize(
    "algorithm, path", [("clockwise", "0 -> 3 -> 4 -> 5"), ("adaptive", "0 -> 3 -> 6 -> 5")]
)
def test_route_on_a_huge_ring_memoizes_only_the_hops_it_routes(capsys, algorithm, path):
    # a clockwise route lists only its hops, and the adaptive memo is a dict
    # keyed by dst - current, so nothing the size of n is allocated
    code, out, _ = run(
        capsys, "route", "--algorithm", algorithm,
        "--circulant", "1000000000000000000000000000000,1,3", "--src", "0", "--dst", "5",
    )
    assert code == 0
    assert path in out and "hops = 3" in out


def test_clockwise_route_too_large_to_list_exits_one(capsys):
    # 1.7e29 hops: the closed form is refused at once instead of walked
    start = time.perf_counter()
    code, _, err = run(
        capsys, "route", "--algorithm", "clockwise",
        "--circulant", "1000000000000000000000000000000,1,3",
        "--src", "0", "--dst", "500000000000000000000000000000",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert err == (
        "error: a clockwise route of 166666666666666666666666666668 hops "
        "is too large for a node list\n"
    )


def test_adaptive_route_too_large_to_list_exits_one(capsys):
    # 0 -> n/2 is two runs, counted from the scans and refused unlisted;
    # a near destination still routes
    ring = ("--algorithm", "adaptive", "--circulant", "1000000000000000000000000000000,1,3")
    start = time.perf_counter()
    code, _, err = run(capsys, "route", *ring, "--src", "0", "--dst", "500000000000000000000000000000")
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert err == (
        "error: an adaptive route of 166666666666666666666666666668 hops "
        "is too large for a node list\n"
    )
    code, out, _ = run(capsys, "route", *ring, "--src", "0", "--dst", "3")
    assert code == 0
    assert "0 -> 3" in out and "hops = 1" in out


def test_route_without_a_wrap_bound(capsys):
    code, out, _ = run(
        capsys, "route", "--algorithm", "adaptive", "--circulant", "100,1,44",
        "--src", "0", "--dst", "37", "--max-cycles", "none",
    )
    assert code == 0
    assert "0 -> 56 -> 12 -> 68 -> 24 -> 80 -> 36 -> 37" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("table",),
        ("efficiency", "--algorithm", "table"),
        ("cycles",),
        ("topo", "--metrics"),
    ],
)
def test_distance_profile_of_a_huge_ring_exits_one(capsys, argv):
    # the n-entry profile cannot be allocated, which is a bad input, not a crash
    code, _, err = run(capsys, *argv, "--circulant", "1000000000000000000000000000000,1,3")
    assert code == 1
    assert err.startswith("error: n=1000000000000000000000000000000 ")


def test_cycles_on_a_huge_ring_near_its_floor_exits_one_at_once(capsys):
    # this s2's lattice floor, about 0.74 sqrt(n), puts the ring over the
    # wrap budget, but its tents are too many to lay for the exact D, so
    # the profile refuses the n as it does for s2 = 3
    start = time.perf_counter()
    code, _, err = run(capsys, "cycles", "--circulant", "1000000000000000000000000000000,1,1414213562373095")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err == "error: n=1000000000000000000000000000000 is too large for an n-entry distance profile\n"


def test_table_route_on_a_huge_ring_answers_from_the_scan(capsys):
    # the route's legs come from the candidate scan, so no n-entry profile is built
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "route", "--algorithm", "table", "--circulant", "1000000000000000000000000000000,1,3",
        "--src", "0", "--dst", "5",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "0 -> 1 -> 2 -> 5" in out and "hops = 3" in out


@pytest.mark.parametrize("algorithm", ["adaptive", "table"])
def test_scan_over_the_wrap_budget_exits_one(capsys, algorithm):
    # C(10^12; 1, n/2 - 1) to n/4 needs about 1.25e11 wraps: refused before the first
    start = time.perf_counter()
    code, _, err = run(
        capsys, "route", "--algorithm", algorithm, "--max-cycles", "none",
        "--circulant", "1000000000000,1,499999999999", "--src", "0", "--dst", "250000000000",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error: a scan of 250000000000 labels in C(1000000000000; 1, 499999999999) needs up to ")
    assert err.endswith(f" ring wraps, above the budget of {routing.WRAP_BUDGET}\n")


def test_unbounded_adaptive_scan_is_capped_by_the_lesser_unwrapped_form(capsys):
    # the away scan's own form allows about 8e10 wraps, but the toward form
    # (3 hops) caps both scans, so the short route answers at once
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "route", "--algorithm", "adaptive", "--max-cycles", "none",
        "--circulant", "1000000000000,1,400000000001", "--src", "0", "--dst", "200000000003",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "0 -> 400000000001 -> 800000000002 -> 200000000003" in out and "hops = 3" in out


def test_compare_of_a_huge_side_exits_one(capsys):
    code, _, err = run(capsys, "compare", "--sides", str(10**30), "--selection", "formula_eq1")
    assert code == 1
    assert err.startswith(f"error: n={10**60} is too large")
    code, _, err = run(capsys, "compare", "--sides", str(10**200), "--selection", "formula_eq1")
    assert code == 1
    assert err.startswith(f"error: n={10**400} is too large")


@pytest.mark.parametrize(
    "argv", [("figure", "--id", "cycles", "--values", str(10**30)), ("compare", "--sides", str(10**15))]
)
def test_ring_search_too_large_to_exist_exits_one(capsys, argv):
    # refused before the walk lays a tent, so nothing the size of n is built
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err == f"error: n={10**30} is too large for an n-entry ring search\n"


@pytest.mark.parametrize(
    "argv, n",
    [
        (("compare", "--sides", "3000"), 9 * 10**6),
        (("compare", "--sides", "100000"), 10**10),
        (("figure", "--id", "cycles", "--values", str(10**10)), 10**10),
    ],
)
def test_ring_search_over_the_budget_exits_one(capsys, argv, n):
    assert n > topology.RING_BUDGET >= 1000 * 1000  # compare --sides 1000 still answers
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err == f"error: n={n} is too large for an n-entry ring search\n"


def test_cycles_over_the_wrap_budget_exits_one(capsys):
    # the best ring at 10^6 is C(10^6; 1, 398018) of diameter 707: its scans
    # would walk up to 708 * 398018 wraps, so they are refused before the first
    code, _, err = run(capsys, "figure", "--id", "cycles", "--values", "1000000")
    assert code == 1
    assert err == (
        "error: the wrap-count scans of C(1000000; 1, 398018) need up to 281796744 ring wraps, "
        f"above the budget of {routing.WRAP_BUDGET}\n"
    )


@pytest.mark.parametrize("flag", ["compare --sides", "figure --id memory --values"])
def test_oversized_value_range_exits_one(capsys, flag):
    code, _, err = run(capsys, *flag.split(), f"3..{10**30}")
    assert code == 1
    assert err == f"error: range '3..{10**30}' has too many values to list\n"


def test_printed_adaptive_livelock_in_figure_exits_one(capsys):
    code, _, err = run(
        capsys, "figure", "--id", "efficiency", "--values", "100", "--mode", "printed",
    )
    assert code == 1
    assert err == (
        "error: adaptive routing livelocks in C(100; 1, 18) "
        "for pair 0 -> 97: cycle 0 -> 82 -> 0\n"
    )


@pytest.mark.parametrize("figure", ["topology_metrics", "cycles", "memory", "resources", "capacity"])
@pytest.mark.parametrize("flags", [("--mode", "printed"), ("--max-cycles", "none"), ("--mode", "corrected")])
def test_figure_mode_flags_outside_efficiency_exit_one(capsys, figure, flags):
    code, out, err = run(capsys, "figure", "--id", figure, *flags)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: figure {figure!r} has no adaptive mode; "
        "--mode and --max-cycles apply only to efficiency\n"
    )


def test_efficiency_figure_still_reads_its_mode_flags(capsys):
    code, out, _ = run(
        capsys, "figure", "--id", "efficiency", "--values", "9,16", "--mode", "printed",
        "--max-cycles", "none",
    )
    assert code == 0
    assert "9,2,adaptive,1.6666666666666667\n" in out
    code, out, _ = run(capsys, "figure", "--id", "efficiency", "--values", "9", "--mode", "corrected")
    assert code == 0
    assert "9,2,adaptive,1.0\n" in out


def test_route_hop_limit_exhaustion_exits_one(capsys):
    # livelocks are proven by a repeated run start, so route takes no hop limit;
    # the 6-hop route that a limit of 2 once cut short is routed in full
    code, out, _ = run(
        capsys, "route", "--algorithm", "clockwise", "--circulant", "16,1,7",
        "--src", "0", "--dst", "6",
    )
    assert code == 0
    assert "0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 6" in out
    code, _, err = run(
        capsys, "route", "--algorithm", "clockwise", "--circulant", "16,1,7",
        "--src", "0", "--dst", "6", "--hop-limit", "2",
    )
    assert code == 1
    assert "unrecognized arguments: --hop-limit 2" in err


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_route_hop_limit_below_one_exits_one(capsys, limit):
    code, _, err = run(
        capsys, "route", "--algorithm", "clockwise", "--circulant", "16,1,7",
        "--src", "0", "--dst", "6", "--hop-limit", limit,
    )
    assert code == 1
    assert f"unrecognized arguments: --hop-limit {limit}" in err


def test_removed_fuzz_limit_flag_exits_one(capsys):
    code, _, err = run(capsys, "fuzz", "--seed", "1", "--hop-limit-factor", "2")
    assert code == 1
    assert "unrecognized arguments: --hop-limit-factor 2" in err


def test_figure_selection_flag_is_a_usage_error(capsys):
    # `compare --selection` is the one way to pick the circulant family
    code, out, err = run(capsys, "figure", "--id", "topology_metrics", "--selection", "best_ring")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: ") and "unrecognized arguments: --selection best_ring" in err
    assert "Traceback" not in err


def test_compare_prints_rows_and_writes_csv(capsys, tmp_path):
    path = tmp_path / "cmp.csv"
    code, out, _ = run(capsys, "compare", "--sides", "3..5", "--out", str(path))
    assert code == 0
    assert out.count("n=") == 3
    expect = run_experiment(
        ExperimentConfig(figure="topology_metrics", values=(3, 4, 5))
    ).text
    assert path.read_text(encoding="utf-8") == expect


PINNED_SHA256 = Path(__file__).resolve().parent.parent / "benchmarks" / "pinned_sha256.json"
# the paper's sweeps, as the benchmark passes them
SQUARES = ",".join(str(side * side) for side in range(3, 24))


@pytest.mark.parametrize(
    "argv, key",
    [
        (["compare", "--sides", "10..16", "--selection", "best_general"], ("design_search_csv",)),
        (["figure", "--id", "topology_metrics", "--values", "3..23"], ("figures", "topology_metrics")),
        (["figure", "--id", "cycles", "--values", "5..200"], ("figures", "cycles")),
        (["figure", "--id", "efficiency", "--values", SQUARES], ("figures", "efficiency")),
        (["figure", "--id", "memory", "--values", SQUARES], ("figures", "memory")),
        (["figure", "--id", "resources", "--values", SQUARES], ("figures", "resources")),
        (["figure", "--id", "capacity"], ("figures", "capacity")),
    ],
)
def test_comparison_artifacts_match_pinned_bytes(capsys, tmp_path, argv, key):
    expected = json.loads(PINNED_SHA256.read_text(encoding="utf-8"))
    for part in key:
        expected = expected[part]
    path = tmp_path / "artifact"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


# Artifacts whose writers were folded into others, pinned to their former
# bytes: `compare` under the two other selection rules writes what
# `figure --id topology_metrics --selection` wrote, the edge list is rendered
# by `harness._render_csv`, and capacity reads the curves from a plain dict.
REROUTED_SHA256 = {
    "compare --sides 3..12 --selection formula_eq1 --format csv":
        "7ac12c209a3dd4ee73e7162a3eeeab781dc16469183b66d902a408aba86ef5f5",
    "compare --sides 3..12 --selection formula_eq1 --format json":
        "3f5e997e2a51f014066e05d968be9592ed09df466e4dde0675e8a36939142556",
    "compare --sides 3..12 --selection best_general --format csv":
        "8bddbb445110c8f2eff7e10cda150f8f51e45d70b1926781c904b3316cf7fdf0",
    "compare --sides 3..12 --selection best_general --format json":
        "632126237d696259c2bd9503f6aad0ab69429a909e357bb99910914085f1e91f",
    "topo --circulant 16,1,3,5 --format csv":
        "df6af7b7850f82273375832817011d6cfc6b171f0ca517ebb5a7f110dc6a796a",
    "topo --mesh 3x4 --format csv":
        "2a3e72851aadd9aa5c28185179d6934f51c9d3b43612a07936efc9941b96433a",
    "topo --torus 3x3 --format csv":
        "cb2205694b30d3640e52dc7f24c25ed20c47a8e6a549683d4c476cdb54049e7f",
    "capacity --algorithm table":
        "8b3ecdaaaf50ea3c27f7e487313c74df94d58d600727502a6038f3b452829adc",
    "capacity --algorithm clockwise":
        "cf7553ac55b1ac4b7d90362e1871604b64a1b33a5696a17246a07e1b31e19ecb",
    "capacity --algorithm adaptive":
        "ac2bd8999c58eddca09a469144ede49c45d3167a9f0ab67640f4028ceac87153",
}


@pytest.mark.parametrize("command", REROUTED_SHA256)
def test_rerouted_artifacts_keep_their_pinned_bytes(capsys, tmp_path, command):
    path = tmp_path / "artifact"
    code, _, _ = run(capsys, *command.split(), "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REROUTED_SHA256[command]


def test_efficiency_reports_k(capsys):
    code, out, _ = run(
        capsys, "efficiency", "--circulant", "16,1,7", "--algorithm", "clockwise"
    )
    assert code == 0
    assert "K(clockwise) = 1.352941" in out


def test_cycles_command(capsys, tmp_path):
    path = tmp_path / "cycles.json"
    code, out, _ = run(capsys, "cycles", "--circulant", "100,1,44", "--out", str(path))
    assert code == 0
    assert "max cycles = 2" in out
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["max_cycles"] == 2
    assert len(payload["per_destination"]) == 100


def test_memory_command(capsys, tmp_path):
    code, out, _ = run(capsys, "memory", "--n", "8")
    assert code == 0
    assert "payload bits = 3" in out
    assert "table bits = 128" in out
    assert "clockwise bits = 40" in out
    assert "adaptive bits = 64" in out
    path = tmp_path / "memory.csv"
    code, out, _ = run(capsys, "memory", "--n", "100", "--out", str(path))
    assert code == 0
    assert out.endswith(f"adaptive bits = 2000\nwrote {path}\n")
    assert path.read_bytes() == b"n,payload_bits,table_bits,clockwise_bits,adaptive_bits\n100,7,20000,1300,2000\n"


def test_resources_command(capsys):
    code, out, _ = run(capsys, "resources", "--algorithm", "table", "--x", "275")
    assert code == 0
    assert "ALM = 39288.3" in out
    for algorithm, line in [
        ("table", "table at x = 275: ALM = 39288.3, registers = 221006.7\n"),
        ("clockwise", "clockwise at x = 275: ALM = 38929.7, registers = 26160.8\n"),
        ("adaptive", "adaptive at x = 275: ALM = 433699.5, registers = 221006.7\n"),
    ]:
        assert run(capsys, "resources", "--algorithm", algorithm, "--x", "275") == (0, line, "")


def test_capacity_command(capsys, tmp_path):
    path = tmp_path / "capacity.json"
    code, out, _ = run(capsys, "capacity", "--algorithm", "adaptive", "--out", str(path))
    assert code == 0
    assert "max routers = 53" in out
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload == json.loads(chip_capacity("adaptive").to_json())


def test_capacity_with_huge_totals_bisects(capsys):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "capacity", "--algorithm", "clockwise",
        "--alm-total", "200000000000000", "--reg-total", "200000000000000",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "max routers = 12699986" in out


HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv",
    [
        ("capacity", "--algorithm", "table", "--alm-total", HUGE),
        ("resources", "--algorithm", "table", "--x", HUGE),
        ("figure", "--id", "resources", "--values", HUGE),
    ],
)
def test_integer_beyond_float_range_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")


def test_capacity_budget_flag(capsys):
    code, out, _ = run(capsys, "capacity", "--algorithm", "table", "--budget", "0.3")
    assert code == 0
    routers = int(out.split("max routers = ")[1].split()[0])
    assert routers < 276


def test_figure_command_writes_and_prints_meta(capsys, tmp_path):
    path = tmp_path / "cycles.csv"
    code, out, _ = run(
        capsys, "figure", "--id", "cycles", "--values", "100..120", "--out", str(path)
    )
    assert code == 0
    assert "first_n_exceeding_two = 114" in out
    assert path.read_text(encoding="utf-8").splitlines()[0] == "n,s2,max_cycles"


def test_figure_command_stdout_without_out(capsys):
    code, out, _ = run(capsys, "figure", "--id", "memory", "--values", "9,16")
    assert code == 0
    assert "n,payload_bits,table_bits,clockwise_bits,adaptive_bits" in out


def test_fuzz_command(capsys, tmp_path):
    path = tmp_path / "fuzz.json"
    code, out, _ = run(
        capsys, "fuzz", "--seed", "1", "--trials", "60", "--out", str(path)
    )
    assert code == 0
    assert "livelocks = 0" in out
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["livelock_count"] == 0 and payload["trials"] == 60


def test_fuzz_on_huge_rings_counts_routes_from_runs(capsys, tmp_path):
    # the first draw is an adaptive route of about 3.7e26 hops on
    # C(9.94e28; 1, 3.56e28): its runs are counted, never walked or listed
    path = tmp_path / "fuzz.json"
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "fuzz", "--seed", "1", "--trials", "5",
        "--n-max", "1000000000000000000000000000000", "--out", str(path),
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(path.read_text(encoding="utf-8"))["livelock_count"] == 0


def test_fuzz_printed_mode_reports_livelocks_and_exits_two(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "1", "--trials", "60", "--mode", "printed")
    assert code == 2
    assert "livelocks = 3" in out
    assert out.count("'variant': 'printed', 'max_cycles': 2}") == 3


@pytest.mark.parametrize(
    "flags",
    [("--mode", "sideways"), ("--max-cycles", "1")]
    + [("--max-cycles", bound) for bound in ("x", "0", "None", "")],
)
def test_fuzz_bad_mode_exits_one(capsys, flags):
    code, _, err = run(capsys, "fuzz", "--seed", "1", "--trials", "5", *flags)
    assert code == 1
    assert "error:" in err


# --- exit codes ------------------------------------------------------------------

def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 1
    assert "usage:" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "topo", "--circulant", "8,1,3", "--frobnicate")
    assert code == 1
    assert "usage:" in err


def test_invalid_circulant_exits_one(capsys):
    code, _, err = run(capsys, "topo", "--circulant", "8,3,1", "--metrics")
    assert code == 1
    assert "error:" in err


def test_capacity_figure_with_values_exits_one(capsys):
    code, out, err = run(capsys, "figure", "--id", "capacity", "--values", "5")
    assert code == 1
    assert out == ""
    assert err == "error: figure 'capacity' takes no values\n"


def test_invalid_grid_exits_one(capsys):
    code, _, err = run(capsys, "topo", "--mesh", "3by3")
    assert code == 1


def test_non_ring_circulant_for_routing_exits_one(capsys):
    code, _, err = run(capsys, "table", "--circulant", "9,2,3")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "topo" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "--id", "memory", "--values", "9"),
        ("table", "--circulant", "8,1,3"),
        ("compare", "--sides", "3"),
        ("topo", "--circulant", "8,1,3"),
        ("topo", "--mesh", "3x3", "--metrics"),
        ("route", "--algorithm", "table", "--circulant", "8,1,3", "--src", "0", "--dst", "3"),
        ("cycles", "--circulant", "8,1,3"),
        ("memory", "--n", "8"),
        ("capacity", "--algorithm", "table"),
        ("fuzz", "--seed", "1", "--trials", "5"),
    ],
)
def test_unwritable_out_exits_one(capsys, tmp_path, argv):
    # one error line that names the path; figure and compare print nothing before it
    path = tmp_path / "missing-dir" / "artifact.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1
    assert err == f"error: cannot write {path}: No such file or directory\n"
    if argv[0] in ("figure", "compare"):
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("topo", "--circulant", "8"),
        ("topo", "--circulant", "8,a"),
        ("figure", "--id", "memory", "--values", "1..2..3"),
        ("figure", "--id", "memory", "--values", "5..3"),
        ("figure", "--id", "memory", "--values", ","),
        ("figure", "--id", "memory", "--values", ""),
        ("compare", "--sides", ""),
        ("route", "--algorithm", "table", "--circulant", "8,1,3", "--src", "-1", "--dst", "2"),
        ("route", "--algorithm", "table", "--circulant", "8,1,3", "--src", "0", "--dst", "8"),
        ("efficiency", "--algorithm", "table", "--circulant", "8,1,3", "--source", "8"),
    ],
    ids=" ".join,
)
def test_refused_input_exits_one_with_one_error_line(capsys, argv):
    # an empty --values is refused like an empty --sides, not read as the default sweep
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_unexpected_exception_exits_two_with_its_traceback(capsys, monkeypatch):
    def fail(*args):
        raise RuntimeError("memory model broke")

    monkeypatch.setattr(analysis, "memory_report", fail)
    code, out, err = run(capsys, "memory", "--n", "8")
    assert code == 2
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: memory model broke\n")

    def refuse(*args):
        raise ValidationError("memory refused")

    monkeypatch.setattr(analysis, "memory_report", refuse)
    assert run(capsys, "memory", "--n", "8") == (1, "", "error: memory refused\n")


def test_main_builds_the_parser_once(capsys):
    build_parser.cache_clear()
    assert run(capsys, "memory", "--n", "8")[0] == 0
    assert run(capsys, "figure", "--id", "memory", "--values", "9")[0] == 0
    assert build_parser.cache_info().misses == 1
    assert build_parser.cache_info().hits == 1


def test_topo_json_format_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "topo", "--circulant", "8,1,3", "--out", str(tmp_path / "g"), "--format", "json"
    )
    assert code == 1
    assert "usage:" in err


def test_runtime_imports_only_the_standard_library():
    # site hooks load before circnoc, so only modules new after the
    # import count; each must be circnoc itself or part of the stdlib
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import circnoc, circnoc.cli\n"
        "loaded = set(sys.modules) - before\n"
        "new = {name.partition('.')[0] for name in loaded}\n"
        "print(sorted(new - {'circnoc'} - set(sys.stdlib_module_names)))\n"
        "print(sorted(loaded & {'dataclasses', 'inspect'}))\n"
        "print('traceback' in loaded)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    outside_stdlib, heavy, traceback_loaded = result.stdout.splitlines()
    assert outside_stdlib == "[]"
    # value types are tuples: the import needs neither dataclasses nor inspect
    assert heavy == "[]"
    # only the exit-2 branch of main prints a traceback, and loads the module
    assert traceback_loaded == "False"


def test_only_the_cli_writes_files():
    # every artifact is written by cli._write; library modules return text
    writers = {"open", "write_text", "write_bytes"}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "circnoc").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name not in writers, f"{path.name}:{node.lineno} calls {name}"


def test_exports_resolve_and_the_package_imports_only_exported_names():
    # the package namespace re-exports names from its modules; each must
    # exist and be listed in its module's __all__ (errors has none)
    modules = {name: importlib.import_module(f"circnoc.{name}")
               for name in ("topology", "routing", "analysis", "harness", "cli")}
    for name, module in modules.items():
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], name
    init = Path(__file__).resolve().parents[1] / "src" / "circnoc" / "__init__.py"
    imported = 0
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module != "errors":
            public = [alias.name for alias in node.names if not alias.name.startswith("_")]
            assert set(public) <= set(modules[node.module].__all__), node.module
            imported += len(public)
    assert imported > 40
