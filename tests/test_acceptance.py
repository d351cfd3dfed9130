"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
pins its numeric tolerance and runtime budget.  Reference values are
either computed by the independent oracles in ``oracles.py`` or frozen
from the published tables this package reproduces.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

import circnoc as cn
from oracles import ref_ring_profile, ring_s2_values


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"


# Golden 8x8 next-hop port matrix for C(8; 1, 3); None marks the diagonal.
GOLDEN_PORTS_C8_13 = (
    (None, 0, 0, 1, 0, 3, 0, 2),
    (2, None, 0, 0, 1, 0, 3, 0),
    (0, 2, None, 0, 0, 1, 0, 3),
    (3, 0, 2, None, 0, 0, 1, 0),
    (0, 3, 0, 2, None, 0, 0, 1),
    (1, 0, 3, 0, 2, None, 0, 0),
    (0, 1, 0, 3, 0, 2, None, 0),
    (0, 0, 1, 0, 3, 0, 2, None),
)


def test_criterion_1_routing_table_golden():
    with criterion(1, "C(8; 1, 3) routing table matches the golden 8x8 matrix", 1.0):
        table = cn.build_routing_table(cn.RouterConfig(8, 1, 3))
        assert table.entries == GOLDEN_PORTS_C8_13
        defined = sum(
            1 for row in table.entries for port in row if port is not None
        )
        assert defined == 56


def test_criterion_2_two_wrap_route():
    with criterion(2, "adaptive 0 -> 37 in C(100; 1, 44) rides the two-wrap route", 1.0):
        cfg = cn.RouterConfig(100, 1, 44)
        trace = cn.trace_route("adaptive", 0, 37, cfg, cn.CORRECTED)
        assert trace.nodes == (0, 56, 12, 68, 24, 80, 36, 37)
        assert trace.hops == 7
        assert cn.route_cycle_count(trace) == 2
        # same route under 1-based labels
        assert [v + 1 for v in trace.nodes] == [1, 57, 13, 69, 25, 81, 37, 38]


def test_criterion_3_efficiency_claims():
    with criterion(3, "K(table)=1, K(adaptive)=1 within two wraps, K(clockwise)>=1", 300.0):
        for n in cn.square_sizes():
            cfg = cn.RouterConfig.from_spec(cn.search_best_ring_circulant(n))
            table = cn.efficiency_k(cfg, "table")
            assert table.k == 1.0, n
            # K(table) = 1 measured: the router's own routes, on a fresh
            # config, sum to the shortest-path total
            fresh_cfg = cn.RouterConfig(cfg.n, cfg.s1, cfg.s2)
            routed = sum(sum(cn.route_runs("table", 0, d, fresh_cfg)[1::2]) for d in range(1, n))
            assert routed == table.hops_oracle, n
            assert cn.efficiency_k(cfg, "clockwise").k >= 1.0, n
            if cn.cycle_report(cfg).max_cycles <= 2:
                assert cn.efficiency_k(cfg, "adaptive", cn.CORRECTED).k == 1.0, n
        report = cn.efficiency_k(cn.RouterConfig(16, 1, 7), "clockwise")
        assert report.k > 1.0
        assert abs(report.k - 46 / 34) <= 1e-9


def test_criterion_4_cycle_threshold_reported():
    with criterion(4, "first best-ring size needing >2 wraps reported against 174", 120.0):
        result = cn.run_experiment(
            cn.ExperimentConfig(figure="cycles", values=tuple(range(5, 201)), out_format="json")
        )
        first_n = result.meta["first_n_exceeding_two"]
        reference = result.meta["reference_first_n"]
        assert reference == 174
        assert first_n is not None
        # the exhaustive lexicographic (D, L_av) selection reaches three
        # wraps earlier than the reference sweep's unspecified rule; the
        # report artifact itself logs both values
        assert first_n == 114
        payload = json.loads(result.text)
        assert payload["meta"]["first_n_exceeding_two"] == first_n
        assert payload["meta"]["reference_first_n"] == 174
        assert payload["meta"]["matches_reference"] is (first_n == 174)
        if first_n != reference:
            print(
                "  note: selection-rule deviation documented in the cycles report: "
                f"first n = {first_n}, reference = {reference}"
            )


def test_criterion_5_memory_models_exact():
    with criterion(5, "memory formulas give 128/40/64 bits at n=8 and 7 payload bits at n=100", 1.0):
        assert cn.table_memory_bits(8, 4) == 128
        assert cn.clockwise_memory_bits(8) == 40
        assert cn.adaptive_memory_bits(8) == 64
        assert cn.payload_bits(100) == 7


def test_criterion_6_chip_capacity():
    with criterion(6, "default chip budget fits 275/278/53 routers (+-2), ALM-bound", 1.0):
        expected = {"table": 275, "clockwise": 278, "adaptive": 53}
        for algorithm, target in expected.items():
            report = cn.chip_capacity(algorithm)
            assert abs(report.max_routers - target) <= 2, (algorithm, report.max_routers)
            assert report.binding_resource == "alm", algorithm


def test_criterion_7_topology_comparison():
    with criterion(7, "circulant <= torus <= mesh on D and L_av; peak D cut vs mesh in [58, 69]%", 120.0):
        rows = cn.compare_topologies(range(3, 24), selection="best_ring")
        assert len(rows) == 21
        for row in rows:
            assert (
                row.circulant_metrics.diameter
                <= row.torus_metrics.diameter
                <= row.mesh_metrics.diameter
            ), row.n
            assert (
                row.circulant_metrics.avg_distance
                <= row.torus_metrics.avg_distance
                <= row.mesh_metrics.avg_distance
            ), row.n
        peak = max(row.diameter_reduction_vs_mesh for row in rows)
        assert 58.0 <= peak <= 69.0, peak


def _table_descends_everywhere(cfg, dist):
    """All-pairs check: every table entry moves one hop closer (numpy)."""
    table = cn.build_routing_table(cfg)
    n = cfg.n
    idx = np.arange(n)
    ports = np.array([[0 if p is None else p for p in row] for row in table.entries])
    steps = np.array(cfg.port_steps)
    darr = np.array(dist)
    pair_dist = darr[(idx[None, :] - idx[:, None]) % n]
    next_node = (idx[:, None] + steps[ports]) % n
    next_dist = darr[(idx[None, :] - next_node) % n]
    off_diag = ~np.eye(n, dtype=bool)
    return bool(np.all(next_dist[off_diag] == pair_dist[off_diag] - 1))


def test_criterion_8_oracle_equivalence_suite():
    with criterion(8, "table/clockwise/adaptive trace lengths match their oracles, n <= 120", 600.0):
        import random

        rng = random.Random(2024)
        for n in range(5, 121):
            for s2 in ring_s2_values(n):
                cfg = cn.RouterConfig(n, 1, s2)
                dist = ref_ring_profile(n, s2)

                # table: strict descent at every (src, dst) pair forces every
                # trace to take exactly dist hops
                assert _table_descends_everywhere(cfg, dist), (n, s2)

                wraps_needed = cn.cycle_report(cfg).max_cycles
                mode = cn.AdaptiveMode("corrected", max(2, wraps_needed))
                for dst in range(1, n):
                    assert cn.trace_route("table", 0, dst, cfg).hops == dist[dst], (n, s2, dst)
                    clockwise = cn.trace_route("clockwise", 0, dst, cfg).hops
                    assert clockwise == sum(cn.route_runs("clockwise", 0, dst, cfg)[1::2]), (n, s2, dst)
                    assert clockwise >= dist[dst], (n, s2, dst)
                    adaptive = cn.trace_route("adaptive", 0, dst, cfg, mode).hops
                    assert adaptive == dist[dst], (n, s2, dst)

                # adaptive pairs beyond source 0: exhaustive on small rings,
                # sampled above
                if n <= 32:
                    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
                else:
                    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(48)]
                for u, v in pairs:
                    if u != v:
                        hops = cn.trace_route("adaptive", u, v, cfg, mode).hops
                        assert hops == dist[(v - u) % n], (n, s2, u, v)


def test_criterion_9_termination_fuzzing():
    with criterion(9, "10k seeded random routes, no livelock (n − 1 hop proof), bytes reproducible", 60.0):
        config = cn.FuzzConfig(seed=1, trials=10_000, n_min=5, n_max=300)
        report = cn.fuzz_termination(config)
        assert report.livelock_count == 0
        again = cn.fuzz_termination(config)
        assert report.to_json() == again.to_json()
