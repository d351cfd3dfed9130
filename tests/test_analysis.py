import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circnoc.analysis import (
    RESOURCE_CURVES,
    ChipProfile,
    CycleReport,
    QuadraticCost,
    adaptive_memory_bits,
    chip_capacity,
    clockwise_memory_bits,
    cycle_report,
    efficiency_k,
    memory_report,
    resource_usage,
    route_cycle_count,
    table_memory_bits,
)
from circnoc import analysis, routing
from circnoc.harness import _render_csv
from circnoc.errors import LivelockError, ValidationError
from circnoc.routing import AS_PRINTED, CORRECTED, AdaptiveMode, RouterConfig, route_runs, trace_route
from circnoc.topology import search_best_ring_circulant
from oracles import dp_min_wraps, ref_chip_capacity, ref_ring_profile, ring_s2_values

C8 = RouterConfig(8, 1, 3)
C16 = RouterConfig(16, 1, 7)
C100 = RouterConfig(100, 1, 44)


# --- efficiency criterion -----------------------------------------------------

@pytest.mark.parametrize("cfg", [C8, C16, C100, RouterConfig(25, 1, 7)])
def test_table_routing_is_always_optimal(cfg):
    report = efficiency_k(cfg, "table")
    assert report.k == 1.0
    assert report.hops_algorithm == report.hops_oracle


def test_clockwise_efficiency_c16():
    report = efficiency_k(C16, "clockwise")
    assert report.hops_algorithm == 46
    assert report.hops_oracle == 34
    assert report.k == 46 / 34
    assert report.source == 0


def test_adaptive_efficiency_within_two_wraps():
    assert cycle_report(C100).max_cycles == 2
    assert efficiency_k(C100, "adaptive").k == 1.0


def test_efficiency_source_parameter():
    for source in (0, 3, 11):
        report = efficiency_k(C16, "clockwise", source=source)
        assert report.source == source
        assert report.k == 46 / 34  # clockwise is translation invariant


def test_adaptive_efficiency_source_invariant_when_optimal():
    for source in range(0, 100, 9):
        assert efficiency_k(C100, "adaptive", source=source).k == 1.0


@given(st.integers(min_value=5, max_value=90), st.data())
@settings(max_examples=25)
def test_efficiency_at_least_one(n, data):
    s2 = data.draw(st.integers(min_value=2, max_value=(n - 1) // 2))
    algorithm = data.draw(st.sampled_from(["table", "clockwise", "adaptive"]))
    source = data.draw(st.integers(min_value=0, max_value=n - 1))
    report = efficiency_k(RouterConfig(n, 1, s2), algorithm, source=source)
    assert report.k >= 1.0


def test_efficiency_counts_the_hops_of_traced_routes():
    # K's algorithm side sums run counts; it must equal the traced hops,
    # and a printed livelock must raise the error that tracing raises
    cases = [("table", CORRECTED), ("clockwise", CORRECTED), ("adaptive", CORRECTED),
             ("adaptive", AS_PRINTED)]
    livelocks = 0
    for n in range(5, 31):
        for s2 in ring_s2_values(n):
            for source in {0, n // 3}:
                for algorithm, mode in cases:
                    traced_cfg = RouterConfig(n, 1, s2)
                    try:
                        traced = sum(
                            trace_route(algorithm, source, dest, traced_cfg, mode).hops
                            for dest in range(n) if dest != source
                        )
                    except LivelockError as error:
                        with pytest.raises(LivelockError) as caught:
                            efficiency_k(RouterConfig(n, 1, s2), algorithm, mode, source)
                        assert str(caught.value) == str(error)
                        assert caught.value.cycle == error.cycle
                        livelocks += 1
                        continue
                    report = efficiency_k(RouterConfig(n, 1, s2), algorithm, mode, source)
                    assert report.hops_algorithm == traced, (n, s2, source, algorithm, mode)
    assert livelocks > 0


def test_efficiency_lists_no_node(monkeypatch):
    def no_node_lists(*args):
        raise AssertionError("efficiency_k listed a route's nodes")

    monkeypatch.setattr(routing, "_route_nodes", no_node_lists)
    for algorithm in ("table", "clockwise", "adaptive"):
        assert efficiency_k(C100, algorithm).k >= 1.0


def test_efficiency_table_side_runs_no_scan(monkeypatch):
    # the table side is the BFS total: it routes no offset, so it neither
    # calls route_runs nor runs a scan, and the route memo stays empty
    total = sum(ref_ring_profile(100, 44))
    routed = []

    def no_table_route(algorithm, *args):
        if algorithm == "table":
            raise AssertionError("efficiency_k routed a table route")
        routed.append(algorithm)
        return route_runs(algorithm, *args)

    def no_scan(*args):
        raise AssertionError("efficiency_k ran a table scan")

    monkeypatch.setattr(analysis, "route_runs", no_table_route)
    monkeypatch.setattr(routing, "_table_legs", no_scan)
    for source in (0, 1, 37, 50, 99):
        cfg = RouterConfig(100, 1, 44)
        assert efficiency_k(cfg, "table", source=source) == (1.0, total, total, source)
        assert cfg._memo == {}
    # the patched name is the one the routed sides call
    efficiency_k(RouterConfig(100, 1, 44), "clockwise")
    assert routed == ["clockwise"] * 99


# --- wrap counting --------------------------------------------------------------

def test_route_cycle_count_two_wrap_route():
    trace = trace_route("adaptive", 0, 37, C100)
    assert trace.hops == 7
    assert route_cycle_count(trace) == 2


def test_route_cycle_count_neighbor_is_zero():
    assert route_cycle_count(trace_route("table", 2, 3, C8)) == 0


def test_route_cycle_count_short_route_is_zero():
    assert route_cycle_count(trace_route("table", 0, 4, C8)) == 0


def test_max_cycle_count_examples():
    assert cycle_report(C100).max_cycles == 2
    assert cycle_report(C8).max_cycles == 0


def test_cycle_report_matches_dp_oracle():
    rings = [(n, s2) for n in list(range(5, 41)) + [60, 77, 96] for s2 in range(2, (n - 1) // 2 + 1)]
    best = [(n, search_best_ring_circulant(n).generatrices[1]) for n in range(5, 201)]
    for n, s2 in rings + best + [(1024, 450), (1024, 90), (2025, 197)]:
        cfg = RouterConfig(n, 1, s2)
        report = cycle_report(cfg)
        assert report.per_destination == tuple(dp_min_wraps(n, s2)), (n, s2)
        assert report.max_cycles == max(report.per_destination)
        assert report.n == n and report.s2 == s2


def test_cycle_report_scans_only_offsets_that_need_wraps(monkeypatch):
    # one walk per offset of 1 .. n // 2 reads both unwrapped forms at
    # m = 0, 1, ... and stops at the first m where either is shortest:
    # two scans per wrap below it, and one or two at it
    calls = []

    def counted(base, n, s2, max_wraps):
        calls.append(max_wraps)
        return routing._scan(base, n, s2, max_wraps)

    monkeypatch.setattr(analysis, "_scan", counted)
    report = cycle_report(C100)
    per = report.per_destination
    assert per == tuple(dp_min_wraps(100, 44))
    assert 0 < sum(per[1:51]) and 0 in per[1:51]
    least = sum(2 * per[k] + 1 for k in range(1, 51))
    assert least <= len(calls) <= least + 50
    assert set(calls) == {0}


def test_cycle_report_refuses_a_ring_over_the_budget_before_its_first_scan(monkeypatch):
    # the scans of C(100; 1, 44) walk at most (D + 1) s2 wraps in all
    total = (max(ref_ring_profile(100, 44)) + 1) * 44
    monkeypatch.setattr(analysis, "WRAP_BUDGET", total)
    assert cycle_report(C100).max_cycles == 2
    monkeypatch.setattr(analysis, "WRAP_BUDGET", total - 1)
    monkeypatch.setattr(analysis, "_scan", None)
    message = f"^the wrap-count scans of C\\(100; 1, 44\\) need up to {total} ring wraps, above the budget of {total - 1}$"
    with pytest.raises(ValidationError, match=message):
        cycle_report(C100)


def test_cycle_report_refuses_by_the_lattice_floor_before_any_profile(monkeypatch):
    # a ring whose lattice floor is already over the budget builds no
    # profile; its message still names the exact (D + 1) s2 of its tents
    monkeypatch.setattr(analysis, "circulant_distance_profile", None)
    message = "^the wrap-count scans of C\\(1000000; 1, 398018\\) need up to 281796744 ring wraps"
    with pytest.raises(ValidationError, match=message):
        cycle_report(RouterConfig(10**6, 1, 398018))
    monkeypatch.undo()
    # every floor is over a budget of 0; a ring of diameter above sqrt(n)
    # reads it from the profile, and either way the message is exact
    monkeypatch.setattr(analysis, "WRAP_BUDGET", 0)
    for n in range(5, 61):
        for s2 in ring_s2_values(n):
            wraps = (max(ref_ring_profile(n, s2)) + 1) * s2
            with pytest.raises(ValidationError, match=f"need up to {wraps} ring wraps, above the budget of 0$"):
                cycle_report(RouterConfig(n, 1, s2))


def test_realized_adaptive_wraps_bound_arithmetic_minimum():
    # the candidate scan's counter-clockwise tie preference may realize a
    # wrapped shortest route where an unwrapped one exists, never the
    # opposite: realized wraps dominate the per-destination minima
    for n, s2 in [(14, 6), (20, 9), (67, 32), (100, 44)]:
        cfg = RouterConfig(n, 1, s2)
        report = cycle_report(cfg)
        mode = AdaptiveMode("corrected", max(2, report.max_cycles))
        profile = ref_ring_profile(n, s2)
        realized = []
        for dst in range(1, n):
            trace = trace_route("adaptive", 0, dst, cfg, mode)
            assert trace.hops == profile[dst]
            wraps = route_cycle_count(trace)
            assert wraps >= report.per_destination[dst]
            realized.append(wraps)
        assert max(realized) >= report.max_cycles


# --- memory formulas -------------------------------------------------------------

def test_table_memory_bits_values():
    assert table_memory_bits(8, 4) == 128
    assert table_memory_bits(100, 4) == 20000
    assert table_memory_bits(9, 4) == 162
    assert table_memory_bits(8, 5) == 192


def test_clockwise_memory_bits_values():
    assert clockwise_memory_bits(8) == 40
    assert clockwise_memory_bits(100) == 1300
    # odd n: storing s2 < 4.5 takes 3 bits
    assert clockwise_memory_bits(9) == 63


def test_adaptive_memory_bits_values():
    assert adaptive_memory_bits(8) == 64
    assert adaptive_memory_bits(100) == 2000


def test_adaptive_minus_clockwise_is_node_id_field():
    for n in range(4, 400, 7):
        assert adaptive_memory_bits(n) - clockwise_memory_bits(n) == n * (n - 1).bit_length()


def test_memory_formulas_strictly_increase():
    prev = memory_report(4)
    for n in range(5, 420):
        cur = memory_report(n)
        assert cur.table_bits > prev.table_bits
        assert cur.clockwise_bits > prev.clockwise_bits
        assert cur.adaptive_bits > prev.adaptive_bits
        prev = cur


@pytest.mark.parametrize("call", [
    lambda: table_memory_bits(1),
    lambda: table_memory_bits(8, 1),
    lambda: clockwise_memory_bits(3),
    lambda: adaptive_memory_bits(3),
])
def test_memory_bits_validation(call):
    with pytest.raises(ValidationError):
        call()


def test_memory_report_and_csv():
    report = memory_report(8)
    assert (report.payload_bits, report.table_bits, report.clockwise_bits, report.adaptive_bits) == (3, 128, 40, 64)
    text = _render_csv(report._fields, [report])
    assert text == "n,payload_bits,table_bits,clockwise_bits,adaptive_bits\n8,3,128,40,64\n"


# --- resource curves ---------------------------------------------------------------

def test_resource_usage_table_alm_at_275():
    # -74.354 + 15.537 * 275 + 0.464 * 275**2
    value = resource_usage("table", "alm", 275)
    assert value == pytest.approx(39288.321, abs=1e-6)


def test_resource_usage_adaptive_alm_at_53():
    value = resource_usage("adaptive", "alm", 53)
    assert value == pytest.approx(39381.142, abs=1e-6)


def test_register_curves_table_and_adaptive_coincide():
    assert RESOURCE_CURVES[("table", "register")] == RESOURCE_CURVES[("adaptive", "register")]
    for x in (1, 10, 100, 300):
        assert resource_usage("table", "register", x) == resource_usage("adaptive", "register", x)


def test_resource_usage_can_be_negative_for_tiny_networks():
    assert resource_usage("adaptive", "alm", 1) < 0


def test_resource_usage_validation():
    with pytest.raises(ValidationError):
        resource_usage("table", "alm", 0)
    with pytest.raises(
        ValidationError, match=r"^unknown resource 'bram'; expected one of \('alm', 'register'\)$"
    ):
        resource_usage("table", "bram", 5)
    with pytest.raises(
        ValidationError,
        match=r"^unknown algorithm 'zigzag'; expected one of \('table', 'clockwise', 'adaptive'\)$",
    ):
        resource_usage("zigzag", "alm", 5)
    with pytest.raises(ValidationError, match=r"^unknown algorithm 'zigzag'"):
        chip_capacity("zigzag")


# --- chip capacity -------------------------------------------------------------------

def test_chip_profile_defaults_and_validation():
    profile = ChipProfile()
    assert (profile.alm_total, profile.reg_total, profile.budget_fraction) == (113560, 12492800, 0.35)
    with pytest.raises(ValidationError):
        ChipProfile(budget_fraction=0.0)
    with pytest.raises(ValidationError):
        ChipProfile(budget_fraction=1.5)
    with pytest.raises(ValidationError):
        ChipProfile(alm_total=0)


@pytest.mark.parametrize("algorithm, expected", [("table", 276), ("clockwise", 278), ("adaptive", 53)])
def test_chip_capacity_default_profile(algorithm, expected):
    report = chip_capacity(algorithm)
    assert report.max_routers == expected
    assert report.binding_resource == "alm"
    budget_alm = 0.35 * 113560
    budget_reg = 0.35 * 12492800
    assert report.alm_used <= budget_alm
    assert report.reg_used <= budget_reg
    over = resource_usage(algorithm, "alm", expected + 1)
    assert over > budget_alm


def test_chip_capacity_json_schema():
    payload = json.loads(chip_capacity("adaptive").to_json())
    assert list(payload) == [
        "algorithm", "alm_total", "reg_total", "budget_fraction",
        "max_routers", "binding_resource", "alm_used", "reg_used",
    ]
    assert payload["max_routers"] == 53
    assert payload["binding_resource"] == "alm"


def test_chip_capacity_smaller_budget_fits_fewer_routers():
    tight = chip_capacity("table", ChipProfile(budget_fraction=0.3))
    assert tight.max_routers < 276


def test_chip_capacity_infeasible_reports_zero():
    report = chip_capacity("table", ChipProfile(alm_total=113560, reg_total=100))
    assert report.max_routers == 0
    assert report.binding_resource == "register"


def test_chip_capacity_matches_linear_scan():
    totals = (1, 10**3, 10**5, 10**7)
    profiles = [ChipProfile()] + [
        ChipProfile(alm_total=alm, reg_total=reg, budget_fraction=budget)
        for alm in totals
        for reg in totals
        for budget in (0.01, 0.35, 1.0)
    ]
    for algorithm in ("table", "clockwise", "adaptive"):
        for profile in profiles:
            report = chip_capacity(algorithm, profile)
            got = (report.max_routers, report.binding_resource, report.alm_used, report.reg_used)
            assert got == ref_chip_capacity(RESOURCE_CURVES, algorithm, profile), (
                algorithm, profile,
            )


@pytest.mark.parametrize(
    "coefficients",
    [(0, 1, 0), (0.0, 2.0, -0.5), (0.0, 1.0, float("nan")), (float("inf"), 1.0, 1.0)],
)
def test_quadratic_cost_must_open_upward(coefficients):
    with pytest.raises(ValidationError):
        QuadraticCost(*coefficients)


def test_custom_resource_model(monkeypatch):
    # alm = x + (x - 7)(x - 10) / 8: 7 at x = 7, 10 at x = 10, 11.5 at x = 11
    monkeypatch.setattr(analysis, "RESOURCE_CURVES", {
        ("table", "alm"): QuadraticCost(8.75, -1.125, 0.125),
        ("table", "register"): QuadraticCost(0.0, 2.0, 0.125),
    })
    assert resource_usage("table", "alm", 7) == 7.0
    report = chip_capacity("table", ChipProfile(alm_total=10, reg_total=1000, budget_fraction=1.0))
    assert report.max_routers == 10
    assert report.binding_resource == "alm"


# --- report type sanity ----------------------------------------------------------------

def test_cycle_report_type():
    report = CycleReport(n=8, s2=3, per_destination=(0,) * 8)
    assert report.max_cycles == 0
