import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circnoc import routing
from circnoc.analysis import payload_bits
from circnoc.cli import main
from circnoc.errors import LivelockError, ValidationError
from circnoc.routing import (
    ADAPTIVE_VARIANTS,
    AS_PRINTED,
    CORRECTED,
    AdaptiveMode,
    RouterConfig,
    build_routing_table,
    route_runs,
    trace_route,
)
from circnoc.routing import _clockwise_delta, _scan, _shortest_port, _table_legs
from circnoc.topology import CirculantSpec, circulant_distance_profile
from oracles import (
    _adaptive_delta,
    _ref_directional_best,
    ref_adaptive_delta,
    ref_adaptive_walk,
    ref_bfs,
    ref_clockwise_walk,
    ref_neighbors,
    ref_ring_profile,
    ref_table_runs,
    ref_table_walk,
    ring_s2_values,
)

C8 = RouterConfig(8, 1, 3)
C16 = RouterConfig(16, 1, 7)
C100 = RouterConfig(100, 1, 44)


# --- configuration and ports -------------------------------------------------

@pytest.mark.parametrize("n, s1, s2", [(8, 2, 3), (8, 1, 1), (8, 1, 4), (5, 1, 3), (4, 1, 2)])
def test_router_config_rejects_invalid(n, s1, s2):
    with pytest.raises(ValidationError):
        RouterConfig(n, s1, s2)


def test_router_config_from_spec():
    cfg = RouterConfig.from_spec(CirculantSpec(8, (1, 3)))
    assert (cfg.n, cfg.s1, cfg.s2) == (8, 1, 3)
    with pytest.raises(ValidationError):
        RouterConfig.from_spec(CirculantSpec(9, (2, 3)))
    with pytest.raises(ValidationError):
        RouterConfig.from_spec(CirculantSpec(9, (1,)))


def test_router_config_memo_is_not_a_field():
    cfg = RouterConfig(16, 1, 7)
    trace_route("adaptive", 0, 9, cfg)
    fresh = RouterConfig(16, 1, 7)
    assert cfg == fresh and hash(cfg) == hash(fresh)
    assert repr(cfg) == "RouterConfig(n=16, s1=1, s2=7)"
    assert cfg._asdict() == {"n": 16, "s1": 1, "s2": 7}


def test_copied_or_pickled_router_config_starts_with_an_empty_memo():
    # __reduce__ rebuilds through __new__, so the memo is neither saved nor shared
    cfg = RouterConfig(1024, 1, 90)
    fresh = len(pickle.dumps(cfg))
    for dst in range(1, 1024):
        trace_route("table", 0, dst, cfg)
    assert len(cfg._memo["table"]) == 1023
    assert len(pickle.dumps(cfg)) == fresh
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone == cfg and clone._memo == {} and clone.port_steps == cfg.port_steps
    assert copy.copy(cfg)._memo is not cfg._memo and copy.copy(cfg)._memo == {}


def test_replaced_router_config_is_validated_and_routes():
    # _replace builds through _make and so through __new__, which checks the
    # fields and gives the copy its own port steps and route memo
    cfg = RouterConfig(100, 1, 18)._replace(s2=44)
    assert cfg == C100 and cfg.port_steps == (1, 44, -1, -44)
    assert trace_route("table", 0, 37, cfg).hops == 7
    assert RouterConfig._make((100, 1, 44)) == C100
    with pytest.raises(ValidationError):
        RouterConfig(100, 1, 18)._replace(s2=50)


def test_router_config_constructor():
    assert RouterConfig(n=100, s1=1, s2=44) == RouterConfig(100, 1, s2=44) == C100
    assert RouterConfig(n=100, s1=1, s2=44).port_steps == (1, 44, -1, -44)
    for args in [(100, 1), (100, 1, 44, 2), ()]:
        with pytest.raises(TypeError):
            RouterConfig(*args)
    with pytest.raises(TypeError):
        RouterConfig(100, 1, 44, s2=44)
    # the checks run in order: the first generatrix is reported first
    with pytest.raises(ValidationError, match="^first generatrix must be 1, got 2$"):
        RouterConfig(8, 2, 1)
    with pytest.raises(ValidationError, match="^second generatrix must be >= 2, got 1$"):
        RouterConfig(8, 1, 1)
    with pytest.raises(ValidationError, match=r"^second generatrix 4 must be below n/2 = 4\.0$"):
        RouterConfig(8, 1, 4)


def test_router_config_rebuilds_validate():
    # a tuple of invalid fields built around __new__ is refused by each rebuild
    bad = tuple.__new__(RouterConfig, (8, 2, 1))
    for rebuild in (lambda: bad._replace(n=9), lambda: copy.copy(bad), lambda: pickle.loads(pickle.dumps(bad))):
        with pytest.raises(ValidationError, match="^first generatrix must be 1, got 2$"):
            rebuild()
    with pytest.raises(ValidationError, match="^second generatrix 4 must be below n/2 = 4.0$"):
        RouterConfig.from_spec(CirculantSpec(8, (1, 4)))


@pytest.mark.parametrize("n, bits", [(2, 1), (8, 3), (9, 4), (100, 7), (128, 7), (129, 8), (529, 10)])
def test_payload_bits(n, bits):
    assert payload_bits(n) == bits


def test_payload_bits_rejects_tiny_n():
    with pytest.raises(ValidationError):
        payload_bits(1)


def test_port_for_step_clockwise_numbering():
    # port p steps by port_steps[p]; trace_route maps a step back with steps.index
    steps = C8.port_steps
    assert steps.index(1) == 0
    assert steps.index(3) == 1
    assert steps.index(-1) == 2
    assert steps.index(-3) == 3
    assert 2 not in steps


def test_step_for_port_roundtrip():
    steps = C16.port_steps
    for port in range(4):
        assert steps.index(steps[port]) == port
    assert len(steps) == 4


def test_adaptive_mode_validation():
    assert AdaptiveMode("printed", 3).max_cycles == 3
    with pytest.raises(ValidationError):
        AdaptiveMode("sideways")
    with pytest.raises(ValidationError):
        AdaptiveMode("corrected", 1)
    assert AdaptiveMode(max_cycles=None).max_cycles is None


# --- table routing -------------------------------------------------------------

def test_routing_table_known_entries():
    table = build_routing_table(C8)
    assert table.entries[0][4] == 0
    assert table.entries[3][0] == 3
    assert table.entries[2][7] == 3
    assert table.entries[0][6] == 0  # four-way tie resolved to the lowest port
    assert table.entries[1][5] == 0
    assert all(table.entries[v][v] is None for v in range(8))


def test_routing_table_one_hop_ports():
    table = build_routing_table(C8)
    for u in range(8):
        assert table.entries[u][(u + 3) % 8] == 1
        assert table.entries[u][(u - 3) % 8] == 3
        assert table.entries[u][(u + 1) % 8] == 0
        assert table.entries[u][(u - 1) % 8] == 2


def test_routing_table_is_one_row_per_network():
    table = build_routing_table(RouterConfig(2025, 1, 197))
    assert len(table.ports) == 2025 and table.ports[0] is None
    assert table.port(7, 3) == table.ports[(3 - 7) % 2025]


def test_routing_table_rejects_delivered_packet_without_asserts():
    # the check must survive python -O, which strips assert statements
    code = (
        "from circnoc import RouterConfig, ValidationError, build_routing_table\n"
        "try:\n"
        "    build_routing_table(RouterConfig(8, 1, 3)).port(3, 3)\n"
        "except ValidationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("cfg", [C8, C16, RouterConfig(11, 1, 4), RouterConfig(30, 1, 13)])
def test_routing_table_descends_toward_destination(cfg):
    table = build_routing_table(cfg)
    neighbors = ref_neighbors(CirculantSpec(cfg.n, (cfg.s1, cfg.s2)))
    for dst in range(cfg.n):
        dist = ref_bfs(neighbors, dst)
        for src in range(cfg.n):
            if src == dst:
                continue
            port = table.port(src, dst)
            nxt = (src + cfg.port_steps[port]) % cfg.n
            assert port == table.entries[src][dst]
            assert dist[nxt] == dist[src] - 1


def test_table_first_hop_examples():
    for src, dst, hop in [(0, 3, (3, 1)), (7, 0, (0, 0))]:
        trace = trace_route("table", src, dst, C8)
        assert (trace.nodes[1], trace.ports[0]) == hop
    with pytest.raises(ValidationError, match="delivered"):
        build_routing_table(C8).port(5, 5)



def test_routing_table_csv(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert main(["table", "--circulant", "8,1,3", "--out", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "from,to,port"
    assert len(lines) == 1 + 8 * 7
    assert lines[1] == "0,1,0"
    body = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert body == sorted(body)


# --- clockwise routing -----------------------------------------------------------

def test_clockwise_first_hop_examples():
    assert trace_route("clockwise", 0, 4, C8).nodes[1] == 3   # difference 4 <= n/2 and >= s2
    assert trace_route("clockwise", 5, 5, C8).nodes == (5,)
    assert trace_route("clockwise", 0, 7, C8).nodes[1] == 7   # backward regime, unit step


def test_clockwise_unit_step_regime_trace():
    trace = trace_route("clockwise", 0, 6, C16)
    assert trace.nodes == (0, 1, 2, 3, 4, 5, 6)
    assert trace.hops == 6
    # the shortest path (+7, -1) has 2 hops; clockwise trades hops for state
    assert ref_bfs(ref_neighbors(CirculantSpec(16, (1, 7))), 0)[6] == 2


def test_clockwise_matches_closed_form_and_oracle():
    for n in range(5, 121, 5):
        for s2 in ring_s2_values(n):
            cfg = RouterConfig(n, 1, s2)
            profile = ref_ring_profile(n, s2)
            for dst in range(1, n):
                hops = trace_route("clockwise", 0, dst, cfg).hops
                s = dst if 2 * dst <= n else n - dst
                assert hops == s // s2 + s % s2 == sum(route_runs("clockwise", 0, dst, cfg)[1::2])
                assert hops >= profile[dst]


def test_clockwise_never_flips_regime():
    for cfg, src, dst in [(C16, 3, 11), (C16, 11, 3), (C100, 0, 70), (C8, 2, 6)]:
        trace = trace_route("clockwise", src, dst, cfg)
        deltas = {cfg.port_steps[p] > 0 for p in trace.ports}
        assert len(deltas) == 1


@given(
    n=st.integers(min_value=5, max_value=200),
    data=st.data(),
)
def test_clockwise_translation_invariance(n, data):
    s2 = data.draw(st.integers(min_value=2, max_value=(n - 1) // 2))
    cfg = RouterConfig(n, 1, s2)
    u = data.draw(st.integers(min_value=0, max_value=n - 1))
    v = data.draw(st.integers(min_value=0, max_value=n - 1))
    t = data.draw(st.integers(min_value=0, max_value=n - 1))
    if u == v:
        return
    assert _clockwise_delta((u + t) % n, (v + t) % n, cfg) == _clockwise_delta(u, v, cfg)


# --- adaptive routing --------------------------------------------------------------

def test_step_cycles_two_wrap_candidate_wins():
    # counter-clockwise two-wrap candidate: (263 // 44) - 263 % 44 + 45 = 7
    assert _adaptive_delta(0, 37, C100, CORRECTED) == -44


def test_step_cycles_short_hop_prefers_unit_step():
    assert _adaptive_delta(0, 5, C100, CORRECTED) == 1


def test_step_cycles_exact_multiple_takes_long_step():
    assert _adaptive_delta(0, 3, C8, CORRECTED) == 3
    assert _adaptive_delta(0, 3, C8, AS_PRINTED) == 3


def test_step_cycles_matches_reference_scan_exhaustively():
    # every ring circulant up to n = 60, every offset, both variants, and
    # the default and one extra wrap bound: pins the step the scan picks,
    # not only the hop count it leads to
    modes = [AdaptiveMode(v, c) for v in ("printed", "corrected") for c in (2, 3)]
    mismatches = []
    for n in range(5, 61):
        for s2 in ring_s2_values(n):
            cfg = RouterConfig(n, 1, s2)
            for mode in modes:
                for s in range(1, n):
                    if _adaptive_delta(0, s, cfg, mode) != ref_adaptive_delta(0, s, cfg, mode):
                        mismatches.append((n, s2, s, mode))
    assert mismatches == []


def test_printed_variant_reproduces_original_first_step():
    # the printed counter-clockwise seed S + n evaluates 137 -> best 8 via
    # the unit step, tying the clockwise side and sending the packet to 99;
    # the corrected seed n - S finds the 7-hop wrapped route via -44
    assert trace_route("adaptive", 0, 37, C100, AS_PRINTED).nodes[1] == 99
    assert trace_route("adaptive", 0, 37, C100, CORRECTED).nodes[1] == 56


def test_adaptive_delivers_in_place():
    assert trace_route("adaptive", 5, 5, C100).nodes == (5,)


def test_adaptive_first_step_stays_on_shortest_path():
    nxt = trace_route("adaptive", 0, 4, C8).nodes[1]
    dist = ref_bfs(ref_neighbors(CirculantSpec(8, (1, 3))), 4)
    assert dist[nxt] == dist[0] - 1 == 1


def test_adaptive_delta_depends_only_on_ordered_difference():
    for cfg in (C8, C16, C100):
        n = cfg.n
        for diff in (1, 2, cfg.s2, cfg.s2 + 1, n // 2, n - 2):
            up = _adaptive_delta(0, diff, cfg, CORRECTED)
            down = _adaptive_delta(diff, 0, cfg, CORRECTED)
            for u in range(0, n - diff, max(1, n // 7)):
                v = u + diff
                if v >= n:
                    continue
                assert _adaptive_delta(u, v, cfg, CORRECTED) == up
                assert _adaptive_delta(v, u, cfg, CORRECTED) == down


def test_adaptive_traces_are_shortest_when_wraps_covered():
    from circnoc.analysis import cycle_report

    for n, s2 in [(8, 3), (16, 6), (100, 44), (60, 23), (67, 32)]:
        cfg = RouterConfig(n, 1, s2)
        mode = AdaptiveMode("corrected", max(2, cycle_report(cfg).max_cycles))
        profile = ref_ring_profile(n, s2)
        for dst in range(1, n):
            assert trace_route("adaptive", 0, dst, cfg, mode).hops == profile[dst]


def test_unbounded_corrected_adaptive_routes_are_shortest():
    # with no wrap bound the scan value V is the exact distance, and every
    # corrected hop lowers V, so every route is a shortest one
    mode = AdaptiveMode("corrected", None)
    for n in range(5, 41):
        for s2 in ring_s2_values(n):
            cfg = RouterConfig(n, 1, s2)
            profile = ref_ring_profile(n, s2)
            for u in range(n):
                for v in range(n):
                    hops = trace_route("adaptive", u, v, cfg, mode).hops
                    assert hops == profile[(v - u) % n], (n, s2, u, v)


def test_corrected_adaptive_hop_lowers_its_scan_value():
    # V(u, v): the smaller of the two direction scans that the router runs
    # at u toward v, a function of |v - u|, with V(v, v) = 0.  Every
    # corrected hop lowers V by at least one, so a route takes at most
    # V(src, dst) hops and cannot livelock.
    for max_cycles in (2, 3, 8):
        mode = AdaptiveMode("corrected", max_cycles)
        for n in range(5, 41):
            for s2 in ring_s2_values(n):
                cfg = RouterConfig(n, 1, s2)
                value = [0] + [
                    min(_scan(s, n, s2, max_cycles)[0], _scan(n - s, n, s2, max_cycles)[0])
                    for s in range(1, n)
                ]
                for u in range(n):
                    for v in range(n):
                        if u != v:
                            nxt = (u + _adaptive_delta(u, v, cfg, mode)) % n
                            assert value[abs(v - nxt)] <= value[abs(v - u)] - 1, (cfg, mode, u, v)


def test_corrected_step_agrees_across_the_seam_unless_the_scans_tie():
    # d and d - n name one offset, on either side of label 0; the corrected
    # scans read only the offset, so only a tie, whose direction follows
    # the sign of d, can tell them apart.  The printed seed S + n differs
    # at most offsets, so a printed run ends wherever it crosses label 0.
    for max_cycles, pinned_ties in ((2, 6_789), (None, 6_839)):
        mode = AdaptiveMode("corrected", max_cycles)
        cases = ties = 0
        for n in range(5, 80):
            for s2 in ring_s2_values(n):
                cfg = RouterConfig(n, 1, s2)
                for d in range(1, n):
                    wraps = max_cycles or n
                    tie = _scan(d, n, s2, wraps)[0] == _scan(n - d, n, s2, wraps)[0]
                    differ = _adaptive_delta(0, d, cfg, mode) != _adaptive_delta(n - d, 0, cfg, mode)
                    assert differ == tie, (n, s2, d, max_cycles)
                    cases += 1
                    ties += tie
        assert (cases, ties) == (76_779, pinned_ties)
    printed = sum(
        _adaptive_delta(0, d, cfg, AS_PRINTED) != _adaptive_delta(n - d, 0, cfg, AS_PRINTED)
        for n in range(5, 80)
        for cfg in (RouterConfig(n, 1, s2) for s2 in ring_s2_values(n))
        for d in range(1, n)
    )
    assert printed == 70_085


@given(st.integers(min_value=5, max_value=3000), st.data())
def test_adaptive_trace_equals_the_per_hop_walk(n, data):
    # a route is listed from runs whose lengths come from the scans'
    # arithmetic; it must be the walk of the per-hop rule, and a printed
    # livelock must name the walk's first cycle.  s2 = 2 and (n - 1) // 2
    # give unit runs of hundreds of hops and long runs over many laps.
    s2 = data.draw(st.sampled_from([2, (n - 1) // 2, None]))
    if s2 is None:
        s2 = data.draw(st.integers(min_value=2, max_value=(n - 1) // 2))
    variant = data.draw(st.sampled_from(ADAPTIVE_VARIANTS))
    mode = AdaptiveMode(variant, data.draw(st.sampled_from([2, 3, None])))
    u = data.draw(st.integers(min_value=0, max_value=n - 1))
    v = data.draw(st.integers(min_value=0, max_value=n - 1))
    cfg = RouterConfig(n, 1, s2)
    kind, nodes = ref_adaptive_walk(u, v, cfg, mode)
    if kind == "cycle":
        with pytest.raises(LivelockError) as exc:
            trace_route("adaptive", u, v, cfg, mode)
        assert exc.value.cycle == nodes, (n, s2, u, v, mode)
    else:
        assert trace_route("adaptive", u, v, cfg, mode).nodes == nodes, (n, s2, u, v, mode)


# --- tracing ----------------------------------------------------------------------

def test_trace_same_node_is_empty():
    for algorithm in ("table", "clockwise", "adaptive"):
        trace = trace_route(algorithm, 4, 4, C8)
        assert trace.nodes == (4,)
        assert trace.ports == ()
        assert trace.hops == 0


def test_trace_table_two_hops():
    assert trace_route("table", 0, 4, C8).hops == 2


def test_trace_rejects_unknown_algorithm():
    with pytest.raises(ValidationError):
        trace_route("compass", 0, 1, C8)


def test_trace_ports_replay_to_nodes():
    for algorithm in ("table", "clockwise", "adaptive"):
        for src, dst in [(0, 4), (3, 1), (7, 2), (2, 7)]:
            trace = trace_route(algorithm, src, dst, C8)
            node = src
            replay = [node]
            for port in trace.ports:
                node = (node + C8.port_steps[port]) % C8.n
                replay.append(node)
            assert tuple(replay) == trace.nodes
            assert trace.nodes[0] == src and trace.nodes[-1] == dst
            assert trace.hops == len(trace.nodes) - 1


def test_trace_table_agrees_with_routing_table():
    table = build_routing_table(C16)
    for src, dst in [(0, 9), (5, 4), (12, 3)]:
        trace = trace_route("table", src, dst, C16)
        node = src
        for port in trace.ports:
            assert port == table.entries[node][dst]
            node = (node + C16.port_steps[port]) % C16.n


def test_trace_livelock_error_names_cycle():
    # the printed seed bounces between 0 and 82 and never reaches 97
    with pytest.raises(LivelockError) as exc:
        trace_route("adaptive", 0, 97, RouterConfig(100, 1, 18), AS_PRINTED)
    assert str(exc.value) == (
        "adaptive routing livelocks in C(100; 1, 18) for pair 0 -> 97: cycle 0 -> 82 -> 0"
    )
    assert exc.value.cycle == (0, 82, 0)


def test_memoized_traces_follow_the_per_hop_helpers():
    # trace_route reads each port from the config's memo; every trace must
    # still be the node-by-node walk of the per-hop rule.  One config per
    # (n, s2) serves every ordered pair, and its adaptive memo is first
    # filled at max_cycles=2, so a memo shared between modes would show at
    # 3.  C(41; 1, 19) is the smallest ring circulant on which the two
    # bounds pick different steps (at d = 31), so it joins those up to 30.
    # Each table and clockwise trace also equals the one routed on a fresh
    # config, whose table memo is empty.
    warm, mode = AdaptiveMode("corrected", 2), AdaptiveMode("corrected", 3)
    cfgs = [RouterConfig(n, 1, s2) for n in range(5, 31) for s2 in ring_s2_values(n)]
    for cfg in cfgs + [RouterConfig(41, 1, 19)]:
        n = cfg.n
        for v in range(1, n):
            trace_route("adaptive", 0, v, cfg, warm)
            trace_route("adaptive", v, 0, cfg, warm)
        profile, steps = circulant_distance_profile(n, (1, cfg.s2)), cfg.port_steps
        rules = {
            "table": lambda u, v: steps[_shortest_port(profile, steps, (v - u) % n, n)],
            "clockwise": lambda u, v: _clockwise_delta(u, v, cfg),
            "adaptive": lambda u, v: _adaptive_delta(u, v, cfg, mode),
        }
        for algorithm, delta in rules.items():
            for v in range(n):
                nxt = [(u + delta(u, v)) % n if u != v else v for u in range(n)]
                for u in range(n):
                    trace = trace_route(algorithm, u, v, cfg, mode)
                    if algorithm != "adaptive":
                        # the same route from an empty table memo
                        assert trace == trace_route(algorithm, u, v, RouterConfig(n, 1, cfg.s2))
                    nodes = trace.nodes
                    assert nodes[0] == u and nodes[-1] == v, (algorithm, cfg, u, v)
                    assert all(nxt[a] == b for a, b in zip(nodes, nodes[1:])), (algorithm, cfg, u, v)
                    assert all((a + steps[p]) % n == b for a, b, p in zip(nodes, nodes[1:], trace.ports))


def test_table_trace_never_reads_the_profile(monkeypatch):
    # a cold route comes from the candidate scan, a warm one from the memo
    calls = []
    monkeypatch.setattr(
        routing, "circulant_distance_profile", lambda n, gens: calls.append(n) or circulant_distance_profile(n, gens)
    )
    cfg = RouterConfig(100, 1, 18)
    cold = trace_route("table", 0, 57, cfg)
    assert len(cold.ports) > 1 and calls == []
    assert trace_route("table", 0, 57, cfg) == cold and calls == []


def test_trace_livelock_bound_is_exact():
    # a route stops at a repeated run start; the oracle walks hop by hop and
    # stops at the first revisited node, so both must agree on every pair
    traces = livelocks = 0
    for n in range(5, 25):
        for s2 in ring_s2_values(n):
            cfg = RouterConfig(n, 1, s2)
            for mode in (AS_PRINTED, CORRECTED):
                for u in range(n):
                    for v in range(n):
                        if u == v:
                            continue
                        traces += 1
                        kind, nodes = ref_adaptive_walk(u, v, cfg, mode)
                        if kind == "cycle":
                            livelocks += 1
                            assert mode.variant == "printed", (n, s2, u, v)
                            with pytest.raises(LivelockError) as exc:
                                trace_route("adaptive", u, v, cfg, mode)
                            assert exc.value.cycle == nodes, (n, s2, u, v)
                        else:
                            assert trace_route("adaptive", u, v, cfg, mode).nodes == nodes
    # characterization: the printed variant's livelocks over this range
    assert (traces, livelocks) == (68_860, 750)


def test_trace_json_shape():
    # key order and spacing are part of the trace file, not only its values
    pinned = {
        ("table", 37): '{"algorithm": "table", "n": 100, "s1": 1, "s2": 44, "src": 0, "dst": 37, '
        '"nodes": [0, 1, 57, 13, 69, 25, 81, 37], "ports": [0, 3, 3, 3, 3, 3, 3], "hops": 7}',
        ("clockwise", 53): '{"algorithm": "clockwise", "n": 100, "s1": 1, "s2": 44, "src": 0, '
        '"dst": 53, "nodes": [0, 56, 55, 54, 53], "ports": [3, 2, 2, 2], "hops": 4}',
        ("adaptive", 37): '{"algorithm": "adaptive", "n": 100, "s1": 1, "s2": 44, "src": 0, '
        '"dst": 37, "nodes": [0, 56, 12, 68, 24, 80, 36, 37], "ports": [3, 3, 3, 3, 3, 3, 0], '
        '"hops": 7}',
    }
    for (algorithm, dst), text in pinned.items():
        assert trace_route(algorithm, 0, dst, C100).to_json() == text


def test_traces_are_immutable_values():
    for algorithm in ("table", "clockwise", "adaptive"):
        trace = trace_route(algorithm, 0, 37, C100)
        with pytest.raises(AttributeError):
            trace.nodes = ()
        twin = trace_route(algorithm, 0, 37, RouterConfig(100, 1, 44))
        assert twin is not trace
        assert twin == trace and hash(twin) == hash(trace)


# --- closed-form candidates ----------------------------------------------------------

def test_unwrapped_scan_takes_the_shorter_candidate_form():
    # max_wraps=0 keeps the unwrapped pair: q + r hops, or q - r + s2 + 1
    # hops by overshooting with one more long step
    assert _scan(37, 100, 44, 0) == (8, False)    # forms (37, 8)
    assert _scan(263, 100, 44, 0) == (7, False)   # forms (48, 7)
    assert _scan(12, 100, 3, 0) == (4, False)     # forms (4, 8), no remainder
    assert _scan(5, 100, 44, 0) == (5, True)      # forms (5, 40), unit steps
    # with wraps it is the oracle's scan, which never stops early
    for n in range(5, 61):
        for s2 in range(2, (n - 1) // 2 + 1):
            for b in range(1, 2 * n):
                for w in range(4):
                    assert _scan(b, n, s2, w) == _ref_directional_best(b, n, s2, w), (b, n, s2, w)


def test_candidate_enumeration_reaches_bfs_distance():
    for n, s2 in [(8, 3), (16, 7), (30, 7), (45, 22), (100, 44)]:
        profile = ref_ring_profile(n, s2)
        for offset in range(1, n):
            exact = min(_scan(b, n, s2, n)[0] for b in (offset, n - offset))
            assert exact == profile[offset]
            bounded = min(_scan(b, n, s2, 4)[0] for b in (offset, n - offset))
            assert bounded >= exact


@given(st.integers(min_value=5, max_value=150), st.data())
def test_trace_length_translation_invariance_by_offset(n, data):
    # table and clockwise steps depend only on the cyclic label difference,
    # so every pair (u, v) routes like (0, (v - u) mod n) moved by u: the
    # same ports, and nodes shifted by u.  Checked on a fresh config, whose
    # table memo is empty, and again once the memo holds the route.
    s2 = data.draw(st.integers(min_value=2, max_value=(n - 1) // 2))
    u = data.draw(st.integers(min_value=0, max_value=n - 1))
    v = data.draw(st.integers(min_value=0, max_value=n - 1))
    cfg = RouterConfig(n, 1, s2)
    for algorithm in ("table", "clockwise"):
        ref = trace_route(algorithm, 0, (v - u) % n, RouterConfig(n, 1, s2))
        nodes = tuple((u + node) % n for node in ref.nodes)
        for _ in range(2):
            trace = trace_route(algorithm, u, v, cfg)
            assert (trace.nodes, trace.ports) == (nodes, ref.ports), (algorithm, u, v)


def test_table_memo_holds_one_route_per_offset_and_clockwise_none():
    # each offset in [1, n) keeps the two legs of its route, four ints;
    # offset 0 and clockwise routes keep nothing
    for n, s2 in [(8, 3), (30, 13), (100, 44), (101, 10)]:
        cfg = RouterConfig(n, 1, s2)
        profile = ref_ring_profile(n, s2)
        for u in range(0, n, 3):
            for v in range(n):
                for algorithm in ("table", "clockwise"):
                    trace_route(algorithm, u, v, cfg)
        assert set(cfg._memo) == {"table"}
        routes = cfg._memo["table"]
        assert set(routes) == set(range(1, n))
        for d, legs in routes.items():
            assert len(legs) == 4 and all(type(x) is int for x in legs), (n, s2, d)
            first, count1, second, count2 = legs
            assert count1 + count2 == profile[d], (n, s2, d)
            assert count2 == 0 or first < second, (n, s2, d)


def test_table_scan_is_shortest_on_every_small_ring():
    # the router's own scan routes every offset in exactly its BFS
    # distance, with its two legs in rising port order
    rings = [(n, s2) for n in range(5, 81) for s2 in ring_s2_values(n)]
    for n, s2 in rings + [(1024, 90), (2025, 197), (1024, 450)]:
        cfg = RouterConfig(n, 1, s2)
        profile = ref_ring_profile(n, s2)
        for d in range(1, n):
            first, count1, second, count2 = _table_legs(d, cfg)
            assert count1 + count2 == profile[d], (n, s2, d)
            assert count2 == 0 or first < second, (n, s2, d)


def test_long_cold_table_route_stores_one_legs_entry():
    # a cold 5000-hop route adds one entry of four ints, however long it is
    n = 20001
    cfg = RouterConfig(n, 1, 2)
    profile = circulant_distance_profile(n, (1, 2))
    trace = trace_route("table", 0, 10000, cfg)
    assert trace.hops == profile[10000] == 5000
    assert list(cfg._memo["table"]) == [10000]
    # a later route is the one routed on a fresh config, along the table
    later = trace_route("table", 0, 9000, cfg)
    assert later == trace_route("table", 0, 9000, RouterConfig(n, 1, 2))
    assert later.hops == profile[9000]
    table = build_routing_table(cfg)
    assert all(table.port(a, 9000) == p for a, p in zip(later.nodes, later.ports))


@given(st.integers(min_value=5, max_value=3000), st.data())
def test_table_trace_equals_a_lowest_port_walk(n, data):
    # s2 = 2 and s2 = (n - 1) // 2 give legs of hundreds of hops, where an
    # off-by-one in the first leg's count would show
    s2 = data.draw(st.sampled_from([2, (n - 1) // 2, None]))
    if s2 is None:
        s2 = data.draw(st.integers(min_value=2, max_value=(n - 1) // 2))
    u = data.draw(st.integers(min_value=0, max_value=n - 1))
    v = (u + data.draw(st.integers(min_value=1, max_value=n - 1))) % n
    trace = trace_route("table", u, v, RouterConfig(n, 1, s2))
    assert (trace.nodes, trace.ports) == ref_table_walk(u, v, n, s2), (n, s2, u, v)


@given(st.integers(min_value=5, max_value=400), st.data())
def test_table_trace_from_the_scan_equals_a_lowest_port_walk_on_wrapping_rings(n, data):
    # with s2 above n / 4 shortest routes wrap the ring and tie across wraps,
    # so the scan's tie set decides both legs
    s2 = data.draw(st.integers(min_value=max(2, n // 4), max_value=(n - 1) // 2))
    u = data.draw(st.integers(min_value=0, max_value=n - 1))
    v = (u + data.draw(st.integers(min_value=1, max_value=n - 1))) % n
    trace = trace_route("table", u, v, RouterConfig(n, 1, s2))
    assert (trace.nodes, trace.ports) == ref_table_walk(u, v, n, s2), (n, s2, u, v)


def test_table_runs_equal_the_lowest_port_walk_on_every_small_ring():
    # every ring with n <= 120 and every offset: the one-pass scan's two legs
    # are the runs of the lowest-port walk, and an empty second leg repeats
    # the first port
    for n in range(5, 121):
        for s2 in ring_s2_values(n):
            cfg = RouterConfig(n, 1, s2)
            for offset, walk in enumerate(ref_table_runs(n, s2)[1:], 1):
                legs = route_runs("table", 0, offset, cfg)
                assert legs == (walk if len(walk) == 4 else walk + (walk[0], 0)), (n, s2, offset)


def test_warm_table_and_clockwise_traces_run_no_loop_per_hop():
    # count the lines run inside routing.py: a warm trace of 2 hops and one
    # of many hops must run the same number
    def lines_run(algorithm, dst, cfg, src=0):
        count = 0

        def tracer(frame, event, arg):
            nonlocal count
            if frame.f_code.co_filename != routing.__file__:
                return None
            if event == "line":
                count += 1
            return tracer

        sys.settrace(tracer)
        try:
            trace = trace_route(algorithm, src, dst, cfg)
        finally:
            sys.settrace(None)
        return count, trace.hops

    cfg = RouterConfig(1024, 1, 90)
    lines_by_algorithm = {}
    for algorithm in ("table", "clockwise"):
        for dst in (91, 1024 - 91, 512, 89, 1024 - 89):
            trace_route(algorithm, 0, dst, cfg)
        counts = {}
        for dst in (91, 1024 - 91, 512, 89, 1024 - 89):
            lines, hops = lines_run(algorithm, dst, cfg)
            counts.setdefault(lines, []).append(hops)
        assert len(counts) == 1 and max(sum(counts.values(), [])) >= 10, (algorithm, counts)
        lines_by_algorithm[algorithm] = next(iter(counts))

    # legs inside [0, n), across the seam between n - 1 and 0 once, and over
    # several laps: each runs as many lines as the routes above and equals
    # the route walked one hop at a time
    walks = {"table": ref_table_walk, "clockwise": ref_clockwise_walk}
    for algorithm, seam_cfg, dst in [
        ("table", cfg, 91),                            # inside [0, n)
        ("clockwise", cfg, 91),
        ("clockwise", cfg, 935),                       # 89 unit steps back from 0
        ("table", RouterConfig(22, 1, 10), 6),         # five +10 steps
        ("table", RouterConfig(1024, 1, 450), 358),    # 19 x 450, eight laps
    ]:
        trace = trace_route(algorithm, 0, dst, seam_cfg)
        assert (trace.nodes, trace.ports) == walks[algorithm](0, dst, seam_cfg.n, seam_cfg.s2)
        assert lines_run(algorithm, dst, seam_cfg)[0] == lines_by_algorithm[algorithm], (
            algorithm, seam_cfg, dst,
        )

    # every warm table and clockwise route runs that one count, and every
    # warm corrected adaptive route of as many runs (one memo entry read
    # each) runs one count too, however many hops it takes
    for algorithm, ring in [
        ("table", RouterConfig(1024, 1, 450)),
        ("clockwise", RouterConfig(2025, 1, 197)),
        ("adaptive", cfg),
        ("adaptive", RouterConfig(2025, 1, 197)),
        ("adaptive", RouterConfig(1024, 1, 450)),
    ]:
        lines_by_key = {}
        for src in (0, ring.n // 2, ring.n - 1):
            for dst in set(range(0, ring.n, 7)) - {src}:
                trace_route(algorithm, src, dst, ring)
                lines, hops = lines_run(algorithm, dst, ring, src)
                key = len(routing.route_runs(algorithm, src, dst, ring)) if algorithm == "adaptive" else None
                lines_by_key.setdefault(key, {}).setdefault(lines, []).append(hops)
        groups = list(lines_by_key.values())
        assert all(len(by_lines) == 1 for by_lines in groups), (algorithm, ring, lines_by_key)
        if algorithm != "adaptive":
            assert next(iter(lines_by_key[None])) == lines_by_algorithm[algorithm], (algorithm, ring)
        spread = max(max(h) - min(h) for by_lines in groups for h in by_lines.values())
        assert spread >= 15, (algorithm, ring, lines_by_key)

    # a cold trace bisects for its first leg: a 5000-hop route may run only
    # the extra bisection steps, four lines each, over a 2-hop one.  Both
    # are one leg of port 1, and the profile is cached before either.
    n = 20001
    circulant_distance_profile(n, (1, 2))
    short_lines, short_hops = lines_run("table", 4, RouterConfig(n, 1, 2))
    long_lines, long_hops = lines_run("table", 10000, RouterConfig(n, 1, 2))
    assert (short_hops, long_hops) == (2, 5000)
    extra = long_lines - short_lines
    assert 0 <= extra <= 4 * math.ceil(math.log2(long_hops)), (short_lines, long_lines)
