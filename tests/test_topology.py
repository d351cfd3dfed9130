import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circnoc import topology
from circnoc.cli import main
from circnoc.errors import ValidationError
from circnoc.routing import _scan
from circnoc.topology import (
    CirculantSpec,
    GridSpec,
    circulant_distance_profile,
    compare_topologies,
    formula_optimal_circulant,
    graph_to_dot,
    metrics,
    search_best_circulant2,
    search_best_ring_circulant,
)
from circnoc.topology import (
    _best_ring,
    _lattice_floor,
    _layer_floor,
    _pair_frame,
    _pair_key,
    _ring_key,
    _short_vector,
)
from oracles import (
    ref_bfs,
    ref_metrics,
    ref_neighbors,
    ref_pair_profile,
    ref_ring_fill,
    ref_ring_profile,
    ring_s2_values,
)


# --- circulant construction ------------------------------------------------

def _adjacency(topo):
    """Neighbour sets read back from ``topo.edges()``."""
    near = [set() for _ in range(topo.n)]
    for u, v in topo.edges():
        near[u].add(v)
        near[v].add(u)
    return near


def _degrees(topo):
    return [len(nbrs) for nbrs in _adjacency(topo)]


def _ref_edges(neighbors):
    return [(u, v) for u in range(len(neighbors)) for v in sorted(neighbors[u]) if u < v]


def test_circulant_c9_13_is_degree_four_with_18_edges():
    spec = CirculantSpec(9, (1, 3))
    assert _degrees(spec) == [4] * 9
    assert len(list(spec.edges())) == spec.edge_count == 18


def test_circulant_triangle():
    assert list(CirculantSpec(3, (1,)).edges()) == [(0, 1), (0, 2), (1, 2)]


def test_circulant_c8_13_neighbors_of_zero():
    assert sorted(_adjacency(CirculantSpec(8, (1, 3)))[0]) == [1, 3, 5, 7]


def test_circulant_half_generatrix_degree_drops_by_one():
    # +n/2 and -n/2 reach the same node, so that generatrix adds one edge
    spec = CirculantSpec(6, (1, 3))
    assert _degrees(spec) == [3] * 6
    assert len(list(spec.edges())) == 2 * 6 - 3


@pytest.mark.parametrize(
    "n, gens",
    [
        (2, (1,)),
        (8, ()),
        (8, (0, 3)),
        (8, (3, 1)),
        (8, (1, 1)),
        (8, (1, 5)),
        (9, (3,)),
        (10, (2, 4)),
    ],
)
def test_circulant_spec_rejects_invalid(n, gens):
    with pytest.raises(ValidationError):
        CirculantSpec(n, gens)


def test_circulant_spec_str_and_flags():
    spec = CirculantSpec(8, (1, 3))
    assert str(spec) == "C(8; 1, 3)"
    assert spec.k == 2
    assert spec.is_ring
    assert not CirculantSpec(9, (2, 3)).is_ring


# --- mesh and torus --------------------------------------------------------

def test_mesh_3x3():
    mesh = GridSpec("mesh", 3, 3)
    assert mesh.n == 9
    assert len(list(mesh.edges())) == 12
    assert _degrees(mesh) == [2, 3, 2, 3, 4, 3, 2, 3, 2]


def test_mesh_1x2_is_single_edge():
    assert list(GridSpec("mesh", 1, 2).edges()) == [(0, 1)]


def test_mesh_2x2_is_cycle():
    assert list(GridSpec("mesh", 2, 2).edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (1, 1)])
def test_mesh_rejects_bad_dims(rows, cols):
    with pytest.raises(ValidationError):
        GridSpec("mesh", rows, cols)


def test_grid_spec_rejects_unknown_kind_and_names_itself():
    with pytest.raises(ValidationError, match="unknown grid kind 'ring'"):
        GridSpec("ring", 3, 3)
    assert str(GridSpec("torus", 3, 5)) == "torus 3x5"
    assert GridSpec("mesh", 3, 5).n == 15


def test_torus_3x3():
    torus = GridSpec("torus", 3, 3)
    assert len(list(torus.edges())) == 18
    assert _degrees(torus) == [4] * 9
    assert max(ref_bfs(_adjacency(torus), 0)) == 2


def test_torus_4x4_diameter():
    torus = GridSpec("torus", 4, 4)
    assert len(list(torus.edges())) == 2 * 16
    assert metrics(torus).diameter == max(ref_bfs(_adjacency(torus), 0)) == 4


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2), (1, 5)])
def test_torus_rejects_small_dims(rows, cols):
    with pytest.raises(ValidationError):
        GridSpec("torus", rows, cols)


# --- distances and metrics -------------------------------------------------

def test_bfs_c8_13_profile():
    assert circulant_distance_profile(8, (1, 3)) == (0, 1, 2, 1, 2, 1, 2, 1)


def test_bfs_mesh_corner_reaches_opposite_corner_in_four():
    assert metrics(GridSpec("mesh", 3, 3)).diameter == 4


def test_metrics_c8_13():
    m = metrics(CirculantSpec(8, (1, 3)))
    assert m.diameter == 2
    assert m.avg_distance == pytest.approx(10 / 7, rel=1e-12)
    assert m.edge_count == 16
    assert m.max_degree == 4


def test_metrics_triangle():
    m = metrics(CirculantSpec(3, (1,)))
    assert m.diameter == 1
    assert m.avg_distance == 1.0


def test_metrics_torus_3x3_diameter():
    assert metrics(GridSpec("torus", 3, 3)).diameter == 2


@pytest.mark.parametrize(
    "graph",
    [
        CirculantSpec(12, (1, 5)),
        CirculantSpec(11, (2, 3)),
        GridSpec("mesh", 4, 6),
        GridSpec("torus", 3, 5),
    ],
)
def test_metrics_match_reference_oracle(graph):
    diameter, avg = ref_metrics(ref_neighbors(graph))
    m = metrics(graph)
    assert m.diameter == diameter
    assert m.avg_distance == pytest.approx(avg, rel=1e-12)
    assert m.avg_distance <= m.diameter


def _ring_circulants(max_n):
    for n in range(3, max_n + 1):
        yield CirculantSpec(n, (1,))
        for s2 in ring_s2_values(n):
            yield CirculantSpec(n, (1, s2))


def _assert_metrics_match_oracle(topo):
    neighbors = ref_neighbors(topo)
    diameter, avg = ref_metrics(neighbors)
    m = metrics(topo)
    assert (m.diameter, m.avg_distance) == (diameter, avg), topo
    edges = list(topo.edges())
    assert edges == _ref_edges(neighbors), topo
    assert m.edge_count == len(edges) == topo.edge_count, topo
    assert m.max_degree == max(map(len, neighbors)) == topo.max_degree, topo


def test_metrics_one_bfs_matches_oracle_for_every_ring_circulant():
    for spec in _ring_circulants(40):
        _assert_metrics_match_oracle(spec)


def test_metrics_match_oracle_with_a_half_generatrix_and_three_generatrices():
    # s = n/2 pairs the nodes up, so it adds n/2 edges and one to the degree
    for n in range(4, 31, 2):
        _assert_metrics_match_oracle(CirculantSpec(n, (1, n // 2)))
    for n in range(6, 31):
        for s1, s2 in ((1, 2), (2, 3), (2, 5)):
            for s3 in range(s2 + 1, n // 2 + 1):
                if math.gcd(n, s1, s2, s3) == 1:
                    _assert_metrics_match_oracle(CirculantSpec(n, (s1, s2, s3)))
    for n, gens in ((11, (2, 3)), (15, (3, 5)), (20, (4, 5)), (12, (3, 4, 6))):
        _assert_metrics_match_oracle(CirculantSpec(n, gens))


def test_metrics_closed_form_matches_oracle_for_every_torus():
    for rows in range(3, 16):
        for cols in range(3, 16):
            _assert_metrics_match_oracle(GridSpec("torus", rows, cols))


def test_metrics_closed_form_matches_oracle_for_every_mesh():
    for rows in range(1, 11):
        for cols in range(1, 11):
            if rows * cols >= 2:
                _assert_metrics_match_oracle(GridSpec("mesh", rows, cols))


def test_metrics_paths_enumerate_no_links(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a metrics path enumerated links")

    for spec_type in (CirculantSpec, GridSpec):
        monkeypatch.setattr(spec_type, "edges", refuse)
    rows = compare_topologies(range(3, 24))
    assert [row.n for row in rows] == [side * side for side in range(3, 24)]
    for flag, value in (("--circulant", "16,1,3,5"), ("--mesh", "3x4"), ("--torus", "5x3")):
        assert main(["topo", flag, value, "--metrics"]) == 0
    assert "D = 3" in capsys.readouterr().out


def _connected_pairs(n):
    limit = (n - 1) // 2
    for s1 in range(1, limit):
        for s2 in range(s1 + 1, limit + 1):
            if math.gcd(n, s1, s2) == 1:
                yield s1, s2


def test_multiplier_isomorphism_maps_unit_pairs_onto_rings():
    # C(n; s1, s2) ~ C(n; 1, t) for a unit generatrix g: multiplying every
    # label by g**-1 keeps all distances.
    for n in range(5, 61):
        ring = {}
        for s1, s2 in _connected_pairs(n):
            units = [(g, other) for g, other in ((s1, s2), (s2, s1)) if math.gcd(g, n) == 1]
            if not units:
                continue
            profile = ref_pair_profile(n, s1, s2)
            for g, other in units:
                u = other * pow(g, -1, n) % n
                t = min(u, n - u)
                if t not in ring:
                    ring_profile = ref_ring_profile(n, t)
                    ring[t] = (max(ring_profile), sum(ring_profile))
                assert (max(profile), sum(profile)) == ring[t], (n, s1, s2)


def test_search_best_circulant2_matches_brute_force_oracle():
    for n in range(5, 51):
        best = None
        for s1, s2 in _connected_pairs(n):
            profile = ref_pair_profile(n, s1, s2)
            key = (max(profile), sum(profile), s1, s2)
            if best is None or key < best:
                best = key
        assert search_best_circulant2(n).generatrices == best[2:], n


def test_search_best_circulant2_starts_from_the_ring_search(monkeypatch):
    # the ring walk goes through the public search, so a wrapper there
    # (such as the benchmark's tracer) sees it apart from the pair keys
    ring_search, calls = topology.search_best_ring_circulant, []
    monkeypatch.setattr(topology, "search_best_ring_circulant", lambda n: calls.append(n) or ring_search(n))
    assert search_best_circulant2(100) == ring_search(100) == CirculantSpec(100, (1, 18))
    assert calls == [100]


def test_ring_search_stops_at_the_floor_and_skips_multiplier_twins(monkeypatch):
    keyed = []
    ring_key = topology._ring_key
    monkeypatch.setattr(topology, "_ring_key", lambda n, t, bound: keyed.append((t, bound)) or ring_key(n, t, bound))
    _best_ring.cache_clear()
    assert _best_ring(2025) == (197, _layer_floor(2025))
    # the first walk keys only a t whose lattice floor is the layer floor,
    # within its diameter D; the lattice floor rules out 182 of the 183 t
    # it reaches, and the one it keys meets the floor
    assert len(keyed) == 1
    assert keyed[0][0] == 197
    assert all(bound == _layer_floor(2025)[0] for _, bound in keyed)
    for t, bound in keyed:  # no t it keys has a stride too short to reach n // 2 within the bound
        assert -(-(2025 // 2) // t) <= bound, (t, bound)
    for t, _ in keyed:
        if math.gcd(t, 2025) == 1:
            a = pow(t, -1, 2025)
            assert min(a, 2025 - a) >= t, t


def test_ring_search_walks_again_when_no_ring_comes_within_the_cap(monkeypatch):
    # a floor of (1, 0) starts the first two walks from (1, 1) and (2, inf),
    # which no ring here can beat, so the third walk from n // 2 decides;
    # 144 misses the floor
    expected = {n: _best_ring.__wrapped__(n) for n in (37, 100, 144)}
    assert expected[144][1] > _layer_floor(144)
    monkeypatch.setattr(topology, "_layer_floor", lambda n: (1, 0))
    for n, best in expected.items():
        assert _best_ring.__wrapped__(n) == best


def _ball(r):
    return {(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if abs(x) + abs(y) <= r}


def test_ring_floor_overlap_count_matches_brute_force():
    # |B_r & (B_r + v)| for v = (x, j): a box of equal-parity points in
    # u = x + y, w = x - y, as the docstring of _lattice_floor counts it
    for r in range(9):
        ball = _ball(r)
        assert len(ball) == 2 * r * r + 2 * r + 1
        side = 2 * r + 1
        for x in range(-20, 21):
            for j in range(-20, 21):
                lam, c = abs(x) + abs(j), abs(abs(x) - abs(j))
                count = ((side - lam) * (side - c) + 1) // 2 if lam < side else 0
                assert count == sum((p - x, q - j) in ball for p, q in ball), (r, x, j)


def test_ring_floor_is_below_the_ring_key():
    # the walk calls it with any bound, below the diameter and above it
    for n in range(5, 121):
        for t in ring_s2_values(n):
            key = _ring_key(n, t, n)
            for bound in range(n // 2 + 2):
                assert _lattice_floor(n, 1, t, bound) <= key, (n, t, bound)


def test_short_vector_is_the_brute_force_shortest():
    # the least (|x| + j, ||x| - j|) over 1 <= j <= n; the tie-break on c
    # matters: in C(8; 1, 3), |x| + j is 4 for (x, j) = (3, 1) and (2, 2)
    assert _short_vector(8, 1, 3) == (4, 0)
    for n in range(5, 401):
        for t in ring_s2_values(n):
            best = (n + 1, 0)
            for j in range(1, n + 1):
                if j >= best[0]:  # no larger j is shorter, or as short with a smaller c
                    break
                x = min(j * t % n, -j * t % n)
                best = min(best, (x + j, abs(x - j)))
            assert _short_vector(n, 1, t) == best, (n, t)


def test_ring_floor_fill_matches_the_radius_loop(monkeypatch):
    # any (lam, c) of a lattice vector: c <= lam and c = lam mod 2
    for lam in range(1, 31):
        for c in range(lam % 2, lam + 1, 2):
            monkeypatch.setattr(topology, "_short_vector", lambda m, g, t: (lam, c))
            for n in range(2, 240, 9):
                for bound in range(22):
                    assert _lattice_floor(n, 1, 0, bound) == ref_ring_fill(n, lam, c, bound), (n, lam, c, bound)


def test_best_ring_at_scale():
    assert _best_ring(10**4) == (1830, (71, 471369))
    assert _best_ring(90000) == (15906, (212, 12727956))


def test_ring_walk_pruned_by_the_floor_matches_the_walk_without_it(monkeypatch):
    pruned = {n: _best_ring.__wrapped__(n) for n in range(5, 401)}
    second = {}
    with monkeypatch.context() as patch:  # the second walk, from n // 2
        patch.setattr(topology, "_layer_floor", lambda n: (1, 0))
        for n in (37, 100, 144, 150, 400):
            second[n] = _best_ring.__wrapped__(n)
            assert second[n] == pruned[n], n
    monkeypatch.setattr(topology, "_lattice_floor", lambda n, g, t, bound: (0, 0))
    for n, best in pruned.items():
        assert _best_ring.__wrapped__(n) == best, n
    monkeypatch.setattr(topology, "_layer_floor", lambda n: (1, 0))
    for n, best in second.items():
        assert _best_ring.__wrapped__(n) == best, n


PAPER_SWEEPS = sorted(set(range(5, 201)) | {side * side for side in range(3, 24)})


def test_general_winner_meets_the_layer_floor():
    for n in range(5, 301):
        profile = circulant_distance_profile(n, search_best_circulant2(n).generatrices)
        assert (max(profile), sum(profile)) == _layer_floor(n), n


def test_best_ring_misses_the_layer_floor_at_21_sweep_sizes():
    missed = [n for n in PAPER_SWEEPS if _best_ring(n)[1] != _layer_floor(n)]
    assert missed == [
        12, 24, 30, 40, 60, 70, 84, 112, 126, 132, 138, 144,
        150, 165, 174, 180, 186, 192, 198, 400, 441,
    ]


def test_first_walk_keys_only_rings_whose_lattice_floor_is_the_layer_floor(monkeypatch):
    keyed, floored = [], []
    ring_key, lattice_floor = topology._ring_key, topology._lattice_floor
    monkeypatch.setattr(topology, "_ring_key", lambda n, t, bound: keyed.append((n, t, bound)) or ring_key(n, t, bound))
    monkeypatch.setattr(
        topology,
        "_lattice_floor",
        lambda n, g, t, bound: floored.append((n, g, t)) or lattice_floor(n, g, t, bound),
    )
    _best_ring.cache_clear()
    met = [n for n in PAPER_SWEEPS if _best_ring(n)[1] == _layer_floor(n)]
    assert len(met) == 184
    for n, t, bound in keyed:
        if n in met:
            assert bound == _layer_floor(n)[0], (n, t, bound)
            assert lattice_floor(n, 1, t, bound) == _layer_floor(n), (n, t)
    assert len(keyed) == 373  # 1,194 when every walk started above the floor
    # the second walk reuses the first walk's floors, so no t's floor is read twice
    assert len(floored) == len(set(floored)) == 4761


def test_general_search_keys_no_pair_once_the_ring_meets_the_floor(monkeypatch):
    keyed = []
    pair_key = topology._pair_key
    monkeypatch.setattr(topology, "_pair_key", lambda *args: keyed.append(args) or pair_key(*args))
    assert _best_ring(100)[1] == _layer_floor(100)
    assert search_best_circulant2(100) == CirculantSpec(100, (1, 18))
    assert keyed == []
    # nor lists one: 256 has no connected pair without a unit generatrix,
    # and listing its pairs took 6,049 gcds; two are CirculantSpec's checks
    assert _best_ring(256)[1] == _layer_floor(256)
    gcd, calls = math.gcd, []
    with monkeypatch.context() as patch:
        patch.setattr(topology.math, "gcd", lambda *args: calls.append(args) or gcd(*args))
        spec = search_best_circulant2(256)
    assert spec.generatrices == (1, 92)
    assert len(calls) == 2
    # 144 misses the floor, and the lattice floor passes over the 46 pairs
    # before (8, 9) that the search keyed when it read no floor
    assert _best_ring(144)[1] > _layer_floor(144)
    assert search_best_circulant2(144) == CirculantSpec(144, (8, 9))
    assert keyed == [(144, *_pair_frame(144, 8, 9), _best_ring(144)[1][0])]


# The ring misses the layer floor at these sizes above the brute-force
# oracle's n <= 50; their general winners, as the search found them before
# it read pair floors.
GENERAL_WINNERS = {112: (7, 8), 144: (8, 9), 400: (2, 55), 441: (3, 56), 1200: (24, 25)}


def test_general_search_winners_where_the_ring_misses_the_floor():
    for n, pair in GENERAL_WINNERS.items():
        assert _best_ring(n)[1] > _layer_floor(n), n
        assert search_best_circulant2(n).generatrices == pair, n


def test_general_search_keys_only_pairs_whose_lattice_floor_is_below_the_best(monkeypatch):
    keyed = []
    pair_key = topology._pair_key
    monkeypatch.setattr(topology, "_pair_key", lambda *args: keyed.append(args) or pair_key(*args))
    missed = [n for n in range(100, 401) if _best_ring(n)[1] != _layer_floor(n)]
    assert len(missed) == 20
    for n in missed:
        search_best_circulant2(n)
    assert {args[0] for args in keyed} == set(missed)
    assert len(keyed) == 33  # 1,095 without the pair floor


def test_circulant_profile_matches_graph_bfs():
    for n, gens in [(8, (1, 3)), (16, (1, 7)), (15, (2, 4)), (30, (1, 14))]:
        neighbors = ref_neighbors(CirculantSpec(n, gens))
        profile = circulant_distance_profile(n, gens)
        assert list(profile) == ref_bfs(neighbors, 0)
        # vertex transitivity: shifting the source shifts the profile
        for src in (1, n // 2, n - 1):
            dist = ref_bfs(neighbors, src)
            assert all(dist[(src + off) % n] == profile[off] for off in range(n))


def test_folded_profile_matches_graph_bfs_for_every_small_circulant():
    # the BFS searches labels 0 .. n // 2 only, folding v > n // 2 onto
    # n - v, and mirrors the half: every valid circulant with n <= 40 and
    # up to three generatrices must give the full graph's BFS distances
    count = 0
    for n in range(3, 41):
        for k in (1, 2, 3):
            for gens in itertools.combinations(range(1, n // 2 + 1), k):
                if math.gcd(n, *gens) == 1:
                    profile = circulant_distance_profile(n, gens)
                    assert list(profile) == ref_bfs(ref_neighbors(CirculantSpec(n, gens)), 0), (n, gens)
                    count += 1
    assert count == 12_564


def test_layer_floor_closed_form_equals_the_greedy_fill():
    # the greedy fill places node k (k = 1, 2, ...) at the first layer d
    # whose 4d slots are not yet full; the floor of n is the fill of n - 1
    # nodes, checked for every n <= 10^5
    diameter = total = room = 0
    assert _layer_floor(1) == (0, 0)
    for n in range(2, 100_001):
        if not room:
            diameter += 1
            room = 4 * diameter
        room -= 1
        total += diameter
        assert _layer_floor(n) == (diameter, total), n
    # no loop per layer: a 10^30-node floor answers at once
    assert _layer_floor(10**30)[0] == 707106781186548


def test_vertex_transitivity_distance_multisets():
    for n, gens in [(9, (1, 3)), (20, (3, 7)), (25, (1, 7)), (48, (1, 20)), (100, (1, 44))]:
        neighbors = ref_neighbors(CirculantSpec(n, gens))
        base = sorted(ref_bfs(neighbors, 0))
        for src in range(1, n):
            assert sorted(ref_bfs(neighbors, src)) == base


@given(
    n=st.integers(min_value=3, max_value=300),
    data=st.data(),
)
@settings(max_examples=60)
def test_circulant_symmetry_and_degree_fuzz(n, data):
    k = data.draw(st.integers(min_value=1, max_value=min(3, n // 2)))
    gens = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=n // 2),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    gens = tuple(sorted(gens))
    if math.gcd(n, *gens) != 1:
        return
    spec = CirculantSpec(n, gens)
    neighbors = ref_neighbors(spec)
    for u in range(n):
        for v in neighbors[u]:
            assert u in neighbors[v]
            assert u != v
    edges = list(spec.edges())
    assert edges == _ref_edges(neighbors)
    assert len(edges) == spec.edge_count
    assert _degrees(spec) == [spec.max_degree] * n
    if gens[-1] < n / 2:
        assert spec.max_degree == 2 * len(gens)


def test_diameter_matches_candidate_enumeration():
    # closed-form candidate enumeration (with enough wraps) reproduces the
    # BFS diameter for every ring circulant up to n = 200
    for n in range(5, 201, 3):
        for s2 in ring_s2_values(n):
            profile = circulant_distance_profile(n, (1, s2))
            arith = max(min(_scan(s, n, s2, n)[0], _scan(n - s, n, s2, n)[0]) for s in range(1, n))
            assert arith == max(profile), (n, s2)


# --- synthesis rules ---------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [
        (32, (3, 4)),
        (8, (1, 2)),
        (529, (15, 16)),
        (4, (1, 2)),
        (3, (1,)),
        (50, (4, 5)),
    ],
)
def test_formula_optimal_circulant(n, expected):
    spec = formula_optimal_circulant(n)
    assert spec.n == n
    assert spec.generatrices == expected


def test_formula_optimal_rejects_tiny_n():
    with pytest.raises(ValidationError):
        formula_optimal_circulant(2)


def _exhaustive_ring_winner(n):
    best = None
    for s2 in ring_s2_values(n):
        profile = ref_ring_profile(n, s2)
        key = (max(profile), sum(profile), s2)
        if best is None or key < best:
            best = key
    return best[2]


def test_search_best_ring_n8_against_exhaustive_oracle():
    # s2 = 2 and s2 = 3 tie exactly on (diameter, total distance)...
    key2 = (max(ref_ring_profile(8, 2)), sum(ref_ring_profile(8, 2)))
    key3 = (max(ref_ring_profile(8, 3)), sum(ref_ring_profile(8, 3)))
    assert key2 == key3 == (2, 10)
    # ...so the smallest-s2 tie-break decides
    assert search_best_ring_circulant(8).generatrices == (1, _exhaustive_ring_winner(8)) == (1, 2)


def test_search_best_ring_n9_against_exhaustive_oracle():
    assert search_best_ring_circulant(9).generatrices == (1, _exhaustive_ring_winner(9))


def test_search_best_ring_matches_oracle_sweep():
    for n in range(5, 151):
        assert search_best_ring_circulant(n).generatrices == (1, _exhaustive_ring_winner(n)), n


def test_search_best_ring_picks_the_route_traffic_topologies():
    assert search_best_ring_circulant(1024).generatrices == (1, 90)
    assert search_best_ring_circulant(2025).generatrices == (1, 197)


def test_ring_key_envelope_matches_bfs_for_every_ring_circulant():
    for n in range(5, 121):
        for t in ring_s2_values(n):
            profile = ref_ring_profile(n, t)
            assert _ring_key(n, t, n) == (max(profile), sum(profile)), (n, t)


def test_ring_key_below_the_diameter_reports_a_diameter_above_the_bound():
    # The ring search prunes on this: a candidate whose true diameter
    # exceeds the best so far must not look as good as the best.
    for n in range(5, 121):
        for t in ring_s2_values(n):
            diameter = max(ref_ring_profile(n, t))
            for bound in range(diameter):
                assert _ring_key(n, t, bound)[0] > bound, (n, t, bound)


def _pairs_up_to_half(n):
    # Every connected C(n; s1, s2), s2 = n/2 included.
    for s1 in range(1, n // 2):
        for s2 in range(s1 + 1, n // 2 + 1):
            if math.gcd(n, s1, s2) == 1:
                yield s1, s2


def _non_unit_pairs(n):
    # The pairs that the general search ranks by their coset tents.
    return [
        (s1, s2)
        for s1, s2 in _connected_pairs(n)
        if math.gcd(s1, n) > 1 and math.gcd(s2, n) > 1
    ]


def test_pair_key_matches_bfs_and_prunes_below_the_diameter():
    # Exact with an unlimited bound; below the diameter, a diameter above
    # the bound, which is what the general search prunes on.  No pair is
    # below the layer floor, which both searches stop at.
    for n in range(5, 61):
        floor = _layer_floor(n)
        for s1, s2 in _pairs_up_to_half(n):
            profile = ref_pair_profile(n, s1, s2)
            key = (max(profile), sum(profile))
            assert key[0] >= floor[0] and key[1] >= floor[1], (n, s1, s2)
            assert _pair_key(n, *_pair_frame(n, s1, s2), n) == key, (n, s1, s2)
            assert _pair_key(n, *_pair_frame(n, s1, s2), key[0]) == key, (n, s1, s2)
            for bound in range(key[0]):
                assert _pair_key(n, *_pair_frame(n, s1, s2), bound)[0] > bound, (n, s1, s2, bound)


def test_pair_key_matches_bfs_for_every_non_unit_pair():
    # and the pair's lattice floor, under any bound the search passes it,
    # is at most that key
    count = 0
    for n in range(5, 121):
        for s1, s2 in _non_unit_pairs(n):
            profile = ref_pair_profile(n, s1, s2)
            key = (max(profile), sum(profile))
            g, t = _pair_frame(n, s1, s2)
            assert _pair_key(n, g, t, n) == key, (n, s1, s2)
            for bound in (*range(key[0] + 2), n):
                assert _lattice_floor(n, g, t, bound) <= key, (n, s1, s2, bound)
            count += 1
    assert count == 3223


def test_pair_short_vector_is_the_brute_force_shortest():
    # the least (|x| + |y|, ||x| - |y||) over the nonzero (x, y) with
    # x s1 + y s2 = 0 mod n, found radius by radius, against the weighted
    # walk on the pair's frame, for every connected pair, unit or not
    count = 0
    for n in range(5, 61):
        for s1, s2 in _pairs_up_to_half(n):
            r, found = 0, []
            while not found:
                r += 1
                found = [
                    (r, abs(2 * abs(x) - r))
                    for x in range(-r, r + 1)
                    for y in {r - abs(x), abs(x) - r}
                    if (x * s1 + y * s2) % n == 0
                ]
            g, t = _pair_frame(n, s1, s2)
            assert _short_vector(n // g, g, t) == min(found), (n, s1, s2)
            count += 1
    assert count == 7219


@given(n=st.integers(min_value=6, max_value=300), data=st.data())
@settings(max_examples=30)
def test_pair_key_matches_bfs_on_random_non_unit_pairs(n, data):
    pairs = _non_unit_pairs(n)
    if not pairs:
        return
    s1, s2 = data.draw(st.sampled_from(pairs))
    profile = ref_pair_profile(n, s1, s2)
    key = (max(profile), sum(profile))
    bound = data.draw(st.integers(min_value=0, max_value=key[0]))
    if bound == key[0]:
        assert _pair_key(n, *_pair_frame(n, s1, s2), bound) == key
    else:
        assert _pair_key(n, *_pair_frame(n, s1, s2), bound)[0] > bound


def _moore_bound_holds(spec):
    # A 4-regular circulant reaches at most 4d nodes at distance d, so
    # n <= 1 + sum(4d for d in 1..D) = 2 D**2 + 2 D + 1 (Boesch & Wang).
    diameter = max(ref_pair_profile(spec.n, *spec.generatrices))
    return spec.n <= 2 * diameter * diameter + 2 * diameter + 1


def test_best_circulants_respect_the_moore_bound():
    for n in range(5, 201):
        assert _moore_bound_holds(search_best_ring_circulant(n)), n
        assert _moore_bound_holds(search_best_circulant2(n)), n
    # The route_traffic sizes.  At n = 2025 the general search ranks its
    # 36,450 pairs without a unit generatrix by their coset tents, about 1 s.
    assert _moore_bound_holds(search_best_ring_circulant(1024))
    assert _moore_bound_holds(search_best_circulant2(1024))
    assert _moore_bound_holds(search_best_ring_circulant(2025))
    assert _moore_bound_holds(search_best_circulant2(2025))


def test_search_best_ring_deterministic():
    assert search_best_ring_circulant(37) == search_best_ring_circulant(37)


def test_search_best_ring_rejects_small_n():
    with pytest.raises(ValidationError):
        search_best_ring_circulant(4)


def test_search_best_circulant2_rejects_small_n():
    with pytest.raises(ValidationError, match="need n >= 5"):
        search_best_circulant2(4)


def test_search_best_ring_never_worse_than_extreme_choices():
    for n in range(6, 80):
        best = search_best_ring_circulant(n)
        best_key = _spec_key(best)
        for s2 in {2, (n - 1) // 2}:
            if s2 >= 2:
                assert best_key <= _spec_key(CirculantSpec(n, (1, s2)))


def _spec_key(spec):
    profile = circulant_distance_profile(spec.n, spec.generatrices)
    return (max(profile), sum(profile))


def test_search_best_circulant2_dominates_other_rules():
    for n in (8, 16, 25, 32, 47):
        general = _spec_key(search_best_circulant2(n))
        assert general <= _spec_key(search_best_ring_circulant(n))
        assert general[0] <= _spec_key(formula_optimal_circulant(n))[0]
    assert _spec_key(search_best_circulant2(8))[0] == 2


# --- topology comparison ------------------------------------------------------

def test_compare_topologies_small_sweep():
    rows = compare_topologies(range(3, 9))
    assert len(rows) == 6
    assert [r.n for r in rows] == [9, 16, 25, 36, 49, 64]
    for r in rows:
        assert r.circulant_metrics.diameter <= r.torus_metrics.diameter <= r.mesh_metrics.diameter
        assert (
            r.circulant_metrics.avg_distance
            <= r.torus_metrics.avg_distance
            <= r.mesh_metrics.avg_distance
        )
    first = rows[0]
    assert first.mesh_metrics.diameter == 4
    assert first.torus_metrics.diameter == 2


def test_compare_reductions_recomputable():
    for row in compare_topologies([4, 7], selection="formula_eq1"):
        expect = 100.0 * (
            row.mesh_metrics.diameter - row.circulant_metrics.diameter
        ) / row.mesh_metrics.diameter
        assert row.diameter_reduction_vs_mesh == pytest.approx(expect, rel=1e-9)
        expect = 100.0 * (
            row.torus_metrics.avg_distance - row.circulant_metrics.avg_distance
        ) / row.torus_metrics.avg_distance
        assert row.avg_distance_reduction_vs_torus == pytest.approx(expect, rel=1e-9)
        # mesh is never better than torus here, so its reduction is larger
        assert row.diameter_reduction_vs_mesh >= row.diameter_reduction_vs_torus
        assert row.avg_distance_reduction_vs_mesh >= row.avg_distance_reduction_vs_torus


def test_compare_rejects_small_side_and_bad_rule():
    with pytest.raises(ValidationError):
        compare_topologies([2])
    with pytest.raises(ValidationError):
        compare_topologies([3], selection="nope")


def test_compare_is_deterministic():
    assert compare_topologies([3, 5]) == compare_topologies([3, 5])


# --- exports -------------------------------------------------------------------

def test_graph_to_dot():
    text = graph_to_dot(CirculantSpec(3, (1,)))
    assert text.startswith("graph circulant {")
    assert '0 [label="0"];' in text
    assert "0 -- 1;" in text and "1 -- 2;" in text and "0 -- 2;" in text
    assert text.rstrip().endswith("}")


def edge_csv(tmp_path, capsys, flag, value):
    """The ``topo --format csv`` edge list, which ``harness._render_csv`` renders."""
    path = tmp_path / "edges.csv"
    assert main(["topo", flag, value, "--format", "csv", "--out", str(path)]) == 0
    capsys.readouterr()
    return path.read_text(encoding="utf-8")


def test_graph_to_edge_csv(tmp_path, capsys):
    assert edge_csv(tmp_path, capsys, "--mesh", "1x3") == "u,v\n0,1\n1,2\n"


def test_exports_keep_their_pinned_texts(tmp_path, capsys):
    assert edge_csv(tmp_path, capsys, "--circulant", "8,1,4") == (
        "u,v\n0,1\n0,4\n0,7\n1,2\n1,5\n2,3\n2,6\n3,4\n3,7\n4,5\n5,6\n6,7\n"
    )
    assert edge_csv(tmp_path, capsys, "--torus", "3x3") == (
        "u,v\n0,1\n0,2\n0,3\n0,6\n1,2\n1,4\n1,7\n2,5\n2,8\n"
        "3,4\n3,5\n3,6\n4,5\n4,7\n5,8\n6,7\n6,8\n7,8\n"
    )
    assert graph_to_dot(GridSpec("mesh", 2, 2)) == (
        'graph mesh {\n  0 [label="0"];\n  1 [label="1"];\n  2 [label="2"];\n  3 [label="3"];\n'
        "  0 -- 1;\n  0 -- 2;\n  1 -- 3;\n  2 -- 3;\n}\n"
    )


def test_format_metrics_csv(tmp_path, capsys):
    path = tmp_path / "m.csv"
    assert main(["topo", "--circulant", "8,1,3", "--metrics", "--out", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert main(["topo", "--mesh", "3x3", "--metrics", "--out", str(path)]) == 0
    lines += path.read_text(encoding="utf-8").splitlines()[1:]
    capsys.readouterr()
    assert lines[0] == "n,topology,generatrices,diameter,avg_distance,edges"
    assert lines[1] == f"8,circulant,1 3,2,{10 / 7!r},16"
    assert lines[2] == "9,mesh,,4,2.0,12"
