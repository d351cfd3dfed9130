"""Circulant, mesh, and torus topologies, their metrics and graph exports.

A circulant on ``n`` nodes with generatrices ``(s1, ..., sk)`` links every
node ``v`` to ``(v +- si) mod n``.  Ring circulants (``s1 = 1``) keep the
Hamiltonian ring, which is what the routing layer relies on.  Metrics
and exports come from a topology's identity, a ``CirculantSpec`` or the
``GridSpec`` of a mesh or torus baseline; its links are enumerated only to
export them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

from .errors import ValidationError

__all__ = [
    "CirculantSpec",
    "GridSpec",
    "TopologyMetrics",
    "ComparisonRow",
    "SELECTION_RULES",
    "metrics",
    "circulant_distance_profile",
    "formula_optimal_circulant",
    "search_best_ring_circulant",
    "search_best_circulant2",
    "compare_topologies",
    "graph_to_dot",
]

# The largest n a ring search walks, as ``routing.WRAP_BUDGET`` bounds a
# scan.  The walk is O(n log n): at n = 10**6 - 3 .. 10**6 it took 0.6-1.8 s,
# and ``compare --sides 1000`` about 2 s (2 shared cores, Python 3.11.7).
RING_BUDGET = 1_000_000


class CirculantSpec(namedtuple("CirculantSpec", "n generatrices")):
    """Identity of a circulant topology: node count plus ordered generatrices.

    ``C(n; s1, ..., sk)`` requires ``1 <= s1 < ... < sk <= n // 2`` and
    ``gcd(n, s1, ..., sk) == 1`` so the graph is connected.  The
    generatrices are kept as a tuple.
    """

    __slots__ = ()
    kind = "circulant"

    def __new__(cls, n: int, generatrices: Iterable[int]) -> CirculantSpec:
        self = super().__new__(cls, n, tuple(generatrices))
        gens = self.generatrices
        if self.n < 3:
            raise ValidationError(f"circulant needs n >= 3 nodes, got n={self.n}")
        if not gens:
            raise ValidationError("at least one generatrix is required")
        if any(s < 1 for s in gens):
            raise ValidationError(f"generatrices must be >= 1, got {gens}")
        if any(a >= b for a, b in zip(gens, gens[1:])):
            raise ValidationError(f"generatrices must be strictly increasing, got {gens}")
        if gens[-1] > self.n // 2:
            raise ValidationError(
                f"largest generatrix {gens[-1]} exceeds floor(n/2) = {self.n // 2}"
            )
        if math.gcd(self.n, *gens) != 1:
            raise ValidationError(
                f"gcd(n, {', '.join(map(str, gens))}) != 1: graph would be disconnected"
            )
        return self

    @property
    def k(self) -> int:
        """Dimension of the circulant (number of generatrices)."""
        return len(self.generatrices)

    @property
    def is_ring(self) -> bool:
        """True when the first generatrix is 1 (unit-step ring present)."""
        return self.generatrices[0] == 1

    @property
    def edge_count(self) -> int:
        """Undirected links: n per generatrix, n/2 for s = n/2 (v + s == v - s)."""
        return sum(self.n // 2 if 2 * s == self.n else self.n for s in self.generatrices)

    @property
    def max_degree(self) -> int:
        """2k, less one for a generatrix n/2; every node has this degree."""
        return 2 * self.k - 1 if 2 * self.generatrices[-1] == self.n else 2 * self.k

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected links (u, v), u < v, in increasing order: v = (u +- s) mod n."""
        n = self.n
        for u in range(n):
            near = {(u + d) % n for s in self.generatrices for d in (s, -s)}
            yield from ((u, v) for v in sorted(near) if u < v)

    def __str__(self) -> str:
        return f"C({self.n}; {', '.join(map(str, self.generatrices))})"


class GridSpec(namedtuple("GridSpec", "kind rows cols")):
    """Identity of a rows x cols ``mesh``, or ``torus`` with wraparound links.

    A torus side below 3 would duplicate wrap edges, so it is rejected.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GridSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("mesh", "torus"):
            raise ValidationError(f"unknown grid kind {self.kind!r}; expected 'mesh' or 'torus'")
        least = 3 if self.kind == "torus" else 1
        if self.rows < least or self.cols < least:
            raise ValidationError(
                f"{self.kind} dimensions must be >= {least}, got {self.rows}x{self.cols}"
            )
        if self.n < 2:
            raise ValidationError("mesh needs at least 2 nodes")
        return self

    @property
    def n(self) -> int:
        return self.rows * self.cols

    @property
    def edge_count(self) -> int:
        """Undirected links: 2n on a torus, one fewer per row and per column on a mesh."""
        if self.kind == "torus":
            return 2 * self.n
        return self.rows * (self.cols - 1) + self.cols * (self.rows - 1)

    @property
    def max_degree(self) -> int:
        """4 on a torus; on a mesh, up to 2 neighbors along each side longer than 1."""
        return 4 if self.kind == "torus" else min(self.rows - 1, 2) + min(self.cols - 1, 2)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected links (u, v), u < v, in increasing order, from node r * cols + c
        to its 4 grid neighbours; a torus wraps each side, a mesh stops at it."""
        rows, cols = self.rows, self.cols
        for u in range(self.n):
            r, c = divmod(u, cols)
            near = {
                rr % rows * cols + cc % cols
                for rr, cc in ((r, c - 1), (r, c + 1), (r - 1, c), (r + 1, c))
                if self.kind == "torus" or (0 <= rr < rows and 0 <= cc < cols)
            }
            yield from ((u, v) for v in sorted(near) if u < v)

    def __str__(self) -> str:
        return f"{self.kind} {self.rows}x{self.cols}"


class TopologyMetrics(NamedTuple):
    """Distance and size metrics of a connected graph.

    ``avg_distance`` averages shortest-path hops over ordered pairs
    ``u != v`` (identical to the unordered average by symmetry).
    """

    diameter: int
    avg_distance: float
    edge_count: int
    max_degree: int


class ComparisonRow(NamedTuple):
    """Per-size comparison of one circulant against square mesh and torus.

    Reductions are percentages, ``100 * (other - circulant) / other``.
    """

    n: int
    selection: str
    circulant: CirculantSpec
    circulant_metrics: TopologyMetrics
    mesh_metrics: TopologyMetrics
    torus_metrics: TopologyMetrics
    diameter_reduction_vs_mesh: float
    diameter_reduction_vs_torus: float
    avg_distance_reduction_vs_mesh: float
    avg_distance_reduction_vs_torus: float


def metrics(topology: CirculantSpec | GridSpec) -> TopologyMetrics:
    """Diameter, average distance, edge count, and max degree of a topology.

    Edge count and degree are closed forms of the identity.  The distance
    total over ordered pairs is exact integer arithmetic:

    * circulant: vertex-transitive, so ``n * sum(profile)``, diameter
      ``max(profile)``, from the cached ``circulant_distance_profile``;
    * mesh: offsets add, and ``sum(|i - j|)`` over ordered pairs of
      ``0..m-1`` is ``(m**3 - m) / 3``, so ``(cols**2 (rows**3 - rows) +
      rows**2 (cols**3 - cols)) / 3``, diameter ``rows + cols - 2``;
    * torus: an m-cycle's distances from one node sum to ``m**2 // 4``, so
      ``n (cols (rows**2 // 4) + rows (cols**2 // 4))``, diameter
      ``rows // 2 + cols // 2``.
    """
    n = topology.n
    if topology.kind == "circulant":
        profile = circulant_distance_profile(n, topology.generatrices)
        total, diameter = n * sum(profile), max(profile)
    elif topology.kind == "mesh":
        rows, cols = topology.rows, topology.cols
        total = (cols * cols * (rows**3 - rows) + rows * rows * (cols**3 - cols)) // 3
        diameter = rows + cols - 2
    else:
        rows, cols = topology.rows, topology.cols
        total = n * (cols * (rows * rows // 4) + rows * (cols * cols // 4))
        diameter = rows // 2 + cols // 2
    return TopologyMetrics(
        diameter=diameter,
        avg_distance=total / (n * (n - 1)),
        edge_count=topology.edge_count,
        max_degree=topology.max_degree,
    )


def _n_entry_list(n: int, what: str) -> list[int]:
    """``[-1] * n``; an n whose list cannot be allocated raises ``ValidationError``."""
    try:
        return [-1] * n
    except (OverflowError, MemoryError):
        raise ValidationError(f"n={n} is too large for an n-entry {what}") from None


@lru_cache(maxsize=4096)
def circulant_distance_profile(n: int, generatrices: tuple[int, ...]) -> tuple[int, ...]:
    """Hop distances from node 0 to every node of C(n; generatrices).

    Circulants are vertex-transitive: d(u, v) == profile[(v - u) mod n],
    so one profile answers every all-pairs question.  This is the
    package's only BFS.  ``metrics``, routing tables and the analysis fill
    this cache; the topology searches rank candidates by their tent
    envelopes and never read it.

    The map x -> n - x is an automorphism fixing 0, so d(x) = d(n - x),
    and the BFS runs on the labels 0 .. n // 2 alone: the neighbours of u
    are u + s and |u - s|, and a label v above n // 2 stands for n - v.
    The half is then mirrored into the rest of the list.  An n whose
    n-entry list cannot be allocated raises ``ValidationError``.
    """
    CirculantSpec(n, generatrices)
    half = n // 2
    dist = _n_entry_list(n, "distance profile")
    dist[0] = 0
    queue = [0]
    for u in queue:  # the list grows while it is read: a FIFO queue
        d = dist[u] + 1
        for s in generatrices:
            v = u + s
            if v > half:
                v = n - v
            if dist[v] < 0:
                dist[v] = d
                queue.append(v)
            v = abs(u - s)
            if dist[v] < 0:
                dist[v] = d
                queue.append(v)
    dist[half + 1:] = dist[(n - 1) // 2:0:-1]
    return tuple(dist)


def formula_optimal_circulant(n: int) -> CirculantSpec:
    """Two-generatrix circulant C(n; d-1, d) with d = round(sqrt(n/2)).

    Rounding is to the nearest integer, ties up, in exact integer
    arithmetic: ``d <= sqrt(n/2) + 1/2 < d + 1`` is ``2d - 1 <= isqrt(2n) <
    2d + 1``, which holds for any n, also one beyond the float range.  When
    d - 1 < 1 the spec degenerates, so the result is clamped to the ring
    C(n; 1, 2) (plain ring C(3; 1) for n == 3, where no second generatrix
    exists).
    """
    if n <= 2:
        raise ValidationError(f"n must exceed 2, got {n}")
    d = (math.isqrt(2 * n) + 1) // 2
    if d - 1 < 1:
        if n == 3:
            return CirculantSpec(3, (1,))
        return CirculantSpec(n, (1, 2))
    return CirculantSpec(n, (d - 1, d))


def _envelope(heights: dict[int, int], m: int, bound: int) -> tuple[int, int]:
    """(diameter, total) of the lower envelope of slope-1 tents on an m-cycle.

    ``heights`` maps each apex position in ``0 .. m - 1`` to its tent height,
    and the apex at 0 has the lowest height h0.  Cut the cycle at 0 and list
    the apexes in order, with the apex 0 at both ends (a copy at m).  The
    envelope height ``h`` at each apex is a prefix minimum of
    ``height - position`` plus the position, or a suffix minimum of
    ``height + position`` minus it; a tent that reaches across the cut is
    never below the tent at 0, whose height is the lowest.  Between
    neighbouring apexes w apart the envelope is ``min(h1 + e, h2 + w - e)``
    for ``e = 0 .. w``.  With ``s = h1 + h2 + w`` its peak is ``s // 2`` and
    its values sum to ``s * s // 4 - h1 (h1 - 1) / 2 - h2 (h2 - 1) / 2``.
    Each inner apex ends one gap and starts the next, and the cut apex is
    one node listed twice, so the total is
    ``sum(s * s // 4) - sum(h * h) + h0 * h0``.  A diameter above
    ``bound`` loses whatever the total, so it comes back at once, total 0.
    """
    h0 = heights[0]
    heights[m] = h0
    apexes = sorted(heights)
    left = accumulate([heights[a] - a for a in apexes], min)
    right = list(accumulate([heights[a] + a for a in reversed(apexes)], min))[::-1]
    h = [min(lo + a, hi - a) for lo, hi, a in zip(left, right, apexes)]
    spans = [h1 + h2 + b - a for h1, h2, a, b in zip(h, h[1:], apexes, apexes[1:])]
    diameter = max(spans) // 2
    if diameter > bound:
        return diameter, 0
    return diameter, sum(s * s // 4 for s in spans) - sum(x * x for x in h) + h0 * h0


def _ring_key(n: int, t: int, bound: int) -> tuple[int, int]:
    """(diameter, total distance) of C(n; 1, t) from its tents, without a BFS.

    A shortest route to offset k takes some net number j of t-steps and
    then ring steps, so ``d(k) = min over j of |j| + ringdist(k - j t)``:
    the profile is the lower envelope (``_envelope``) of slope-1 tents on
    the n-cycle, tent j with its apex at ``j t mod n`` and height ``|j|``.
    Only the tents with ``|j| <= bound`` are laid, from the highest down,
    so the lowest height at each apex is the one kept, and the apex 0 has
    height 0.  The result is exact when the diameter is at most ``bound``,
    because the best j of every k then has ``|j| <= d(k) <= bound``;
    otherwise the envelope lies above the profile, its diameter exceeds
    ``bound``, and its total is left at 0.  This is ``_pair_key(n, 1, t,
    bound)``, one coset, with the label arithmetic left out: the ring
    search calls it for every candidate.
    """
    heights = {p: j for j in range(bound, -1, -1) for p in (j * t % n, -j * t % n)}
    return _envelope(heights, n, bound)


def _pair_key(n: int, s1: int, s2: int, bound: int) -> tuple[int, int]:
    """(diameter, total distance) of C(n; s1, s2) from its tents, without a BFS.

    Let g = gcd(s1, n), m = n / g and a = (s1 / g)**-1 mod m.  The s1-steps
    split the nodes into g cycles of m nodes, one per coset mod g.  Label
    node p as ``p % g * m + a * (p // g) % m``: coset ``p % g``, and on its
    cycle the position at which one s1-step adds 1.  A shortest route to p
    takes some net number j of s2-steps, landing on ``j s2 mod n``, and then
    s1-steps along that node's cycle.  So each coset's profile is the lower
    envelope (``_envelope``) of the tents of height ``|j|`` at the labels of
    ``j s2 mod n`` that fall in it, as in ``_ring_key``, which is the case
    g = 1.

    The node ``j s2 mod n`` lies in coset ``j s2 mod g``.  Connectivity
    makes s2 a unit mod g, so the tents of one coset are the j of one
    residue class j0 mod g; take |j0| <= g / 2, the lowest height in the
    class.  Writing ``j = j0 + k g``, its label lies ``k t`` after the label
    of j0 on the cycle, with ``t = a s2 mod m``.  So cut each cycle at its
    lowest apex j0: the coset's tents are ``k t mod m`` with height
    ``|j0 + k g|``.  The classes j0 and -j0 give mirror images, with the
    same key, so only j0 = 0 .. g // 2 are laid.  The key is the largest
    coset diameter and the sum of the coset totals.

    As in ``_ring_key``, only tents with ``|j| <= bound`` are laid, and the
    key is exact when the diameter is at most ``bound``.  Otherwise some
    coset's envelope lies above the bound, and the first such coset ends
    the walk with a diameter above the bound.  With g > 2 bound + 1 some
    coset has no tent at all.
    """
    g = math.gcd(s1, n)
    if g > 2 * bound + 1:
        return bound + 1, 0
    m = n // g
    t = pow(s1 // g, -1, m) * s2 % m
    diameter = total = 0
    for j0 in range(g // 2 + 1):
        # Laid from the highest tent down, so each label keeps its lowest
        # height: (k + 1) g - j0 >= k g + j0 >= k g - j0 because 2 j0 <= g.
        heights = {
            p: h
            for k in range((bound - j0) // g, -1, -1)
            for p, h in ((-(k + 1) * t % m, (k + 1) * g - j0), (k * t % m, k * g + j0))
            if h <= bound
        }
        coset_diameter, coset_total = _envelope(heights, m, bound)
        if coset_diameter > bound:
            return coset_diameter, total
        diameter = max(diameter, coset_diameter)
        total += coset_total if j0 == 0 or 2 * j0 == g else 2 * coset_total
    return diameter, total


def _layer_floor(n: int) -> tuple[int, int]:
    """Least (diameter, total distance) any C(n; s1, s2) can have.

    The nodes at distance d from 0 are among the ``x s1 + y s2`` with
    ``|x| + |y| = d``, and there are 4d such (x, y) for d >= 1 (Boesch &
    Wang, 1985).  So no layer holds more than 4d nodes, and the greedy fill,
    4d nodes at each distance d = 1, 2, ... until n - 1 are placed, has the
    least diameter and the least total of any two-generatrix circulant.

    Layers 1 .. D hold 2D(D + 1) nodes, so the diameter D is the least d
    with 1 + 2d(d + 1) >= n, within one of ``(isqrt(2n - 1) - 1) // 2``.
    The full layers below D add 4 * sum(d * d) = 2(D - 1)D(2D - 1)/3, and
    the rest of the n - 1 nodes lie at distance D.
    """
    diameter = (math.isqrt(2 * n - 1) - 1) // 2
    if 1 + 2 * diameter * (diameter + 1) < n:
        diameter += 1
    inner = 2 * (diameter - 1) * diameter
    return diameter, inner * (2 * diameter - 1) // 3 + diameter * (n - 1 - inner)


def _short_vector(n: int, t: int) -> tuple[int, int]:
    """(|x| + |j|, ||x| - |j||) of an L1-shortest (x, j), x + j t = 0 mod n.

    The shortest with least j > 0 is a best approximation of t / n (a
    smaller j with j t as near a multiple of n would be shorter), so j is a
    convergent's denominator (Lagrange) and |x| its remainder in the
    Euclidean algorithm on (n, t).  Ties keep the least ||x| - |j||.
    """
    lam, c = t + 1, t - 1
    x, y, j, k = n, t, 0, 1
    while y and k < lam:
        q = x // y
        x, y, j, k = y, x - q * y, k, j + q * k
        if y + k < lam or y + k == lam and abs(y - k) < c:
            lam, c = y + k, abs(y - k)
    return lam, c


def _ring_floor(n: int, t: int, bound: int) -> tuple[int, int]:
    """A lower bound on the (diameter, total) of C(n; 1, t), in O(log n) steps.

    The nodes within r hops are the image of the L1 ball B_r (2r^2 + 2r + 1
    points) under (x, y) -> x + y t mod n.  For a lattice vector v = (x, j),
    x + j t = 0 mod n, each point of B_r & (B_r + v) has the node of a point
    of B_r that lies v below it, so at most |B_r| less that overlap lie
    within r hops.  In u = x + y, w = x - y the overlap is a box of
    (2r + 1 - lam) x (2r + 1 - c) points whose corners have even u + w,
    lam = |x| + |j| and c = ||x| - |j||: ceil((2r + 1 - lam)(2r + 1 - c) / 2)
    points, none once lam > 2r.  Filling each radius up to this cap, as
    ``_layer_floor`` fills its layers, the diameter is at least the first r
    whose cap reaches n (else bound + 1), and the total at least the sum of
    n - cap(r) below it, for v from ``_short_vector``.  Up to the radius
    (lam - 1) // 2, cap(r) = 2r^2 + 2r + 1 reaches n, if there, at the layer
    floor's diameter, and sums to a (2a^2 + 1) / 3 over r < a.  Above it the
    squares cancel (lam = c mod 2): cap(r) = ((lam + c)(2r + 1) - drop) / 2
    with drop = lam c - lam % 2 is linear in r, so its first r is a ceiling.
    """
    lam, c = _short_vector(n, t)
    r = (lam - 1) // 2
    drop = lam * c - lam % 2
    if 2 * r * (r + 1) + 1 >= n:
        d = _layer_floor(n)[0]
    else:
        d = max(r + 1, -(-(2 * n + drop) // (lam + c)) // 2)
    d = min(d, bound + 1)
    a = min(d, r + 1)
    return d, d * n - a * (2 * a * a + 1) // 3 - (d - a) * ((lam + c) * (d + a) - drop) // 2


def _ring_candidates(n: int) -> Iterator[int]:
    """The t in 2 .. (n - 1) // 2 whose multiplier twin does not come first.

    The twin of a unit t is ``min(a, n - a)`` with ``a = t**-1 mod n``:
    multiplying every label by a maps C(n; 1, t) onto C(n; a, 1) (Adam's
    isomorphism), so the two have one key.
    """
    for t in range(2, (n - 1) // 2 + 1):
        if math.gcd(t, n) == 1:
            a = pow(t, -1, n)
            if min(a, n - a) < t:
                continue
        yield t


@lru_cache(maxsize=None)
def _best_ring(n: int) -> tuple[int, tuple[int, int]]:
    """Second generatrix and (diameter, total distance) of the best C(n; 1, t).

    The walks are those of ``search_best_ring_circulant``.  A floor's bound
    only caps its diameter at bound + 1, so the floors the first walk reads
    within D + 1 make the same choices under any best key up to
    ``(D + 1, inf)``, and the second walk reuses them.
    """
    floor = _layer_floor(n)
    cap = (floor[0] + 1, math.inf)
    near = []
    for t in _ring_candidates(n):
        lower = _ring_floor(n, t, cap[0])
        if lower < cap:
            if lower == floor and _ring_key(n, t, floor[0]) == floor:
                return t, floor
            near.append((t, lower))
    bare = ((t, _ring_floor(n, t, n // 2)) for t in _ring_candidates(n))
    for start, walk in ((cap, near), ((n // 2, math.inf), bare)):
        best_t, best_key = 0, start
        for t, lower in walk:
            if lower < best_key:
                key = _ring_key(n, t, best_key[0])
                if key < best_key:
                    best_t, best_key = t, key
        if best_t:
            return best_t, best_key


def search_best_ring_circulant(n: int) -> CirculantSpec:
    """Best ring circulant C(n; 1, s2), ranked without a BFS.

    Minimizes (diameter, average distance) lexicographically over
    s2 in [2, ceil(n/2) - 1]; ties go to the smallest s2.  Each candidate's
    key is the lower envelope of its tents (``_ring_key``) laid up to the
    best diameter found so far, so one beyond that bound loses as it
    should.  Each walk (``_best_ring``) goes over s2 in increasing order
    and replaces the best only on a strict improvement, from one of three
    start keys in turn, each tried only if the one before found no ring.

    No key is below ``_layer_floor(n)`` = (D, T) (no layer holds more than
    4d nodes at distance d).  The first walk starts from ``(D, T + 1)``,
    so only a ring at the floor can beat its start: it keys only an s2
    whose lattice floor is the layer floor, within bound D, and the first
    that meets the floor wins.  That is exact, because the full walk's
    winner is the first s2 at the least key, and none is below the floor.
    Only if no ring meets the floor (21 of the 205 sizes of the paper's
    sweeps) does the second walk run from ``(D + 1, inf)``, over the s2
    whose lattice floors the first walk found within D + 1; and only if
    no ring comes within D + 1, which happens at no n = 5..1499, the third
    from the bare ring's diameter n // 2, which no C(n; 1, s2) exceeds.
    Each walk skips a unit s2 whose multiplier twin comes earlier, and an
    s2 whose lattice floor (``_ring_floor``, that count sharpened by the
    shortest vector of its own lattice) is not below the best key.  Such a
    candidate could at best tie, so the winner and its tie-break are those
    of the full walk.  A skipped s2 costs O(log n) steps, so a walk is
    O(n log n) besides the tents of the s2 it keys.
    The result depends on n alone, so each n is searched once per process.
    An n above ``RING_BUDGET`` raises ``ValidationError`` before any tent
    is laid.
    """
    if n < 5:
        raise ValidationError(f"no valid second generatrix for n={n}; need n >= 5")
    if n > RING_BUDGET:
        raise ValidationError(f"n={n} is too large for an n-entry ring search")
    return CirculantSpec(n, (1, _best_ring(n)[0]))


def search_best_circulant2(n: int) -> CirculantSpec:
    """Best two-generatrix circulant by exhaustive search over (s1, s2).

    Same lexicographic criterion as the ring search, over all connected
    pairs 1 <= s1 < s2 < n/2; ties go to the smallest (s1, s2).

    Multiplying every label by a unit ``a`` mod n maps C(n; s1, s2) onto
    C(n; a s1, a s2) (Adam's multiplier isomorphism), which keeps every
    distance.  So a pair with a unit generatrix ``g`` has the key of the
    ring circulant C(n; 1, t), with ``u = other * g**-1 mod n`` and
    ``t = min(u, n - u)``, which lies in 2 .. (n - 1) // 2 because
    0 < s1 < s2 < n/2.  The row s1 = 1 comes first in the scan and
    holds every ring key, so the search starts from the ring winner
    (``search_best_ring_circulant``) and its key.  A later pair with a
    unit generatrix repeats one of those keys, which is never strictly
    below the ring winner's, so it cannot win.  Only the pairs in which
    neither generatrix is a unit are scanned.
    Each gets its key from the tents of its cosets (``_pair_key``), laid up
    to the best diameter so far, so no pair runs a BFS: one within the
    bound gets its exact key, and one beyond it a diameter above the bound,
    so it loses as it should.

    No pair has a key below ``_layer_floor(n)``: its layers hold at most
    4d nodes at distance d.  So the ring winner is returned at once when its
    key equals that floor, and the scan stops at the first pair that
    reaches it.  The pairs passed over could at best tie, and a tie never
    replaces the best, so the result and its tie-break are unchanged.
    """
    if n < 5:
        raise ValidationError(f"no valid generatrix pair for n={n}; need n >= 5")
    best_pair = search_best_ring_circulant(n).generatrices
    best_key = _best_ring(n)[1]
    floor = _layer_floor(n)
    limit = (n - 1) // 2
    pairs = (
        (s1, s2)
        for s1 in range(2, limit)
        if math.gcd(s1, n) != 1
        for s2 in range(s1 + 1, limit + 1)
        if math.gcd(s2, n) != 1 and math.gcd(n, s1, s2) == 1
    )
    for s1, s2 in pairs:
        if best_key == floor:
            break
        key = _pair_key(n, s1, s2, best_key[0])
        if key < best_key:
            best_key = key
            best_pair = (s1, s2)
    return CirculantSpec(n, best_pair)


SELECTION_RULES = {
    "best_ring": search_best_ring_circulant,
    "formula_eq1": formula_optimal_circulant,
    "best_general": search_best_circulant2,
}


def _reduction(circulant_value: float, other_value: float) -> float:
    return 100.0 * (other_value - circulant_value) / other_value


def compare_topologies(sides: Iterable[int], selection: str = "best_ring") -> list[ComparisonRow]:
    """Compare circulants against square mesh and torus for n = side**2.

    One row per side; the circulant is chosen by ``selection``
    (one of ``best_ring``, ``formula_eq1``, ``best_general``).
    """
    if selection not in SELECTION_RULES:
        raise ValidationError(
            f"unknown selection rule {selection!r}; expected one of {sorted(SELECTION_RULES)}"
        )
    rule = SELECTION_RULES[selection]
    rows = []
    for side in sides:
        if side < 3:
            raise ValidationError(f"side must be >= 3, got {side}")
        n = side * side
        spec = rule(n)
        circ = metrics(spec)
        mesh = metrics(GridSpec("mesh", side, side))
        torus = metrics(GridSpec("torus", side, side))
        rows.append(
            ComparisonRow(
                n=n,
                selection=selection,
                circulant=spec,
                circulant_metrics=circ,
                mesh_metrics=mesh,
                torus_metrics=torus,
                diameter_reduction_vs_mesh=_reduction(circ.diameter, mesh.diameter),
                diameter_reduction_vs_torus=_reduction(circ.diameter, torus.diameter),
                avg_distance_reduction_vs_mesh=_reduction(circ.avg_distance, mesh.avg_distance),
                avg_distance_reduction_vs_torus=_reduction(circ.avg_distance, torus.avg_distance),
            )
        )
    return rows


def graph_to_dot(topology: CirculantSpec | GridSpec) -> str:
    """Render a topology in undirected DOT format with node ids as labels."""
    _n_entry_list(topology.n, "node list")  # refuse a topology too large to list
    lines = [f"graph {topology.kind} {{"]
    for v in range(topology.n):
        lines.append(f'  {v} [label="{v}"];')
    for u, v in topology.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
