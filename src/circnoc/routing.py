"""Routing strategies for ring circulants C(n; 1, s2).

Three strategies share one four-port router model:

* ``table``     -- the lowest port on a shortest path, per label
                   difference: a route reads its two legs from the
                   candidate scan, and ``build_routing_table``'s row of
                   ports comes from the distance profile;
* ``clockwise`` -- one-direction iterative arithmetic on the label
                   difference, cheap to evaluate but not always shortest;
* ``adaptive``  -- bidirectional candidate search that also weighs routes
                   wrapping past the ring's reference point, shortest as
                   long as the needed wrap count stays within its bound.

Ports are numbered clockwise: 0 -> +s1, 1 -> +s2, 2 -> -s1, 3 -> -s2.
Every router gives a route in one form, a short flat tuple of (port,
count) runs (``route_runs``): table and clockwise routes are two runs,
adaptive runs come from the candidate scan's arithmetic too.  A scan
that could walk more ring wraps than ``WRAP_BUDGET`` is refused before
it starts.  A trace lists the runs as ranges, split where a run crosses
label 0 and reduced mod n node by node only where it crosses label 0
more than once.  Everything here is pure; tables and traces are
immutable, and a route memo keeps only rule output.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import repeat
from operator import mod
from typing import NamedTuple

from .errors import LivelockError, ValidationError
from .topology import CirculantSpec, circulant_distance_profile

__all__ = [
    "ALGORITHMS",
    "ADAPTIVE_VARIANTS",
    "RouterConfig",
    "AdaptiveMode",
    "CORRECTED",
    "AS_PRINTED",
    "RoutingTable",
    "RouteTrace",
    "build_routing_table",
    "route_runs",
    "trace_route",
]

ALGORITHMS = ("table", "clockwise", "adaptive")
# The most ring wraps a table or unbounded adaptive scan may walk
# (``_check_wraps``), and ``cycle_report``'s walks together.  A table
# route's wrap bound is below n/8 + 1, so no n <= 4e7 is refused, and a BFS
# distance profile of C(1e7; 1, 5e6) took 3.0 s and 435 MB; at the budget
# the scan walks about 7 s (1.5 us per wrap in both directions; 2 shared
# cores, Python 3.11.7).
WRAP_BUDGET = 5_000_000
ADAPTIVE_VARIANTS = ("printed", "corrected")


class RouterConfig(namedtuple("RouterConfig", "n s1 s2")):
    """Ring circulant routing parameters: n nodes, generatrices 1 and s2.

    Routing arithmetic requires the unit first generatrix and s2 strictly
    below n/2 (so s2 fits in the address-difference field).

    Every router picks its next port from d = dest - current alone: the
    table and clockwise rules read d mod n, the adaptive rule reads |d|
    and the sign of d (its ties go counter-clockwise, so u -> v and
    v -> u can differ).  The class sets no ``__slots__``, and ``__new__``
    puts two plain attributes in each config's ``__dict__``, which
    equality, hashing, ``repr`` and ``_asdict()`` do not see:

    * ``port_steps``, the signed label steps by port number (clockwise
      numbering), which every router reads once per route;
    * ``_memo``, the route memo of ``trace_route``, living as long as this
      config.  ``"table"`` maps an offset d = (dst - src) mod n in [1, n)
      to the four ints of its route's two runs (``_table_legs``).  Each
      ``AdaptiveMode`` maps d = dest - current in (-n, n) to the run that
      starts there, packed in one int (``_adaptive_run``).  Entries are
      added when a route first needs them, so the table dict holds at most
      n - 1 entries and an adaptive dict at most 2n - 2.  Clockwise routes
      come from their closed form and are not memoized.

    ``__new__`` takes the three fields by position or keyword and checks
    them in order (s1, then s2, then 2 s2 < n) before it builds: the tuple
    comes from ``tuple.__new__``, not from the generated namedtuple
    constructor, and then gets its two attributes.  ``_make``, and so
    ``_replace``, builds through ``__new__`` and validates too, and so do
    a copy and an unpickled config (``__reduce__``): each starts with its
    own empty memo, and a pickle holds the three fields alone.
    """

    def __new__(cls, n: int, s1: int, s2: int) -> RouterConfig:
        if s1 != 1:
            raise ValidationError(f"first generatrix must be 1, got {s1}")
        if s2 < 2:
            raise ValidationError(f"second generatrix must be >= 2, got {s2}")
        if 2 * s2 >= n:
            raise ValidationError(f"second generatrix {s2} must be below n/2 = {n / 2}")
        self = tuple.__new__(cls, (n, s1, s2))
        self.port_steps = (s1, s2, -s1, -s2)
        self._memo = {}
        return self

    @classmethod
    def _make(cls, iterable) -> RouterConfig:
        return cls(*iterable)

    def __reduce__(self) -> tuple[type, tuple[int, int, int]]:
        return RouterConfig, tuple(self)

    @classmethod
    def from_spec(cls, spec: CirculantSpec) -> "RouterConfig":
        if spec.k != 2 or not spec.is_ring:
            raise ValidationError(f"routing requires a ring circulant C(n; 1, s2), got {spec}")
        return cls(spec.n, spec.generatrices[0], spec.generatrices[1])

    def __str__(self) -> str:
        return f"C({self.n}; {self.s1}, {self.s2})"


class AdaptiveMode(namedtuple("AdaptiveMode", "variant max_cycles", defaults=("corrected", 2))):
    """Adaptive routing variant and wrap bound.

    ``corrected`` seeds the counter-clockwise candidate scan with n - S;
    ``printed`` keeps the S + n seed of the original listing, preserved
    for fidelity checks (it can pick a wrong-direction first step).
    ``max_cycles`` bounds how many full ring wraps the candidate scan
    considers in each direction; circulants with a large generatrix can
    need well past the default of 2 before every route is shortest.
    ``None`` sets no bound: each scan then stops only once no further wrap
    can improve, after about V·s2/n wraps for a route of V hops, which is
    O(n) per memo miss when s2 is near n/2; a scan whose wrap bound, read
    from the lesser unwrapped form of the two, exceeds ``WRAP_BUDGET`` is
    refused.

    Under ``corrected``, with any ``max_cycles``, every hop lowers the
    router's scan value V(u, v) (see ``_adaptive_run``) by at least one,
    so a route from u to v takes at most V(u, v) hops and never livelocks.
    With no bound V is the exact distance, so every corrected route is
    shortest.  The ``printed`` seed S + n is no real counter-clockwise
    displacement, and its hops can leave V where it was.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> AdaptiveMode:
        self = super().__new__(cls, *args, **kwargs)
        if self.variant not in ADAPTIVE_VARIANTS:
            raise ValidationError(
                f"unknown adaptive variant {self.variant!r}; expected one of {ADAPTIVE_VARIANTS}"
            )
        if self.max_cycles is not None and self.max_cycles < 2:
            raise ValidationError(f"max_cycles must be >= 2, got {self.max_cycles}")
        return self


CORRECTED = AdaptiveMode("corrected", 2)
AS_PRINTED = AdaptiveMode("printed", 2)


class RoutingTable(NamedTuple):
    """Next-hop ports indexed by label difference; ``ports[0]`` is None.

    Circulants are vertex-transitive, so the port from u toward v is
    ``ports[(v - u) % n]`` and one n-entry row serves every router.
    """

    cfg: RouterConfig
    ports: tuple[int | None, ...]

    @property
    def n(self) -> int:
        return self.cfg.n

    @property
    def entries(self) -> tuple[tuple[int | None, ...], ...]:
        """N x N view of the row: ``entries[u][v]``; the diagonal is None."""
        row, n = self.ports, self.n
        return tuple(row[n - u:] + row[:n - u] for u in range(n))

    def port(self, current: int, dest: int) -> int:
        _check_node(current, self.n, "current")
        _check_node(dest, self.n, "dest")
        if current == dest:
            raise ValidationError(f"packet already delivered: node {current}")
        return self.ports[(dest - current) % self.n]


class RouteTrace(NamedTuple):
    """Ordered node and port sequence of one routed packet."""

    algorithm: str
    n: int
    s1: int
    s2: int
    src: int
    dst: int
    nodes: tuple[int, ...]
    ports: tuple[int, ...]

    @property
    def hops(self) -> int:
        return len(self.ports)

    def to_json(self) -> str:
        return json.dumps({**self._asdict(), "hops": self.hops})


def _check_node(value: int, n: int, name: str) -> None:
    if not 0 <= value < n:
        raise ValidationError(f"{name} {value} out of range [0, {n})")


def _shortest_port(profile: tuple[int, ...], steps: tuple[int, int, int, int], offset: int, n: int) -> int:
    """Smallest port whose step moves one hop closer to the given offset."""
    d = profile[offset]
    for port in range(4):
        if profile[(offset - steps[port]) % n] == d - 1:
            return port
    raise AssertionError(f"no descending port at offset {offset}")  # pragma: no cover


def build_routing_table(cfg: RouterConfig) -> RoutingTable:
    """Precompute the next-hop port for every label difference.

    Each entry names a port leading one hop closer to the destination;
    among equally short ports the smallest port number wins.  The port
    depends only on the label difference, so one row is computed.
    """
    n = cfg.n
    profile = circulant_distance_profile(n, (cfg.s1, cfg.s2))
    steps = cfg.port_steps
    row = tuple(_shortest_port(profile, steps, offset, n) for offset in range(1, n))
    return RoutingTable(cfg=cfg, ports=(None,) + row)


def _table_legs(offset: int, cfg: RouterConfig) -> tuple[int, int, int, int]:
    """The table route of an offset in [1, n) as two legs, from the candidate scan.

    Returns (first, c1, second, c2): c1 hops on port ``first``, then
    c2 = D - c1 on ``second`` (``first`` when c2 is 0).

    A route to the offset is J long and R unit steps (signed) with
    J s2 + R = b, b = offset + k n for some wrap k, in |J| + |R| hops
    (Monakhova, "A survey on undirected circulant graphs", 2012).  For a
    fixed b the cost |J| + |b - J s2| falls strictly while J < b / s2 and
    rises strictly above it (s2 >= 2), so only J = floor(b / s2) and
    ceil(b / s2) can be least: ``_scan``'s two forms, q + r and
    q - r + s2 + 1.  The b >= 0 are the offset plus m wraps, the b < 0
    minus n - offset plus m wraps, and both forms of wrap m take at least
    q = |b| // s2 hops, which grows with m.  So the scan walks m = 0, 1, ...
    in both directions at once, stops a direction once q exceeds the best
    so far, and sees every representation tied at the distance D: no
    other J of a wrap ties, and no later wrap reaches D.  One ``divmod``
    per direction gives both unwrapped forms, which set the first best
    (and so W0) and are the walk's wrap 0, so no wrap is read twice.

    The table leaves by the lowest port that brings the packet one hop
    closer, and a port does that exactly when some tie uses it: drop one
    of its steps for a route one hop shorter; conversely a shortest route
    of the neighbour plus the step is shortest and cannot hold the
    opposite step, which would cancel.  Steps commute, so a port below the
    one just taken would have descended a hop earlier: ports never fall.
    So ``first`` is the lowest port any tie uses, c1 the largest count of
    it among the ties, and the ties with that count, less those c1 steps,
    are the shortest routes of the rest, so ``second`` is the lowest other
    port among them.  Written as hop counts per port (at most two nonzero,
    summing to D), the greatest tie in tuple order has exactly these: all
    ties are 0 below ``first``, and those with c1 put D - c1 on one other
    port, which compares greatest at the lowest.  The scan keeps only it.

    A direction walks about D s2 / n + 1 wraps, and at most
    W0 = ((B + 1) s2 - 1 - base) // n, B the best unwrapped form, which is
    below n / 8 + 1.  ``_check_wraps`` refuses a W0 above ``WRAP_BUDGET``
    before the first wrap.
    """
    n, s2 = cfg.n, cfg.s2
    back = n - offset
    fq, fr = divmod(offset, s2)
    bq, br = divmod(back, s2)
    best = min(fq + min(fr, s2 + 1 - fr), bq + min(br, s2 + 1 - br))
    _check_wraps(min(offset, back), best, n, s2)
    # A tie is its hop count per port; a backward one mirrors port p to p ^ 2.
    top = (0, 0, 0, 0)
    wrapped = 0
    while fq <= best or bq <= best:
        wrapped += n
        if fq <= best:
            under, over = fq + fr, fq + 1 + s2 - fr
            if under < best or over < best:
                best, top = min(under, over), (0, 0, 0, 0)
            if under == best:
                top = max(top, (fr, fq, 0, 0))
            if over == best:
                top = max(top, (0, fq + 1, s2 - fr, 0))
            fq, fr = divmod(offset + wrapped, s2)
        if bq <= best:
            under, over = bq + br, bq + 1 + s2 - br
            if under < best or over < best:
                best, top = min(under, over), (0, 0, 0, 0)
            if under == best:
                top = max(top, (0, 0, br, bq))
            if over == best:
                top = max(top, (s2 - br, 0, 0, bq + 1))
            bq, br = divmod(back + wrapped, s2)
    first = 0 if top[0] else 1 if top[1] else 2 if top[2] else 3
    second = 3 if top[3] else 2 if top[2] else 1 if top[1] else 0
    return first, top[first], second, best - top[first]


def _clockwise_delta(current: int, dest: int, cfg: RouterConfig) -> int:
    """Clockwise routing rule: the signed step from current toward dest != current.

    The label difference S = (dest - current) mod n picks the direction:
    forward while S <= n/2, backward otherwise, using the long generatrix
    whenever the residual difference still covers it.
    """
    n = cfg.n
    s = (dest - current) % n
    if 2 * s <= n:
        step = cfg.s2 if s >= cfg.s2 else cfg.s1
    else:
        back = n - s
        step = -cfg.s2 if back >= cfg.s2 else -cfg.s1
    return step


def _clockwise_legs(s: int, cfg: RouterConfig) -> tuple[int, int, int, int]:
    """The clockwise route of offset s = (dst - src) mod n in closed form.

    Returns the legs (1, q, 0, r): q long steps, then r unit steps.
    Forward (2S <= n), q, r = divmod(S, s2); the backward regime mirrors
    with S' = n - S and ports 3 and 2.  Each hop of ``_clockwise_delta``
    shrinks the residual S (or S'), so the route never leaves its regime,
    and it steps long while the residual covers s2.
    """
    backward = 2 * s > cfg.n
    q, r = divmod(cfg.n - s if backward else s, cfg.s2)
    return (3, q, 2, r) if backward else (1, q, 0, r)


def _check_wraps(base: int, best: int, n: int, s2: int) -> int:
    """The wrap bound of a scan from ``base``, refused above ``WRAP_BUDGET``.

    Wrap m goes on only while (base + m n) // s2 <= best, and the best only
    falls, so at most W0 = ((best + 1) s2 - 1 - base) // n wraps are walked.
    """
    wraps = ((best + 1) * s2 - 1 - base) // n
    if wraps > WRAP_BUDGET:
        raise ValidationError(
            f"a scan of {base} labels in C({n}; 1, {s2}) needs up to {wraps} ring wraps, "
            f"above the budget of {WRAP_BUDGET}"
        )
    return wraps


def _scan(base: int, n: int, s2: int, max_wraps: int) -> tuple[int, bool]:
    """Adaptive candidate scan of one travel direction covering ``base``.

    With q, r = divmod(target, s2), a displacement ``target`` is covered
    either by q long steps topped up with r unit steps (q + r hops) or by
    q + 1 long steps overshooting and walking back s2 - r unit steps
    (q - r + s2 + 1 hops); the first is strictly shorter when 2r <= s2.

    Follows the scan order of the hardware description: the unwrapped pair
    first (a winning remainder route starts with the unit generatrix),
    then both forms for each extra ring wrap m = 1, 2, ..., replacing the
    best only on strict improvement.  Wraps stop after ``max_wraps`` or
    once ``q = (base + m*n) // s2`` exceeds the best, whichever comes
    first: both forms of wrap m take at least q hops, and q grows with m,
    so no later wrap can improve.  A ``max_wraps`` of at least the wrap
    bound from ``_check_wraps`` makes the result exact.  Returns (hops,
    unit): unit is true when the best is the unwrapped q + r form with
    r > 0, whose route starts with a unit step.
    """
    q, r = divmod(base, s2)
    best = q + r if 2 * r <= s2 else q - r + s2 + 1
    unit, m = 0 < r and 2 * r <= s2, 1
    while m <= max_wraps and (base + m * n) // s2 <= best:
        q, r = divmod(base + m * n, s2)
        hops = q + r if 2 * r <= s2 else q - r + s2 + 1
        if hops < best:
            best, unit = hops, False
        m += 1
    return best, unit


def _adaptive_run(d: int, cfg: RouterConfig, mode: AdaptiveMode) -> int:
    """The adaptive run from a node at d = dest - current != 0, as one int.

    Returns ``count << 3 | seam << 2 | port``: the next ``count`` hops all
    leave by ``port``, except that a ``seam`` run also ends on the hop that
    crosses label 0 (``_adaptive_runs`` cuts it there).  The port is the
    rule's: with S = |d|, the toward scan T covers S, the away scan A covers
    n - S (corrected) or S + n (printed); T < A steps toward dest, anything
    else away, and the sign of d mirrors the step.

    Lemma (corrected variant, any ``max_cycles``): let V(u, v) = min(T, A),
    with V(v, v) = 0.  Then every hop has V(next, v) <= V(u, v) - 1.  The
    step is the first hop of a candidate route that achieves V.  What
    remains of that route is a candidate of the next node with no more
    wraps: the same form with one long or one unit step fewer, or, after
    an overshoot without a wrap, the unit-step form of the other direction.
    The next scan finds it or a better one.

    A candidate covering b labels takes f(b) = b // s2 + min(r, s2 + 1 - r)
    hops, r = b % s2, and a scan's value is the least f over b + m*n.  Then
    s2 more labels cost exactly one more hop, and one more label changes f
    by at most one.  Along a run:

    * long steps toward dest take s2 off every toward base, so each toward
      candidate loses exactly one hop per hop and A gains one (corrected) or
      loses one (printed): comparison and winner hold until a step reaches
      or passes dest, ceil(S / s2) hops;
    * unit steps toward dest follow the winner q + r, which loses exactly
      one hop per hop while r falls to 0; no other candidate of either scan
      falls faster, so it stays first and least: S % s2 hops;
    * corrected steps away are the same two cases on n - S:
      ceil((n - S) / s2) long or (n - S) % s2 unit hops;
    * printed long steps away add s2 to both bases, so every candidate gains
      one hop per hop and the decision holds until label 0 is crossed,
      within ceil((n - S) / s2) hops;
    * printed unit steps away are decided one hop at a time (a run of 1).

    Crossing label 0 turns S into n - S.  Both printed scans change there,
    so every printed run is a seam run.  The corrected scans read the
    offset d mod n, the same on both sides, and only the direction of a tie
    T == A follows the sign of d: the step at d and at d - n differ exactly
    where the scans tie.  A long step leaves T and A two hops apart, so the
    decision is strict after one hop; along unit steps they can stay tied,
    so a unit run that starts at a tie is a seam run too.

    With no wrap bound, both scans and their ``_check_wraps`` stop once q
    exceeds min(T0, A0), the lesser unwrapped form: a toward candidate with
    q > A0 costs more than A0 >= A, so it can neither win nor tie, and
    likewise away.  So one scan stays exact, the other is exact or loses,
    and a tie T == A <= min(T0, A0) leaves both exact.
    """
    n, s2, bound = cfg.n, cfg.s2, mode.max_cycles
    s = abs(d)
    printed = mode.variant == "printed"
    base = s + n if printed else n - s
    toward_wraps = away_wraps = bound
    if bound is None:
        cap = min(_scan(s, n, s2, 0)[0], _scan(base, n, s2, 0)[0])
        toward_wraps, away_wraps = _check_wraps(s, cap, n, s2), _check_wraps(base, cap, n, s2)
    toward, unit_toward = _scan(s, n, s2, toward_wraps)
    away, unit_away = _scan(base, n, s2, away_wraps)
    if toward < away:
        port, count = (0, s % s2) if unit_toward else (1, -(-s // s2))
    elif not unit_away:
        port, count = 3, -(-(n - s) // s2)
    else:
        port, count = 2, 1 if printed else (n - s) % s2
    seam = printed or (port == 2 and toward == away)
    return count << 3 | seam << 2 | (port ^ 2 if d < 0 else port)


def _adaptive_runs(src: int, dst: int, cfg: RouterConfig, mode: AdaptiveMode) -> tuple[int, ...]:
    """The adaptive route from src to dst as flat (port, count) runs.

    Each run is read from the config's memo for this mode, keyed by
    d = dst - current, and a missing d is filled from ``_adaptive_run``; a
    seam run is cut at the hop that crosses label 0.  Every run read is one
    run of the route, so two in a row can share a port (a long run that
    passes dst and goes on, or a seam run cut at label 0, followed by
    another of the same port).  A corrected walk arrives within
    V(src, dst) hops (``_adaptive_run``'s lemma).  A printed walk can
    livelock: the router picks its next hop from (current, dst) alone, and
    so the next run too, so a walk that starts a run at a node twice
    repeats forever.  ``LivelockError`` then names the cycle, from the
    first node the listed walk revisits back to it.
    """
    n, steps = cfg.n, cfg.port_steps
    memo = cfg._memo.setdefault(mode, {})
    runs: list[int] = []
    starts = set() if mode.variant == "printed" else None
    current = src
    while current != dst:
        if starts is not None:
            if current in starts:
                raise _livelock_error(src, dst, runs, cfg)
            starts.add(current)
        try:
            packed = memo[dst - current]
        except KeyError:
            packed = memo[dst - current] = _adaptive_run(dst - current, cfg, mode)
        port, count = packed & 3, packed >> 3
        step = steps[port]
        count = min(count, -((current - n if step > 0 else current + 1) // step)) if packed & 4 else count
        runs += port, count
        current = (current + count * step) % n
    return tuple(runs)


def _livelock_error(src: int, dst: int, runs: list[int], cfg: RouterConfig) -> LivelockError:
    """The livelock of an adaptive walk, naming the cycle its listed nodes close first."""
    nodes = _route_nodes("adaptive", src, runs, cfg)[0]
    seen: dict[int, int] = {}
    for index, node in enumerate(nodes):
        if node in seen:
            break
        seen[node] = index
    cycle = nodes[seen[node]:index + 1]
    head = f"adaptive routing livelocks in {cfg} for pair {src} -> {dst}"
    return LivelockError(f"{head}: cycle {' -> '.join(map(str, cycle))}", cycle)


def route_runs(
    algorithm: str,
    src: int,
    dst: int,
    cfg: RouterConfig,
    mode: AdaptiveMode = CORRECTED,
) -> tuple[int, ...]:
    """The route from src to dst as a flat tuple of (port, count) runs.

    This is every router's one route form: a route's hop count is the sum
    of its counts, found without listing a node.  Table and clockwise
    routes are two runs (the second may be empty): each rule reads
    d = (dst - current) mod n alone, so the route from src is that of the
    offset (dst - src) mod n from 0.  Table runs are memoized per offset,
    and a miss runs the candidate scan once (``_table_legs``); no table
    route reads the distance profile.
    Neither rule can livelock: every hop strictly lowers the distance to
    dst, or the clockwise residual.
    Adaptive runs come from ``_adaptive_runs``, which raises
    ``LivelockError`` naming the cycle of a walk that livelocks.
    """
    n = cfg.n
    _check_node(src, n, "src")
    _check_node(dst, n, "dst")
    if algorithm == "adaptive":
        return _adaptive_runs(src, dst, cfg, mode)
    offset = (dst - src) % n
    if algorithm == "clockwise":
        return _clockwise_legs(offset, cfg)
    if algorithm != "table":
        raise ValidationError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if not offset:
        return ()
    memo = cfg._memo.setdefault("table", {})
    legs = memo.get(offset)
    if legs is None:
        legs = memo[offset] = _table_legs(offset, cfg)
    return legs


def _route_nodes(
    algorithm: str, src: int, runs: tuple[int, ...] | list[int], cfg: RouterConfig
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The nodes and ports of a route from src, listed from its runs in C.

    Each run goes in as ranges, with no loop per hop, and runs the same
    lines however it lies.  Its head is one range up to ``cut``, the first
    node past label 0 (forward, the least label >= n of the run's residue;
    backward, the greatest below 0), or past the run's end for a run inside
    [0, n).  The rest, from ``cut`` to the end less ``lap``, the multiple
    of n at or below the end, is a second range: it lies in [0, n) when
    the run crosses label 0 once, and only a run that laps the ring more
    than once is reduced mod n node by node.  Both tuples are built at
    their exact size.  A route too long to list raises ``ValidationError``.
    """
    n, steps = cfg.n, cfg.port_steps
    nodes = [src]
    ports: tuple[int, ...] = ()
    node = src
    pairs = iter(runs)
    try:
        for port, count in zip(pairs, pairs):
            step = steps[port]
            ports += (port,) * count
            end = node + count * step
            lap = end // n * n
            cut = end + step if not lap else n + (node - n) % step if step > 0 else (node + 1) % step - 1
            nodes += range(node + step, cut, step)
            node = end - lap
            rest = range(cut - lap, node + step, step) if lap else ()
            nodes += rest if -n <= lap <= n else map(mod, rest, repeat(n))
        return tuple(nodes), ports
    except (OverflowError, MemoryError):
        article = "an" if algorithm == "adaptive" else "a"
        raise ValidationError(
            f"{article} {algorithm} route of {sum(runs[1::2])} hops is too large for a node list"
        ) from None


def trace_route(
    algorithm: str,
    src: int,
    dst: int,
    cfg: RouterConfig,
    mode: AdaptiveMode = CORRECTED,
) -> RouteTrace:
    """Trace a packet from src to dst, recording nodes and ports per hop.

    Each hop's port depends on d = dst - current alone: the table and
    clockwise rules read d mod n, the adaptive rule |d| and its sign.  The
    route is found as runs of one port each (``route_runs``) and listed
    from them (``_route_nodes``), so no rule runs once per hop.  A route
    too long to list raises ``ValidationError``, and an adaptive walk that
    livelocks raises ``LivelockError`` naming its cycle.
    """
    runs = route_runs(algorithm, src, dst, cfg, mode)
    nodes, ports = _route_nodes(algorithm, src, runs, cfg)
    return RouteTrace(algorithm, cfg.n, cfg.s1, cfg.s2, src, dst, nodes, ports)
