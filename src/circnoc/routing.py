"""Routing strategies for ring circulants C(n; 1, s2).

Three per-hop strategies share one four-port router model:

* ``table``     -- next hops precomputed from shortest-path distances and
                   stored per label difference (one n-entry row);
* ``clockwise`` -- one-direction iterative arithmetic on the label
                   difference, cheap to evaluate but not always shortest;
* ``adaptive``  -- bidirectional candidate search that also weighs routes
                   wrapping past the ring's reference point, shortest as
                   long as the needed wrap count stays within its bound.

Ports are numbered clockwise: 0 -> +s1, 1 -> +s2, 2 -> -s1, 3 -> -s2.
A table or clockwise route is two legs of one port each, listed as ranges
reduced mod n only where a leg crosses label 0.  Everything here is pure;
tables and traces are immutable, and a route memo keeps only rule output.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
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
    "payload_bits",
    "build_routing_table",
    "clockwise_hop_count",
    "trace_route",
]

ALGORITHMS = ("table", "clockwise", "adaptive")
ADAPTIVE_VARIANTS = ("printed", "corrected")


@dataclass(frozen=True)
class RouterConfig:
    """Ring circulant routing parameters: n nodes, generatrices 1 and s2.

    Routing arithmetic requires the unit first generatrix and s2 strictly
    below n/2 (so s2 fits in the address-difference field).

    Every router picks its next port from d = dest - current alone: the
    table and clockwise rules read d mod n, the adaptive rule reads |d|
    and the sign of d (its ties go counter-clockwise, so u -> v and
    v -> u can differ).  ``trace_route`` keeps the table legs and the
    adaptive ports it has decided in this config's ``_memo``, which is not
    a field: equality, hashing and ``asdict`` see n, s1 and s2 only.
    """

    n: int
    s1: int
    s2: int

    def __post_init__(self) -> None:
        if self.s1 != 1:
            raise ValidationError(f"first generatrix must be 1, got {self.s1}")
        if self.s2 < 2:
            raise ValidationError(f"second generatrix must be >= 2, got {self.s2}")
        if 2 * self.s2 >= self.n:
            raise ValidationError(
                f"second generatrix {self.s2} must be below n/2 = {self.n / 2}"
            )

    @classmethod
    def from_spec(cls, spec: CirculantSpec) -> "RouterConfig":
        if spec.k != 2 or not spec.is_ring:
            raise ValidationError(f"routing requires a ring circulant C(n; 1, s2), got {spec}")
        return cls(spec.n, spec.generatrices[0], spec.generatrices[1])

    def port_steps(self) -> tuple[int, int, int, int]:
        """Signed node-label steps by port number (clockwise numbering)."""
        return (self.s1, self.s2, -self.s1, -self.s2)

    @cached_property
    def _memo(self) -> dict[object, dict[int, tuple[int, int, int, int] | int]]:
        """Route memo of ``trace_route``, living as long as this config.

        ``"table"`` maps an offset d = (dst - src) mod n in [1, n) to the
        four ints of its route's legs (``_table_legs``).  Each
        ``AdaptiveMode`` maps d = dest - current in (-n, n) to the next
        port.  Entries are added when a route first needs them, so the
        table dict holds at most n - 1 legs, O(1) each, and an adaptive
        dict no more entries than the hops routed.  Clockwise routes come
        from their closed form and are not memoized.
        """
        return {}

    def __str__(self) -> str:
        return f"C({self.n}; {self.s1}, {self.s2})"


@dataclass(frozen=True)
class AdaptiveMode:
    """Adaptive routing variant and wrap bound.

    ``corrected`` seeds the counter-clockwise candidate scan with n - S;
    ``printed`` keeps the S + n seed of the original listing, preserved
    for fidelity checks (it can pick a wrong-direction first step).
    ``max_cycles`` bounds how many full ring wraps the candidate scan
    considers in each direction; circulants with a large generatrix can
    need well past the default of 2 before every route is shortest.
    ``None`` sets no bound: each scan then stops only once no further wrap
    can improve, after about V·s2/n wraps for a route of V hops, which is
    O(n) per memo miss when s2 is near n/2.

    Under ``corrected``, with any ``max_cycles``, every hop lowers the
    router's scan value V(u, v) (see ``_adaptive_delta``) by at least one,
    so a route from u to v takes at most V(u, v) hops and never livelocks.
    With no bound V is the exact distance, so every corrected route is
    shortest.  The ``printed`` seed S + n is no real counter-clockwise
    displacement, and its hops can leave V where it was.
    """

    variant: str = "corrected"
    max_cycles: int | None = 2

    def __post_init__(self) -> None:
        if self.variant not in ADAPTIVE_VARIANTS:
            raise ValidationError(
                f"unknown adaptive variant {self.variant!r}; expected one of {ADAPTIVE_VARIANTS}"
            )
        if self.max_cycles is not None and self.max_cycles < 2:
            raise ValidationError(f"max_cycles must be >= 2, got {self.max_cycles}")


CORRECTED = AdaptiveMode("corrected", 2)
AS_PRINTED = AdaptiveMode("printed", 2)


@dataclass(frozen=True)
class RoutingTable:
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

    def to_csv(self) -> str:
        """CSV rows ``from,to,port`` sorted by (from, to)."""
        n, row = self.n, self.ports
        lines = ["from,to,port"]
        for u in range(n):
            for v in range(n):
                if u != v:
                    lines.append(f"{u},{v},{row[(v - u) % n]}")
        return "\n".join(lines) + "\n"


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


def dataclass_json(obj, derived: dict[str, str] | None = None, indent: int | None = None) -> str:
    """JSON object of a dataclass's fields, in declaration order.

    ``derived`` maps each extra property to include onto the field it
    follows, so reports keep a fixed key order and identical bytes.
    """
    data = {}
    for key, value in asdict(obj).items():
        data[key] = value
        for name, after in (derived or {}).items():
            if after == key:
                data[name] = getattr(obj, name)
    return json.dumps(data, indent=indent)


def _check_node(value: int, n: int, name: str) -> None:
    if not 0 <= value < n:
        raise ValidationError(f"{name} {value} out of range [0, {n})")


def payload_bits(n: int) -> int:
    """Head-flit address field width: ceil(log2(n)) bits."""
    if n < 2:
        raise ValidationError(f"need at least 2 nodes to address, got {n}")
    return (n - 1).bit_length()


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
    steps = cfg.port_steps()
    row = tuple(_shortest_port(profile, steps, offset, n) for offset in range(1, n))
    return RoutingTable(cfg=cfg, ports=(None,) + row)


def _table_legs(offset: int, cfg: RouterConfig) -> tuple[int, int, int, int]:
    """The table route of an offset in [1, n) as two legs.

    Returns (first, c1, second, c2): c1 hops on port ``first``, then
    c2 = D - c1 on ``second`` (``first`` when c2 is 0).  Steps commute, so
    a port below the one just taken would have descended a hop earlier:
    ports never fall along a route.  A shortest route never takes both
    directions of one generatrix, so it holds at most two ports.  c1 is
    the largest c for which c steps on ``first`` lower the distance D by
    c, one each.  That holds up to c1 (a prefix of a shortest route is
    shortest) and fails above, where ``first`` would descend at the turn,
    so bisection finds c1 in O(log D) reads of the profile, read once.
    """
    n, steps = cfg.n, cfg.port_steps()
    profile = circulant_distance_profile(n, (cfg.s1, cfg.s2))
    total = profile[offset]
    first = _shortest_port(profile, steps, offset, n)
    step = steps[first]
    lo, hi = 1, total
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if profile[(offset - mid * step) % n] == total - mid:
            lo = mid
        else:
            hi = mid - 1
    second = _shortest_port(profile, steps, (offset - lo * step) % n, n) if lo < total else first
    return first, lo, second, total - lo


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


def clockwise_hop_count(src: int, dst: int, cfg: RouterConfig) -> int:
    """Closed-form clockwise route length, q + r (see ``_clockwise_legs``)."""
    _check_node(src, cfg.n, "src")
    _check_node(dst, cfg.n, "dst")
    _, q, _, r = _clockwise_legs((dst - src) % cfg.n, cfg)
    return q + r


def _scan(base: int, n: int, s2: int, max_wraps: int | None = None) -> tuple[int, int, bool]:
    """Adaptive candidate scan of one travel direction covering ``base``.

    With q, r = divmod(target, s2), a displacement ``target`` is covered
    either by q long steps topped up with r unit steps (q + r hops) or by
    q + 1 long steps overshooting and walking back s2 - r unit steps
    (q - r + s2 + 1 hops); the first is strictly shorter when 2r <= s2.

    Follows the scan order of the hardware description: the unwrapped pair
    first (a winning remainder route starts with the unit generatrix),
    then both forms for each extra ring wrap m = 1, 2, ..., replacing the
    best only on strict improvement.  Wraps stop after ``max_wraps`` (no
    bound when None) or once ``q = (base + m*n) // s2`` exceeds the best,
    whichever comes first: both forms of wrap m take at least q hops, and
    q grows with m, so no later wrap can improve.  Without a bound the
    result is exact.  Returns (hops, wraps, unit step first).
    """
    q, r = divmod(base, s2)
    best = q + r if 2 * r <= s2 else q - r + s2 + 1
    wraps, unit, m = 0, 0 < r and 2 * r <= s2, 1
    while (max_wraps is None or m <= max_wraps) and (base + m * n) // s2 <= best:
        q, r = divmod(base + m * n, s2)
        hops = q + r if 2 * r <= s2 else q - r + s2 + 1
        if hops < best:
            best, wraps, unit = hops, m, False
        m += 1
    return best, wraps, unit


def _adaptive_delta(current: int, dest: int, cfg: RouterConfig, mode: AdaptiveMode) -> int:
    """Adaptive routing rule: the signed step from current toward dest != current.

    The scan runs on the positive label difference S = |dest - current|:
    clockwise candidates grow from S, counter-clockwise ones from n - S
    (or S + n in printed mode), each extended by full wraps up to
    ``mode.max_cycles``.  A clockwise win gives +s1/+s2, otherwise the
    step is negative; ties go counter-clockwise.  The sign is mirrored
    when dest lies below current.

    Lemma (corrected variant, any ``max_cycles``): let V(u, v) be the
    smaller of the two scan values, with V(v, v) = 0.  Then every hop has
    V(next, v) <= V(u, v) - 1.  The step is the first hop of a candidate
    route that achieves V.  What remains of that route is a candidate of
    the next node with no more wraps: the same form with one long or one
    unit step fewer, or, after an overshoot without a wrap, the unit-step
    form of the other direction.  The next scan finds it or a better one.
    """
    n, s2 = cfg.n, cfg.s2
    s = abs(dest - current)
    best_right, _, unit_right = _scan(s, n, s2, mode.max_cycles)
    left_base = s + n if mode.variant == "printed" else n - s
    best_left, _, unit_left = _scan(left_base, n, s2, mode.max_cycles)
    if best_right < best_left:
        step = cfg.s1 if unit_right else s2
    else:
        step = -(cfg.s1 if unit_left else s2)
    return step if current < dest else -step


def trace_route(
    algorithm: str,
    src: int,
    dst: int,
    cfg: RouterConfig,
    mode: AdaptiveMode = CORRECTED,
) -> RouteTrace:
    """Trace a packet from src to dst, recording nodes and ports per hop.

    Each hop's port depends on d = dst - current alone: the table and
    clockwise rules read d mod n, the adaptive rule |d| and its sign.

    So a table or clockwise route from src is the route of the offset
    (dst - src) mod n from 0, moved by src.  Both are two legs, built in C
    with no loop per hop: ports as two repeated tuples, nodes as two
    ranges, and only a leg that crosses the seam between n - 1 and 0 is
    reduced mod n.  A route too long to list raises ``ValidationError``.
    Table legs are memoized per offset, and a miss reads the distance
    profile once (``_table_legs``), so a warm trace never asks for it.
    Neither rule can livelock: every hop strictly lowers the distance to
    dst, or the clockwise residual.

    An adaptive hop's port is read from the config's memo for this mode, a
    dict keyed by d, and a missing d is filled from ``_adaptive_delta``.
    The router picks its next hop from (current, dest) alone, so a walk
    that revisits a node repeats forever.  A walk of n - 1 hops that has
    not arrived has visited n nodes other than dst, so by pigeonhole it
    has revisited one; the trace then raises ``LivelockError`` naming the
    algorithm, topology, pair and cycle.  A hop moves at most s2 labels, so
    a walk too long to list, ceil(min(S, n - S) / s2) > ``sys.maxsize``
    hops for S = (dst - src) mod n, raises ``ValidationError`` unwalked.
    """
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    n = cfg.n
    _check_node(src, n, "src")
    _check_node(dst, n, "dst")

    steps = cfg.port_steps()
    if algorithm != "adaptive":
        offset = (dst - src) % n
        if algorithm == "clockwise":
            legs = _clockwise_legs(offset, cfg)
        elif not offset:
            legs = (0, 0, 0, 0)
        else:
            memo = cfg._memo.setdefault("table", {})
            legs = memo.get(offset)
            if legs is None:
                legs = memo[offset] = _table_legs(offset, cfg)
        first, count1, second, count2 = legs
        step1, step2 = steps[first], steps[second]
        turn = src + count1 * step1
        end = turn + count2 * step2
        leg1, leg2 = range(src, turn, step1), range(turn, end + step2, step2)
        try:
            ports = (first,) * count1 + (second,) * count2
            nodes = tuple([
                *(leg1 if 0 <= turn - step1 < n else map(mod, leg1, repeat(n))),
                *(leg2 if 0 <= turn < n and 0 <= end < n else map(mod, leg2, repeat(n))),
            ])
        except (OverflowError, MemoryError):
            raise ValidationError(
                f"a {algorithm} route of {count1 + count2} hops is too large for a node list"
            ) from None
    else:
        if (least := -(-min((dst - src) % n, (src - dst) % n) // cfg.s2)) > sys.maxsize:
            raise ValidationError(f"an adaptive route of at least {least} hops is too large for a node list")
        memo = cfg._memo.setdefault(mode, {})
        nodes = [src]
        ports = []
        current = src
        for _ in range(n - 1):
            if current == dst:
                break
            try:
                port = memo[dst - current]
            except KeyError:
                port = memo[dst - current] = steps.index(_adaptive_delta(current, dst, cfg, mode))
            ports.append(port)
            current = (current + steps[port]) % n
            nodes.append(current)
        if current != dst:
            seen: dict[int, int] = {}
            for index, node in enumerate(nodes):
                if node in seen:
                    break
                seen[node] = index
            cycle = tuple(nodes[seen[node]:index + 1])
            raise LivelockError(
                f"{algorithm} routing livelocks in {cfg} for pair {src} -> {dst}: "
                f"cycle {' -> '.join(map(str, cycle))}",
                cycle,
            )
        nodes, ports = tuple(nodes), tuple(ports)
    return RouteTrace(algorithm, n, cfg.s1, cfg.s2, src, dst, nodes, ports)
