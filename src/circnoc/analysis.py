"""Quantitative models: routing efficiency, wrap counting, memory and chip cost.

The efficiency criterion K relates an algorithm's total hop count from a
source to the breadth-first shortest-path total; K == 1.0 means every
route is shortest.  Memory formulas give the per-network storage bits of
each routing strategy, and the quadratic resource curves estimate ALM and
register consumption of synthesized routers, which in turn bounds how
many routers fit on a chip under a budget fraction.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from typing import NamedTuple

from .errors import ValidationError
from .routing import (
    ALGORITHMS,
    CORRECTED,
    WRAP_BUDGET,
    AdaptiveMode,
    RouteTrace,
    RouterConfig,
    _check_node,
    _scan,
    route_runs,
)
from .topology import RING_BUDGET, _ring_floor, _ring_key, circulant_distance_profile

__all__ = [
    "RESOURCES",
    "EfficiencyReport",
    "MemoryReport",
    "CycleReport",
    "QuadraticCost",
    "RESOURCE_CURVES",
    "ChipProfile",
    "CapacityReport",
    "efficiency_k",
    "route_cycle_count",
    "cycle_report",
    "table_memory_bits",
    "clockwise_memory_bits",
    "adaptive_memory_bits",
    "payload_bits",
    "memory_report",
    "resource_usage",
    "chip_capacity",
]

RESOURCES = ("alm", "register")


class EfficiencyReport(NamedTuple):
    """Ratio of algorithm hops to shortest-path hops from one source."""

    k: float
    hops_algorithm: int
    hops_oracle: int
    source: int


class MemoryReport(NamedTuple):
    """Storage bits required by each routing strategy on an n-node network."""

    n: int
    payload_bits: int
    table_bits: int
    clockwise_bits: int
    adaptive_bits: int


class CycleReport(NamedTuple):
    """Ring wraps needed by shortest routes from node 0 to each destination."""

    n: int
    s2: int
    per_destination: tuple[int, ...]

    @property
    def max_cycles(self) -> int:
        return max(self.per_destination)

    def to_json(self) -> str:
        """The fields in order with ``max_cycles`` after ``s2``, indented by 2."""
        return json.dumps({
            "n": self.n, "s2": self.s2, "max_cycles": self.max_cycles,
            "per_destination": self.per_destination,
        }, indent=2)


def efficiency_k(
    cfg: RouterConfig,
    algorithm: str,
    mode: AdaptiveMode = CORRECTED,
    source: int = 0,
) -> EfficiencyReport:
    """Efficiency criterion K = (algorithm hops) / (shortest-path hops).

    Both totals sum routes from ``source`` to every other node.  The
    shortest-path side is the sum of the cached distance profile from
    node 0: circulants are vertex-transitive, so every source has the same
    distance multiset and the same total.  Clockwise and adaptive routes
    are routed, and their run counts summed (``route_runs``), so no node
    is listed.  The table side is that same total, routing nothing: every
    table hop leaves by a port that brings the packet one hop closer
    (``_table_legs``), so the route to offset d is ``profile[d]`` hops long.
    """
    _check_node(source, cfg.n, "source")
    hops_oracle = sum(circulant_distance_profile(cfg.n, (cfg.s1, cfg.s2)))
    if algorithm == "table":
        hops_algorithm = hops_oracle
    else:
        hops_algorithm = 0
        for dest in range(cfg.n):
            if dest != source:
                hops_algorithm += sum(route_runs(algorithm, source, dest, cfg, mode)[1::2])
    return EfficiencyReport(
        k=hops_algorithm / hops_oracle,
        hops_algorithm=hops_algorithm,
        hops_oracle=hops_oracle,
        source=source,
    )


def route_cycle_count(trace: RouteTrace) -> int:
    """Full ring wraps of a route's net signed displacement.

    The displacement is each port's hop count times its step, read with
    ``tuple.count`` and no loop per hop, and the wraps are how many times
    it covers the ring size.
    """
    count = trace.ports.count
    total = trace.s1 * (count(0) - count(2)) + trace.s2 * (count(1) - count(3))
    return abs(total) // trace.n


def cycle_report(cfg: RouterConfig) -> CycleReport:
    """Minimum wraps at which a shortest route exists, per destination.

    A route to offset k is J long and R unit steps with J s2 + R = b, and
    has m wraps when b is k + m n or -(n - k) - m n.  No route of a given b
    is shorter than the better of b's two forms (``_scan`` with no wrap;
    the floor/ceiling argument of ``_table_legs``), itself a route.  So the
    walk reads both directions' forms at m = 0, 1, ... and stops at the
    first m where either equals the breadth-first distance d: a shortest
    route has that m, and none has fewer, or its m would have stopped the
    walk.  Offsets k and n - k walk the same bases with the same d, so only
    1 .. n // 2 are walked and the rest mirror them, as in
    ``circulant_distance_profile``.  Both forms of wrap m take at least
    (base + m n) // s2 hops, so an offset stops by
    ((d + 1) s2 - 1 - base) // n and the walks take about (D + 1) s2 / 2
    wrap steps in all, D the diameter; a ring whose (D + 1) s2 is above
    ``WRAP_BUDGET`` is refused before the first.  The ring's lattice floor
    (``_ring_floor``) bounds D from below in O(log n) steps, so a ring it
    already puts over the budget is refused before its profile is built,
    with D read from the tents (``_ring_key``) under a bound doubled from
    that floor until D fits it.  The tents are laid only while the bound's
    square is within ``min(n, RING_BUDGET)``, so a key lays at most about
    2000 of them and never more than about 2 sqrt(n); past that the
    profile gives D, or refuses an n too large for one.
    """
    n, s2 = cfg.n, cfg.s2
    bound = _ring_floor(n, s2, n)[0]
    diameter = None
    if (bound + 1) * s2 > WRAP_BUDGET:  # refused whatever D is
        while bound * bound <= min(n, RING_BUDGET):
            key_diameter = _ring_key(n, s2, bound)[0]
            if key_diameter <= bound:
                diameter = key_diameter
                break
            bound *= 2
    if diameter is None:
        diameter = max(circulant_distance_profile(n, (cfg.s1, s2)))
    wraps = (diameter + 1) * s2
    if wraps > WRAP_BUDGET:
        raise ValidationError(
            f"the wrap-count scans of {cfg} need up to {wraps} ring wraps, "
            f"above the budget of {WRAP_BUDGET}"
        )
    profile = circulant_distance_profile(n, (cfg.s1, s2))
    per = [0] * n
    for offset in range(1, n // 2 + 1):
        d = profile[offset]
        forward, back, m = offset, n - offset, 0
        while _scan(forward, n, s2, 0)[0] != d and _scan(back, n, s2, 0)[0] != d:
            forward, back, m = forward + n, back + n, m + 1
        per[offset] = m
    per[n // 2 + 1:] = per[(n - 1) // 2:0:-1]
    return CycleReport(n=n, s2=s2, per_destination=tuple(per))


def payload_bits(n: int) -> int:
    """Head-flit address field width: ceil(log2(n)) bits, enough to name one of n."""
    if n < 2:
        raise ValidationError(f"need at least 2 nodes to address, got {n}")
    return (n - 1).bit_length()


def table_memory_bits(n: int, p: int = 4) -> int:
    """Network-wide table storage: n**2 entries of ceil(log2(p)) bits."""
    if n < 2:
        raise ValidationError(f"need at least 2 nodes, got {n}")
    if p < 2:
        raise ValidationError(f"need at least 2 ports, got {p}")
    return n * n * payload_bits(p)


def clockwise_memory_bits(n: int) -> int:
    """Per-network clockwise storage: node count plus s2 in every router."""
    if n < 4:
        raise ValidationError(f"need at least 4 nodes, got {n}")
    # s2 is below n/2: ceil(log2(n/2)) == ceil(log2(n)) - 1 bits, which
    # also covers odd n where n/2 is fractional.
    return n * (2 * payload_bits(n) - 1)


def adaptive_memory_bits(n: int) -> int:
    """Per-network adaptive storage: router id, node count, and s2."""
    if n < 4:
        raise ValidationError(f"need at least 4 nodes, got {n}")
    return n * (3 * payload_bits(n) - 1)  # s2 as in clockwise_memory_bits


def memory_report(n: int, p: int = 4) -> MemoryReport:
    """All memory figures for one network size."""
    return MemoryReport(
        n=n,
        payload_bits=payload_bits(n),
        table_bits=table_memory_bits(n, p),
        clockwise_bits=clockwise_memory_bits(n),
        adaptive_bits=adaptive_memory_bits(n),
    )


class QuadraticCost(namedtuple("QuadraticCost", "a0 a1 a2")):
    """Quadratic cost curve a0 + a1*x + a2*x**2 over the router count x.

    The curve must open upward (a2 > 0): then the counts that fit a budget
    form one interval, and ``chip_capacity`` can search it by bisection.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> QuadraticCost:
        self = super().__new__(cls, *args, **kwargs)
        if not all(map(math.isfinite, (self.a0, self.a1, self.a2))) or not self.a2 > 0:
            raise ValidationError(f"cost curve needs finite coefficients and a2 > 0: {self}")
        return self

    def usage(self, x: int) -> float:
        return self.a0 + self.a1 * x + self.a2 * x * x


# Fitted synthesis cost curves per (algorithm, resource), kept at three
# decimals as published.  The adaptive register curve coincides with the
# table one as printed.
RESOURCE_CURVES = {
    ("table", "alm"): QuadraticCost(-74.354, 15.537, 0.464),
    ("table", "register"): QuadraticCost(1163.150, -9.069, 2.940),
    ("clockwise", "alm"): QuadraticCost(-93.577, 22.553, 0.434),
    ("clockwise", "register"): QuadraticCost(-43.664, 21.039, 0.270),
    ("adaptive", "alm"): QuadraticCost(-6237.760, 684.297, 3.329),
    ("adaptive", "register"): QuadraticCost(1163.150, -9.069, 2.940),
}


def _curve(algorithm: str, resource: str) -> QuadraticCost:
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if resource not in RESOURCES:
        raise ValidationError(f"unknown resource {resource!r}; expected one of {RESOURCES}")
    return RESOURCE_CURVES[(algorithm, resource)]


class ChipProfile(
    namedtuple(
        "ChipProfile", "alm_total reg_total budget_fraction", defaults=(113560, 12492800, 0.35)
    )
):
    """Chip resource totals and the fraction granted to the interconnect."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ChipProfile:
        self = super().__new__(cls, *args, **kwargs)
        if self.alm_total < 1 or self.reg_total < 1:
            raise ValidationError("chip resource totals must be positive")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValidationError(
                f"budget fraction must be in (0, 1], got {self.budget_fraction}"
            )
        if max(self.alm_total, self.reg_total) > sys.float_info.max:
            raise ValidationError("chip resource totals must fit a finite float")
        return self


class CapacityReport(NamedTuple):
    """Largest router count fitting a chip budget, with the binding resource."""

    algorithm: str
    alm_total: int
    reg_total: int
    budget_fraction: float
    max_routers: int
    binding_resource: str
    alm_used: float
    reg_used: float

    def to_json(self) -> str:
        return json.dumps(self._asdict())


def resource_usage(algorithm: str, resource: str, x: int) -> float:
    """Estimated resource units consumed by an x-router network.

    Small x may evaluate negative; the regression is reported as-is.
    """
    if x < 1:
        raise ValidationError(f"router count must be >= 1, got {x}")
    try:
        value = _curve(algorithm, resource).usage(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"router count too large: its {resource} cost is not a finite float")
    return value


def chip_capacity(algorithm: str, profile: ChipProfile = ChipProfile()) -> CapacityReport:
    """Largest router count whose ALM and register usage both fit the budget.

    Each curve opens upward, so the counts that fit form an interval; when
    1 fits, they are a prefix 1..H.  Doubling finds a count that overruns,
    bisection then finds the first one, H + 1, whose worst-overrun resource
    is reported as binding.  No feasible count yields zero.
    """
    alm_curve = _curve(algorithm, "alm")
    reg_curve = _curve(algorithm, "register")
    alm_budget = profile.budget_fraction * profile.alm_total
    reg_budget = profile.budget_fraction * profile.reg_total

    def overruns(x: int) -> dict[str, float]:
        out = {}
        alm = alm_curve.usage(x)
        reg = reg_curve.usage(x)
        if alm > alm_budget:
            out["alm"] = alm / alm_budget
        if reg > reg_budget:
            out["register"] = reg / reg_budget
        return out

    fits, over = 0, 1
    while not overruns(over):
        fits, over = over, 2 * over
    while over - fits > 1:
        mid = (fits + over) // 2
        fits, over = (fits, mid) if overruns(mid) else (mid, over)
    failed = overruns(over)
    binding = max(failed, key=lambda r: failed[r])
    return CapacityReport(
        algorithm=algorithm,
        alm_total=profile.alm_total,
        reg_total=profile.reg_total,
        budget_fraction=profile.budget_fraction,
        max_routers=fits,
        binding_resource=binding,
        alm_used=alm_curve.usage(max(fits, 1)),
        reg_used=reg_curve.usage(max(fits, 1)),
    )
