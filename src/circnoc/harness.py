"""Batch experiment runner and termination fuzzer.

``run_experiment`` regenerates the comparison datasets (topology metrics,
wrap-count sweeps, efficiency curves, memory and resource tables, chip
capacity) as deterministic CSV or JSON text; re-running a config
reproduces identical bytes.  Nothing here writes a file: the CLI writes
every ``--out``, and ``_render_csv`` renders every CSV it writes.
``fuzz_termination`` hammers the three routing algorithms with seeded
random tuples and reports any route that livelocks (revisits a node)
with its full reproduction tuple.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from typing import Callable, Iterable, Mapping, NamedTuple

from .analysis import (
    CapacityReport,
    MemoryReport,
    chip_capacity,
    cycle_report,
    efficiency_k,
    memory_report,
    resource_usage,
)
from .errors import LivelockError, ValidationError
from .routing import ALGORITHMS, CORRECTED, AdaptiveMode, RouterConfig, route_runs
from .topology import SELECTION_RULES, compare_topologies, search_best_ring_circulant

__all__ = [
    "FIGURES",
    "FIGURE_SPECS",
    "FigureSpec",
    "REFERENCE_FIRST_N_OVER_TWO_CYCLES",
    "ExperimentConfig",
    "ExperimentResult",
    "FuzzConfig",
    "FuzzReport",
    "run_experiment",
    "fuzz_termination",
    "square_sizes",
]

# Reference value: first network size whose best ring circulant needs more
# than two wraps on some shortest route.  The cycles experiment logs how
# the sweep under this package's selection rule compares against it.
REFERENCE_FIRST_N_OVER_TWO_CYCLES = 174


def square_sizes(min_side: int = 3, max_side: int = 23) -> tuple[int, ...]:
    """Square node counts side**2 for side in [min_side, max_side]."""
    return tuple(side * side for side in range(min_side, max_side + 1))


class ExperimentConfig(
    namedtuple(
        "ExperimentConfig",
        "figure values selection mode out_format",
        defaults=((), "best_ring", CORRECTED, "csv"),
    )
):
    """One dataset regeneration request.

    ``values`` are sides for ``topology_metrics``, network sizes for
    ``cycles``/``efficiency``/``memory``, router counts for ``resources``;
    ``capacity`` takes none.  Figures that route packets require the
    ``best_ring`` selection rule, since the other rules may pick
    circulants without the unit generatrix.  ``mode`` is the
    ``AdaptiveMode`` of routed figures, and ``out_format`` (``csv`` or
    ``json``) the form of the rendered text.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExperimentConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.figure not in FIGURES:
            raise ValidationError(f"unknown figure {self.figure!r}; expected one of {FIGURES}")
        if self.figure == "capacity" and self.values:
            raise ValidationError("figure 'capacity' takes no values")
        if self.figure != "capacity" and not self.values:
            raise ValidationError(f"figure {self.figure!r} needs a non-empty value range")
        if self.selection not in SELECTION_RULES:
            raise ValidationError(
                f"unknown selection rule {self.selection!r}; expected one of {sorted(SELECTION_RULES)}"
            )
        if self.figure in ("cycles", "efficiency") and self.selection != "best_ring":
            raise ValidationError(
                f"figure {self.figure!r} routes packets and requires best_ring selection"
            )
        if self.out_format not in ("csv", "json"):
            raise ValidationError(f"unknown output format {self.out_format!r}")
        if self.figure == "capacity" and self.out_format != "json":
            raise ValidationError("the capacity report is a JSON artifact")
        return self


class ExperimentResult(NamedTuple):
    """Rows plus the rendered artifact text of one experiment run."""

    figure: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: Mapping[str, object]
    text: str


def _rows_topology_metrics(config: ExperimentConfig) -> list[tuple]:
    rows = []
    for row in compare_topologies(sorted(set(config.values)), config.selection):
        s1, s2 = row.circulant.generatrices[0], row.circulant.generatrices[-1]
        rows.append((
            row.n, row.selection, s1, s2,
            row.circulant_metrics.diameter, row.circulant_metrics.avg_distance,
            row.mesh_metrics.diameter, row.mesh_metrics.avg_distance,
            row.torus_metrics.diameter, row.torus_metrics.avg_distance,
            row.diameter_reduction_vs_mesh, row.diameter_reduction_vs_torus,
            row.avg_distance_reduction_vs_mesh, row.avg_distance_reduction_vs_torus,
        ))
    return rows


def _best_ring_cfg(n: int) -> RouterConfig:
    return RouterConfig.from_spec(search_best_ring_circulant(n))


def _rows_cycles(config: ExperimentConfig) -> list[tuple]:
    rows = []
    for n in sorted(set(config.values)):
        cfg = _best_ring_cfg(n)
        rows.append((n, cfg.s2, cycle_report(cfg).max_cycles))
    return rows


def _meta_cycles(rows: list[tuple]) -> dict:
    """The first n whose best ring needs more than two wraps, against the reference.

    ``best_ring`` gives 114 where the reference says 174.  No selection of
    a least-diameter ring reaches 174: at n = 142 and 160 every C(n; 1, t)
    of least diameter needs 3 wraps, and at n = 114 every one of least
    (diameter, total) does.  Six selection rules (least (D, total), least D
    or least total, each with the smallest or largest t) give 102 to 142,
    and three wrap definitions (fewest or most wraps over shortest
    candidates, wraps of the unbounded corrected route) all give 114.  So
    the reference used non-optimal rings at those sizes, other n, or
    another wrap count; the values reported here stay as they are.
    """
    first_n = next((n for n, _, cycles in rows if cycles > 2), None)
    return {
        "first_n_exceeding_two": first_n,
        "reference_first_n": REFERENCE_FIRST_N_OVER_TWO_CYCLES,
        "matches_reference": first_n == REFERENCE_FIRST_N_OVER_TWO_CYCLES,
    }


def _rows_efficiency(config: ExperimentConfig) -> list[tuple]:
    rows = []
    for n in sorted(set(config.values)):
        cfg = _best_ring_cfg(n)
        for algorithm in ALGORITHMS:
            rows.append((n, cfg.s2, algorithm, efficiency_k(cfg, algorithm, config.mode).k))
    return rows


def _rows_memory(config: ExperimentConfig) -> list[tuple]:
    return [memory_report(n) for n in sorted(set(config.values))]


def _rows_resources(config: ExperimentConfig) -> list[tuple]:
    return [
        (x, a, resource_usage(a, "alm", x), resource_usage(a, "register", x))
        for x in sorted(set(config.values))
        for a in ALGORITHMS
    ]


def _rows_capacity(config: ExperimentConfig) -> list[tuple]:
    return [chip_capacity(algorithm) for algorithm in ALGORITHMS]


class FigureSpec(NamedTuple):
    """One figure: its CSV columns, default sweep, row builder and metadata."""

    columns: tuple[str, ...]
    default_values: tuple[int, ...]
    rows: Callable[[ExperimentConfig], list[tuple]]
    meta: Callable[[list[tuple]], dict] | None = None


FIGURE_SPECS = {
    "topology_metrics": FigureSpec(
        (
            "n", "selection", "s1", "s2", "circ_D", "circ_Lav", "mesh_D", "mesh_Lav",
            "torus_D", "torus_Lav", "redD_vs_mesh", "redD_vs_torus",
            "redLav_vs_mesh", "redLav_vs_torus",
        ),
        tuple(range(3, 24)),
        _rows_topology_metrics,
    ),
    "cycles": FigureSpec(
        ("n", "s2", "max_cycles"), tuple(range(5, 201)), _rows_cycles, _meta_cycles
    ),
    "efficiency": FigureSpec(("n", "s2", "algorithm", "K"), square_sizes(), _rows_efficiency),
    "memory": FigureSpec(MemoryReport._fields, square_sizes(), _rows_memory),
    "resources": FigureSpec(
        ("x", "algorithm", "alm", "registers"), square_sizes(), _rows_resources
    ),
    "capacity": FigureSpec(CapacityReport._fields, (), _rows_capacity),
}

FIGURES = tuple(FIGURE_SPECS)


def _render_csv(columns: tuple[str, ...], rows: Iterable[tuple]) -> str:
    """The one CSV layout: a header, then a line per row; floats by ``repr``, the rest by ``str``."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(figure: str, columns: tuple[str, ...], rows: Iterable[tuple], meta: Mapping) -> str:
    payload = {
        "figure": figure,
        "columns": list(columns),
        "rows": [list(row) for row in rows],
        "meta": dict(meta),
    }
    return json.dumps(payload, indent=2) + "\n"


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build one figure dataset and render it as text; no file is written."""
    spec = FIGURE_SPECS[config.figure]
    rows = spec.rows(config)
    meta = spec.meta(rows) if spec.meta else {}
    if config.out_format == "csv":
        text = _render_csv(spec.columns, rows)
    else:
        text = _render_json(config.figure, spec.columns, rows, meta)
    return ExperimentResult(
        figure=config.figure,
        columns=spec.columns,
        rows=tuple(rows),
        meta=meta,
        text=text,
    )


class FuzzConfig(
    namedtuple("FuzzConfig", "seed trials n_min n_max mode", defaults=(10_000, 5, 300, CORRECTED))
):
    """Seeded random routing workload; identical seeds replay identically.

    ``mode`` is the adaptive variant that every adaptive draw routes with.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FuzzConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.n_min < 5:
            raise ValidationError(f"n_min must be >= 5, got {self.n_min}")
        if self.n_max < self.n_min:
            raise ValidationError(f"n_max {self.n_max} below n_min {self.n_min}")
        return self


class FuzzReport(NamedTuple):
    """Outcome of a termination fuzz run."""

    seed: int
    trials: int
    n_min: int
    n_max: int
    livelocks: tuple[dict, ...] = ()

    @property
    def livelock_count(self) -> int:
        return len(self.livelocks)

    def to_json(self) -> str:
        """The fields in order with ``livelock_count`` after ``n_max``, indented by 2."""
        return json.dumps({
            "seed": self.seed, "trials": self.trials, "n_min": self.n_min, "n_max": self.n_max,
            "livelock_count": self.livelock_count, "livelocks": self.livelocks,
        }, indent=2) + "\n"


def _below(getrandbits: Callable[[int], int], k: int) -> int:
    """A draw in [0, k) by rejection: ``k.bit_length()`` bits, redrawn while >= k.

    This is how CPython's ``Random.randrange(k)`` draws, and
    ``randint(a, b)`` is a + randrange(b - a + 1), so the draws, and the
    bits they consume, are theirs; a k of 1 still draws once.
    """
    width = k.bit_length()
    draw = getrandbits(width)
    while draw >= k:
        draw = getrandbits(width)
    return draw


def fuzz_termination(config: FuzzConfig) -> FuzzReport:
    """Route seeded random (n, s2, src, dst, algorithm) tuples to completion.

    A route that livelocks is recorded with the tuple needed to reproduce
    it, the adaptive variant and wrap bound included.  Each route is found
    as its runs of one port (``route_runs``) and never listed, so a route
    of 10**26 hops on a huge ring costs a few runs; a repeated run start
    proves a livelock.  Only the printed variant can livelock, so a
    corrected run reports none.

    Each trial draws n, s2, src, dst and the algorithm by ``_below`` from
    the seed's ``getrandbits``, the way ``randint`` and ``randrange``
    draw, so a seed replays the tuples, and the report bytes, that those
    calls gave.
    """
    bits = random.Random(config.seed).getrandbits
    n_min, span = config.n_min, config.n_max - config.n_min + 1
    livelocks = []
    for trial in range(config.trials):
        n = n_min + _below(bits, span)
        s2 = 2 + _below(bits, (n - 1) // 2 - 1)
        src = _below(bits, n)
        dst = _below(bits, n)
        algorithm = ALGORITHMS[_below(bits, len(ALGORITHMS))]
        cfg = RouterConfig(n, 1, s2)
        try:
            route_runs(algorithm, src, dst, cfg, config.mode)
        except LivelockError:
            livelocks.append(
                {
                    "trial": trial,
                    "n": n,
                    "s2": s2,
                    "src": src,
                    "dst": dst,
                    "algorithm": algorithm,
                    "variant": config.mode.variant,
                    "max_cycles": config.mode.max_cycles,
                }
            )
    return FuzzReport(
        seed=config.seed,
        trials=config.trials,
        n_min=config.n_min,
        n_max=config.n_max,
        livelocks=tuple(livelocks),
    )
