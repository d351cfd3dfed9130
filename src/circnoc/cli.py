"""Command-line surface over the topology, routing, analysis, and harness layers.

Every subcommand is a thin wrapper: it parses flags, calls one library
operation, prints a human-readable summary, and writes machine artifacts
only when ``--out`` is given.  This module is the only one that writes a
file (``_write``), and every CSV it writes is rendered by
``harness._render_csv``.  Exit codes: 0 success; 1 validation,
usage or output-file error, or a route that livelocks (revisits a node, as
the printed adaptive variant can; the error names the cycle); 2 an
unexpected exception (its traceback is printed), and ``fuzz`` when it
finds a livelock.  ``table``, ``efficiency``, ``cycles`` and ``topo
--metrics`` read an n-entry distance profile, and ``route`` lists all of
a route's hops, counted from its runs first, so a ring or a route too
large to allocate exits 1, and so does a route or a ``cycles`` report
whose candidate scan could walk more ring wraps than its budget, or a
best-ring search above ``topology.RING_BUDGET`` nodes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import analysis, harness, routing, topology
from .errors import LivelockError, ValidationError

__all__ = ["main", "build_parser"]

_METRICS_COLUMNS = ("n", "topology", "generatrices", "diameter", "avg_distance", "edges")


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_circulant(text: str) -> topology.CirculantSpec:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse circulant {text!r}; expected N,s1[,s2,...]")
    if len(parts) < 2:
        raise ValidationError(f"circulant {text!r} needs a node count and one generatrix")
    return topology.CirculantSpec(parts[0], tuple(parts[1:]))


def _parse_grid(kind: str, text: str) -> topology.GridSpec:
    left, _, right = text.lower().partition("x")
    try:
        rows, cols = int(left), int(right)
    except ValueError:
        raise ValidationError(f"cannot parse grid {text!r}; expected RxC like 3x3") from None
    return topology.GridSpec(kind, rows, cols)


def _parse_int_range(text: str) -> tuple[int, ...]:
    """Parse '3..23' (inclusive range) or '9,16,25' (explicit list)."""
    if ".." in text:
        left, _, right = text.partition("..")
        try:
            lo, hi = int(left), int(right)
        except ValueError:
            raise ValidationError(f"cannot parse range {text!r}; expected A..B")
        if hi < lo:
            raise ValidationError(f"empty range {text!r}")
        try:
            return tuple(range(lo, hi + 1))
        except (OverflowError, MemoryError):
            raise ValidationError(f"range {text!r} has too many values to list") from None
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"cannot parse values {text!r}; expected A..B or comma list")


def _max_cycles(text: str) -> int | None:
    """An integer wrap bound, or ``none`` for no bound."""
    if text == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'none', got {text!r}") from None


def _mode_flags(args) -> dict:
    """The ``--mode`` and ``--max-cycles`` given, by ``AdaptiveMode`` field name."""
    given = vars(args)
    return {field: given[field] for field in routing.AdaptiveMode._fields if field in given}


def _mode_from(args) -> routing.AdaptiveMode:
    """The adaptive mode of the flags given; ``AdaptiveMode`` defaults the rest."""
    return routing.AdaptiveMode(**_mode_flags(args))


def _router_cfg(args) -> routing.RouterConfig:
    return routing.RouterConfig.from_spec(_parse_circulant(args.circulant))


def _write(path: str, text: str) -> str:
    """Write one artifact and return the line that reports it, for the caller to print."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
    return f"wrote {path}"


def _cmd_topo(args) -> int:
    chosen = [flag for flag in ("circulant", "mesh", "torus") if getattr(args, flag)]
    if len(chosen) != 1:
        raise ValidationError("pass exactly one of --circulant, --mesh, --torus")
    kind, text = chosen[0], getattr(args, chosen[0])
    topo = _parse_circulant(text) if kind == "circulant" else _parse_grid(kind, text)
    print(f"{topo}: n={topo.n} edges={topo.edge_count} max_degree={topo.max_degree}")
    if args.metrics:
        m = topology.metrics(topo)
        print(f"diameter D = {m.diameter}")
        print(f"average distance L_av = {m.avg_distance:.4f}")
        if args.out:
            gens = " ".join(map(str, topo.generatrices)) if kind == "circulant" else ""
            row = (topo.n, kind, gens, m.diameter, m.avg_distance, m.edge_count)
            print(_write(args.out, harness._render_csv(_METRICS_COLUMNS, [row])))
    elif args.out:
        if args.format == "dot":
            text = topology.graph_to_dot(topo)
        else:
            topology._n_entry_list(topo.n, "node list")  # refuse a topology too large to list
            text = harness._render_csv(("u", "v"), topo.edges())
        print(_write(args.out, text))
    return 0


def _cmd_table(args) -> int:
    cfg = _router_cfg(args)
    table = routing.build_routing_table(cfg)
    n, row = cfg.n, table.ports
    print(f"routing table for {cfg}: {n * (n - 1)} entries")
    width = len(str(n - 1))
    header = " ".join(f"{v:>{width}}" for v in range(n))
    print(f"{'':>{width}}  {header}")
    for u in range(n):
        cells = " ".join(f"{'-' if u == v else row[(v - u) % n]:>{width}}" for v in range(n))
        print(f"{u:>{width}}  {cells}")
    if args.out:
        rows = ((u, v, row[(v - u) % n]) for u in range(n) for v in range(n) if u != v)
        print(_write(args.out, harness._render_csv(("from", "to", "port"), rows)))
    return 0


def _cmd_route(args) -> int:
    cfg = _router_cfg(args)
    trace = routing.trace_route(args.algorithm, args.src, args.dst, cfg, _mode_from(args))
    cycles = analysis.route_cycle_count(trace)
    path = " -> ".join(map(str, trace.nodes))
    print(f"{args.algorithm} route in {cfg}: {path}")
    print(f"hops = {trace.hops}, cycles = {cycles}")
    if args.out:
        print(_write(args.out, trace.to_json() + "\n"))
    return 0


def _cmd_compare(args) -> int:
    sides = _parse_int_range(args.sides)
    config = harness.ExperimentConfig(
        figure="topology_metrics",
        values=sides,
        selection=args.selection,
        out_format=args.format or "csv",
    )
    result = harness.run_experiment(config)
    wrote = _write(args.out, result.text) if args.out else None
    for row in result.rows:
        n, _, s1, s2 = row[0], row[1], row[2], row[3]
        circ_d, circ_lav, mesh_d, mesh_lav, torus_d, torus_lav = row[4:10]
        print(
            f"n={n}: C({n}; {s1}, {s2}) D={circ_d} Lav={circ_lav:.4f} | "
            f"mesh D={mesh_d} Lav={mesh_lav:.4f} | torus D={torus_d} Lav={torus_lav:.4f} | "
            f"D reduction {row[10]:.1f}% vs mesh, {row[11]:.1f}% vs torus"
        )
    if wrote:
        print(wrote)
    return 0


def _cmd_efficiency(args) -> int:
    cfg = _router_cfg(args)
    report = analysis.efficiency_k(cfg, args.algorithm, _mode_from(args), args.source)
    print(
        f"K({args.algorithm}) = {report.k:.6f} on {cfg} from node {report.source} "
        f"({report.hops_algorithm} hops vs {report.hops_oracle} shortest)"
    )
    return 0


def _cmd_cycles(args) -> int:
    cfg = _router_cfg(args)
    report = analysis.cycle_report(cfg)
    print(f"max cycles = {report.max_cycles} for {cfg}")
    if args.out:
        print(_write(args.out, report.to_json() + "\n"))
    return 0


def _cmd_memory(args) -> int:
    report = analysis.memory_report(args.n, args.ports)
    print(f"n = {report.n}")
    print(f"payload bits = {report.payload_bits}")
    print(f"table bits = {report.table_bits}")
    print(f"clockwise bits = {report.clockwise_bits}")
    print(f"adaptive bits = {report.adaptive_bits}")
    if args.out:
        print(_write(args.out, harness._render_csv(report._fields, [report])))
    return 0


def _cmd_resources(args) -> int:
    alm = analysis.resource_usage(args.algorithm, "alm", args.x)
    reg = analysis.resource_usage(args.algorithm, "register", args.x)
    print(f"{args.algorithm} at x = {args.x}: ALM = {alm:.1f}, registers = {reg:.1f}")
    return 0


def _cmd_capacity(args) -> int:
    profile = analysis.ChipProfile(
        alm_total=args.alm_total,
        reg_total=args.reg_total,
        budget_fraction=args.budget,
    )
    report = analysis.chip_capacity(args.algorithm, profile)
    print(
        f"{args.algorithm}: max routers = {report.max_routers} "
        f"(binding resource: {report.binding_resource}, "
        f"ALM {report.alm_used:.1f}, registers {report.reg_used:.1f})"
    )
    if args.out:
        print(_write(args.out, report.to_json() + "\n"))
    return 0


def _cmd_figure(args) -> int:
    if args.id != "efficiency" and _mode_flags(args):
        raise ValidationError(
            f"figure {args.id!r} has no adaptive mode; "
            "--mode and --max-cycles apply only to efficiency"
        )
    if args.values is None:
        values = harness.FIGURE_SPECS[args.id].default_values
    else:
        values = _parse_int_range(args.values)
    config = harness.ExperimentConfig(
        figure=args.id,
        values=values,
        mode=_mode_from(args),
        out_format=args.format or ("json" if args.id == "capacity" else "csv"),
    )
    result = harness.run_experiment(config)
    tail = f"{_write(args.out, result.text)}\n" if args.out else result.text
    print(f"figure {result.figure}: {len(result.rows)} rows")
    for key, value in result.meta.items():
        print(f"{key} = {value}")
    sys.stdout.write(tail)
    return 0


def _cmd_fuzz(args) -> int:
    config = harness.FuzzConfig(
        seed=args.seed,
        trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        mode=_mode_from(args),
    )
    report = harness.fuzz_termination(config)
    print(f"trials = {report.trials}, livelocks = {report.livelock_count}")
    for entry in report.livelocks:
        print(f"livelock: {entry}")
    if args.out:
        print(_write(args.out, report.to_json()))
    return 2 if report.livelocks else 0


def _add_mode_flags(parser) -> None:
    # unset flags stay out of the namespace, so a figure can tell them apart
    parser.add_argument(
        "--mode", choices=routing.ADAPTIVE_VARIANTS, default=argparse.SUPPRESS, dest="variant",
        help="adaptive candidate-scan variant (default corrected)",
    )
    parser.add_argument(
        "--max-cycles", type=_max_cycles, default=argparse.SUPPRESS, dest="max_cycles",
        help="wrap bound of the adaptive candidate scan (default 2); "
        "'none' scans until no wrap can improve",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every ``main`` call shares it."""
    parser = _Parser(prog="circnoc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("topo", help="build a topology and show its metrics")
    p.add_argument("--circulant", help="circulant as N,s1[,s2,...]")
    p.add_argument("--mesh", help="mesh as RxC")
    p.add_argument("--torus", help="torus as RxC")
    p.add_argument("--metrics", action="store_true", help="compute diameter and average distance")
    p.add_argument("--out", help="artifact path")
    p.add_argument("--format", choices=("csv", "dot"), default="dot")
    p.set_defaults(func=_cmd_topo)

    p = sub.add_parser("table", help="build the table-routing port matrix")
    p.add_argument("--circulant", required=True, help="ring circulant as N,1,s2")
    p.add_argument("--out", help="CSV path (from,to,port)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("route", help="trace one packet")
    p.add_argument("--algorithm", choices=routing.ALGORITHMS, required=True)
    p.add_argument("--circulant", required=True, help="ring circulant as N,1,s2")
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.add_argument("--out", help="trace JSON path")
    _add_mode_flags(p)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("compare", help="compare circulants to square mesh and torus")
    p.add_argument("--sides", default="3..23", help="grid sides, A..B or comma list")
    p.add_argument("--selection", choices=sorted(topology.SELECTION_RULES), default="best_ring")
    p.add_argument("--out", help="CSV path")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("efficiency", help="efficiency criterion K for one circulant")
    p.add_argument("--circulant", required=True, help="ring circulant as N,1,s2")
    p.add_argument("--algorithm", choices=routing.ALGORITHMS, required=True)
    p.add_argument("--source", type=int, default=0)
    _add_mode_flags(p)
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("cycles", help="wrap counts of shortest routes")
    p.add_argument("--circulant", required=True, help="ring circulant as N,1,s2")
    p.add_argument("--out", help="JSON path")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("memory", help="routing memory footprint for one network size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ports", type=int, default=4)
    p.add_argument("--out", help="CSV path")
    p.set_defaults(func=_cmd_memory)

    p = sub.add_parser("resources", help="estimated chip resources for one network size")
    p.add_argument("--algorithm", choices=routing.ALGORITHMS, required=True)
    p.add_argument("--x", type=int, required=True, help="router count")
    p.set_defaults(func=_cmd_resources)

    p = sub.add_parser("capacity", help="how many routers fit the chip budget")
    p.add_argument("--algorithm", choices=routing.ALGORITHMS, required=True)
    p.add_argument("--budget", type=float, default=0.35)
    p.add_argument("--alm-total", type=int, default=113560, dest="alm_total")
    p.add_argument("--reg-total", type=int, default=12492800, dest="reg_total")
    p.add_argument("--out", help="JSON path")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("figure", help="regenerate a dataset")
    p.add_argument("--id", choices=harness.FIGURES, required=True)
    p.add_argument("--values", help="value range, A..B or comma list")
    p.add_argument("--out", help="artifact path")
    p.add_argument("--format", choices=("csv", "json"))
    _add_mode_flags(p)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("fuzz", help="seeded routing termination fuzzing")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--n-min", type=int, default=5, dest="n_min")
    p.add_argument("--n-max", type=int, default=300, dest="n_max")
    p.add_argument("--out", help="report JSON path")
    _add_mode_flags(p)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except (ValidationError, OSError, LivelockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback  # only this branch needs it, and it is slow to load

        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
