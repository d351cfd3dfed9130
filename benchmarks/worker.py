"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
imports circnoc cold and starts with an empty distance-profile cache, as a
``circnoc`` command does.  It prints one JSON object on stdout.

Usage: python3 benchmarks/worker.py --workload NAME --seed N --trace 0|1
"""

# circnoc is imported before any other module but calibrate (which imports
# only time), so that the import time includes the standard-library modules
# it loads, as a cold CLI call does.
import os
import sys
import time

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "circnoc", "__init__.py")):
    sys.exit(f"worker: no circnoc source under {SRC}")
sys.path.insert(0, SRC)
SPIN_BEFORE_IMPORT = calibrate.spin()
_import_start = time.perf_counter()
import circnoc.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _import_start
SPIN_AFTER_IMPORT = calibrate.spin()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from collections import deque  # noqa: E402

import circnoc as cn  # noqa: E402
from tracer import ALGORITHMS, Tracer  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
PINNED = os.path.join(BENCH_DIR, "pinned_sha256.json")

SQUARES = ",".join(str(side * side) for side in range(3, 24))
# The paper's sweeps, passed explicitly so a change of CLI defaults shows.
FIGURE_VALUES = {
    "topology_metrics": ["--values", "3..23"],
    "cycles": ["--values", "5..200"],
    "efficiency": ["--values", SQUARES],
    "memory": ["--values", SQUARES],
    "resources": ["--values", SQUARES],
    "capacity": [],
}
FUZZ_TRIALS = 10_000
DESIGN_SIDES = (10, 16)

# route_traffic: two best-ring topologies found by search, and C(1024; 1, 450),
# whose shortest routes need up to 8 wraps (adaptive K from node 0 is 1.625).
BEST_RING = {1024: 90, 2025: 197}
WRAP_HEAVY = (1024, 450)
PACKETS_PER_TOPOLOGY = 2500
PORT_SAMPLES_PER_TABLE = 500
# Route timings are kept per algorithm and per chunk of consecutive packets,
# each chunk between two calibration loops (calibrate.py).  Routing leaves
# no state behind, so repeating the pass in one process gives more samples
# per chunk without paying set-up again.
ROUTE_CHUNKS = 15
ROUTE_PASSES = 3


class Repetition:
    """What one repetition records: checks, operation times and extra results.

    ``times`` maps each timed operation to its samples and ``setup`` lists
    the set-up steps, import first; each sample is ``(seconds, loop time
    before, loop time after)`` with the calibration loop of calibrate.py.
    ``spins`` holds every loop time taken.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.setup = [(IMPORT_S, SPIN_BEFORE_IMPORT, SPIN_AFTER_IMPORT)]
        self.times: dict[str, list[tuple[float, float, float]]] = {}
        self.spins: list[float] = [SPIN_BEFORE_IMPORT, SPIN_AFTER_IMPORT]
        self.extra: dict[str, float] = {}
        self.routes = 0

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def spin(self) -> float:
        self.spins.append(calibrate.spin())
        return self.spins[-1]

    def record(self, op: str, seconds: float, spin_before: float, spin_after: float) -> None:
        self.times.setdefault(op, []).append((seconds, spin_before, spin_after))

    def setup_step(self, fn, *args):
        """Call ``fn(*args)`` as one timed step of set-up."""
        spin_before = self.spin()
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.setup.append((seconds, spin_before, self.spin()))
        return result


def _sha256(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _cli(rep: Repetition, op: str, argv: list[str], out: str) -> int | None:
    """Run ``circnoc <argv> --out <out>`` in-process as operation ``op``.

    Returns the exit code, or None after recording a failed check if the
    call raised.  A previous repetition's artifact is removed first, so a
    call that writes nothing cannot pass on stale bytes.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    if rep.tracer:
        rep.tracer.op = op
    sink = io.StringIO()
    spin_before = rep.spin()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = circnoc.cli.main([*argv, "--out", out])
    except Exception as exc:
        rep.check(False, f"{op} raised {exc!r}")
        return None
    seconds = time.perf_counter() - start
    rep.record(op, seconds, spin_before, rep.spin())
    return code


def paper_figures(seed: int, rep: Repetition) -> None:
    """All six figures at the paper's sweeps, then a 10k-trial fuzz."""
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)["figures"]
    for figure, values in FIGURE_VALUES.items():
        path = os.path.join(OUT_DIR, f"figure-{figure}")
        code = _cli(rep, f"figure.{figure}", ["figure", "--id", figure, *values], path)
        if code is not None:
            digest = _sha256(path) if code == 0 else None
            rep.check(digest == pinned[figure], f"figure {figure}: exit {code}, sha256 {digest}")
    path = os.path.join(OUT_DIR, "fuzz.json")
    code = _cli(rep, "fuzz", ["fuzz", "--seed", str(seed), "--trials", str(FUZZ_TRIALS)], path)
    if code is not None:
        livelocks = None
        if code == 0 and os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                livelocks = json.load(handle)["livelock_count"]
        rep.check(code == 0 and livelocks == 0, f"fuzz: exit {code}, livelocks {livelocks}")


def design_search(rep: Repetition) -> None:
    """General two-generatrix search for n = 100..256, via ``circnoc compare``."""
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)["design_search_csv"]
    lo, hi = DESIGN_SIDES
    path = os.path.join(OUT_DIR, "design_search.csv")
    code = _cli(rep, "compare", ["compare", "--sides", f"{lo}..{hi}", "--selection", "best_general"], path)
    if code is not None:
        digest = _sha256(path) if code == 0 else None
        rep.check(digest == pinned, f"compare: exit {code}, sha256 {digest}")
    # Share of searched pairs in which neither generatrix is a unit mod n:
    # the pairs the multiplier isomorphism cannot map onto a ring circulant.
    pairs = nonunit = 0
    for side in range(lo, hi + 1):
        n = side * side
        limit = (n - 1) // 2
        for s1 in range(1, limit):
            for s2 in range(s1 + 1, limit + 1):
                if math.gcd(n, s1, s2) == 1:
                    pairs += 1
                    nonunit += math.gcd(s1, n) != 1 and math.gcd(s2, n) != 1
    rep.extra["share.nonunit_pairs"] = nonunit / pairs


def reference_distances(n: int, s2: int) -> list[int]:
    """Hop distance from node 0 to every node of C(n; 1, s2), by plain BFS.

    The benchmark's own reference: circulants are vertex-transitive, so
    d(u, v) is ``ref[(v - u) % n]``.
    """
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for step in (1, s2, -1, -s2):
            v = (u + step) % n
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def route_error(trace, algorithm: str, src: int, dst: int, n: int, s2: int, ref: list[int]) -> str | None:
    """Why a trace is not a valid route of ``algorithm``, or None if it is."""
    nodes, ports = trace.nodes, trace.ports
    if not nodes or nodes[0] != src or nodes[-1] != dst or len(nodes) != len(ports) + 1:
        return "does not run from src to dst"
    steps = (1, s2, -1, -s2)
    for u, v, port in zip(nodes, nodes[1:], ports):
        if not 0 <= port < 4 or (v - u) % n != steps[port] % n:
            return f"hop {u} -> {v} is not port {port}"
    offset = (dst - src) % n
    distance = ref[offset]
    hops = len(ports)
    if algorithm == "table" and hops != distance:
        return f"table route has {hops} hops, shortest is {distance}"
    if algorithm == "clockwise":
        side = min(offset, n - offset)
        expected = side // s2 + side % s2
        if hops != expected:
            return f"clockwise route has {hops} hops, expected {expected}"
    if algorithm == "adaptive" and hops < distance:
        return f"adaptive route has {hops} hops, below shortest {distance}"
    return None


def _packets(seed: int, cfgs: list) -> tuple[list, random.Random]:
    rng = random.Random(seed)
    packets = []
    for index, cfg in enumerate(cfgs):
        for _ in range(PACKETS_PER_TOPOLOGY):
            src, dst = rng.sample(range(cfg.n), 2)
            packets.append((index, src, dst))
    rng.shuffle(packets)
    return packets, rng


def route_traffic_setup(seed: int, rep: Repetition) -> dict:
    """Select the topologies, build their routing tables, generate packets.

    Each search and each table build is its own set-up step, so that each is
    scaled by the CPU speed measured around it.
    """
    specs = []
    for n, s2 in BEST_RING.items():
        spec = rep.setup_step(cn.search_best_ring_circulant, n)
        rep.check(spec.generatrices == (1, s2), f"best ring for n={n} is {spec}, expected s2={s2}")
        specs.append(spec)
    specs.append(cn.CirculantSpec(WRAP_HEAVY[0], (1, WRAP_HEAVY[1])))
    cfgs = [cn.RouterConfig.from_spec(spec) for spec in specs]
    tables = [rep.setup_step(cn.build_routing_table, cfg) for cfg in cfgs]
    packets, rng = rep.setup_step(_packets, seed, cfgs)
    return {"cfgs": cfgs, "tables": tables, "packets": packets, "rng": rng}


def _route_pass(rep: Repetition, cfgs: list, refs: list, packets: list) -> tuple[dict, int]:
    """Route every packet once with each algorithm, interleaved per packet.

    Records each algorithm's busy time in each chunk of packets as one
    sample of operation ``<alg>.<chunk>``; returns the hops per algorithm
    and the number of adaptive routes longer than shortest.
    """
    hops = dict.fromkeys(ALGORITHMS, 0)
    adaptive_longer = 0
    clock = time.perf_counter
    bounds = [len(packets) * chunk // ROUTE_CHUNKS for chunk in range(ROUTE_CHUNKS + 1)]
    spin_before = rep.spin()
    for chunk in range(ROUTE_CHUNKS):
        busy = dict.fromkeys(ALGORITHMS, 0.0)
        for op in range(bounds[chunk], bounds[chunk + 1]):
            if rep.tracer:
                rep.tracer.op = op
            index, src, dst = packets[op]
            cfg, ref = cfgs[index], refs[index]
            distance = ref[(dst - src) % cfg.n]
            for algorithm in ALGORITHMS:
                start = clock()
                try:
                    trace = cn.trace_route(algorithm, src, dst, cfg)
                except Exception as exc:
                    rep.check(False, f"{algorithm} {src}->{dst} in {cfg} raised {exc!r}")
                    continue
                busy[algorithm] += clock() - start
                hops[algorithm] += trace.hops
                if algorithm == "adaptive" and trace.hops > distance:
                    adaptive_longer += 1
                error = route_error(trace, algorithm, src, dst, cfg.n, cfg.s2, ref)
                rep.check(error is None, f"{algorithm} {src}->{dst} in {cfg}: {error}")
        spin_after = rep.spin()
        for algorithm, seconds in busy.items():
            rep.record(f"{algorithm}.{chunk}", seconds, spin_before, spin_after)
        spin_before = spin_after
    return hops, adaptive_longer


def route_traffic(rep: Repetition, state: dict) -> None:
    """Route the packets ``ROUTE_PASSES`` times, then check sampled table ports."""
    cfgs, packets = state["cfgs"], state["packets"]
    refs = [reference_distances(cfg.n, cfg.s2) for cfg in cfgs]
    for _ in range(ROUTE_PASSES):
        hops, adaptive_longer = _route_pass(rep, cfgs, refs, packets)
    shortest = sum(refs[index][(dst - src) % cfgs[index].n] for index, src, dst in packets)
    rng = state["rng"]
    for table, cfg, ref in zip(state["tables"], cfgs, refs):
        steps = (1, cfg.s2, -1, -cfg.s2)
        for _ in range(PORT_SAMPLES_PER_TABLE):
            u, v = rng.sample(range(cfg.n), 2)
            port = table.port(u, v)
            closer = 0 <= port < 4 and ref[(v - u - steps[port]) % cfg.n] == ref[(v - u) % cfg.n] - 1
            rep.check(closer, f"table port {port} at {u} -> {v} in {cfg} is not one hop closer")
    for algorithm in ("clockwise", "adaptive"):
        rep.extra[f"stretch.{algorithm}"] = hops[algorithm] / shortest
    rep.extra["share.wrap_heavy_packets"] = sum(
        1 for index, _, _ in packets if (cfgs[index].n, cfgs[index].s2) == WRAP_HEAVY
    ) / len(packets)
    rep.extra["share.adaptive_longer"] = adaptive_longer / len(packets)
    rep.routes = len(packets)


def _profile_counts() -> tuple[int, int] | None:
    """(hits, misses) of circnoc's distance-profile cache, or None if it has none."""
    cache_info = getattr(getattr(cn, "circulant_distance_profile", None), "cache_info", None)
    if cache_info is None:
        return None
    info = cache_info()
    return info.hits, info.misses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper_figures", "route_traffic", "design_search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="where a traced repetition writes its spans")
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rep = Repetition(tracer)
    if args.workload == "route_traffic":
        state = route_traffic_setup(args.seed, rep)
    before = _profile_counts()
    if args.workload == "route_traffic":
        route_traffic(rep, state)
    elif args.workload == "paper_figures":
        paper_figures(args.seed, rep)
    else:
        design_search(rep)
    after = _profile_counts()

    result = {
        "setup": rep.setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "times": rep.times,
        "spins": rep.spins,
        "routes": rep.routes,
        "attempted": rep.attempted,
        "failures": rep.failures,
        "extra": rep.extra,
    }
    if tracer:
        tracer.uninstall()
        if before is None:
            tracer.absent.append("circnoc.circulant_distance_profile.cache_info")
            before = after = (0, 0)
        layers = tracer.layer_metrics()
        hits, misses = after[0] - before[0], after[1] - before[1]
        layers["cli.import_s"] = IMPORT_S
        layers["topology.profile.calls"] = hits + misses
        layers["topology.profile.bfs_runs"] = misses
        layers["topology.profile.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        result["layers"] = layers
        result["absent"] = tracer.absent
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
