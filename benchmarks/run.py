"""circnoc benchmark: runs one workload for a fixed time and prints its metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload route_traffic --seed 1 --seconds 30 --trace 0

Each repetition runs ``worker.py`` in a fresh interpreter, one after the
other and pinned to the CPU that is fastest just before it starts, until
``--seconds`` have passed (at least three repetitions).  ``setup_s``,
``wall_s`` and ``routes_per_s.*`` are scaled to a reference CPU speed (see
calibrate.py); ``raw.setup_s`` and ``raw.wall_s`` are the same times as
measured, and so are the traced self times.  ``wall_s`` and
``routes_per_s.*`` sum, over the timed operations, each operation's median
sample; ``setup_s``, ``peak_rss_mb`` and the other results are medians over
the repetitions.  With ``--trace 0`` every repetition is untraced.  With
``--trace 1`` traced and untraced repetitions alternate: per-layer metrics
are medians over the traced ones, and the tracing overhead is the traced
``wall_s`` minus the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit.  The exit code is 1 if any operation failed and
2 if the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
from tracer import ALGORITHMS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("paper_figures", "route_traffic", "design_search")
MIN_REPETITIONS = 3
MIN_TRACED_PAIRS = 2
# A run ends within 180 s: no repetition starts after RUN_LIMIT_S, and a
# worker still running at DEADLINE_S is stopped.
RUN_LIMIT_S = 120.0
DEADLINE_S = 170.0
# The CPUs this process may use at start; pinning narrows its own affinity.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


class BenchmarkError(Exception):
    """The benchmark could not run: missing sources or a crashed worker."""


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def pin_fastest_cpu() -> None:
    """Pin this process, and so the next worker, to the allowed CPU that runs
    the calibration loop fastest now."""
    if not ALLOWED_CPUS:
        return
    spins = {}
    try:
        for cpu in ALLOWED_CPUS:
            os.sched_setaffinity(0, {cpu})
            spins[cpu] = calibrate.spin()
        os.sched_setaffinity(0, {min(spins, key=spins.get)})
    except OSError:
        return


def _repetition(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "CIRCNOC_THREADS"}
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)),
    ]
    if traced:
        cmd += ["--spans-out", os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} repetition ran longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[tuple[bool, dict]]:
    """Run repetitions until ``seconds`` have passed; returns (traced, result) pairs."""
    start = time.monotonic()
    reps: list[tuple[bool, dict]] = []
    minimum = 2 * MIN_TRACED_PAIRS if trace else MIN_REPETITIONS
    while True:
        pin_fastest_cpu()
        traced = trace and len(reps) % 2 == 1
        elapsed = time.monotonic() - start
        reps.append((traced, _repetition(workload, seed, traced, DEADLINE_S - elapsed)))
        if reps[-1][1]["failures"]:
            break
        elapsed = time.monotonic() - start
        if elapsed >= RUN_LIMIT_S or (len(reps) >= minimum and elapsed >= seconds):
            break
    return reps


def _median(results: list[dict], key: str) -> float:
    return statistics.median(result[key] for result in results)


def _seconds(sample: list[float], scaled: bool) -> float:
    """A sample's seconds, scaled to the reference speed or as measured."""
    seconds, spin_before, spin_after = sample
    return calibrate.scaled(seconds, spin_before, spin_after) if scaled else seconds


def _setup(result: dict, scaled: bool = True) -> float:
    """Set-up time of one repetition: the sum of its steps, import first."""
    return sum(_seconds(step, scaled) for step in result["setup"])


def _total(results: list[dict], prefix: str = "", scaled: bool = True) -> float:
    """Sum over operations of each operation's median sample across repetitions.

    Every repetition runs the same operations on the same input.
    """
    ops = {op for result in results for op in result["times"] if op.startswith(prefix)}
    return sum(
        statistics.median(_seconds(s, scaled) for r in results for s in r["times"].get(op, ())) for op in ops
    )


def summarize(reps: list[tuple[bool, dict]]) -> dict[str, float]:
    """Every metric value of one run, end-to-end and per-layer."""
    plain = [result for traced, result in reps if not traced]
    traced = [result for is_traced, result in reps if is_traced]
    values = {
        "setup_s": statistics.median(_setup(r) for r in plain),
        "wall_s": _total(plain),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "raw.setup_s": statistics.median(_setup(r, scaled=False) for r in plain),
        "raw.wall_s": _total(plain, scaled=False),
        "host.spin_ms": 1000 * statistics.median(s for r in plain for s in r["spins"]),
    }
    for name in set().union(*(result["extra"] for result in plain)):
        values[name] = statistics.median(r["extra"][name] for r in plain if name in r["extra"])
    if plain[0]["routes"]:
        for alg in ALGORITHMS:
            values[f"routes_per_s.{alg}"] = plain[0]["routes"] / _total(plain, f"{alg}.")
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(result["layers"][name] for result in traced)
        values["tracing.overhead_s"] = _total(traced) - values["wall_s"]
    return values


def report(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload and build its result object; also returns failures."""
    spec = _spec()
    reps = measure(workload, seed, seconds, trace)
    values = summarize(reps)
    attempted = sum(result["attempted"] for _, result in reps)
    failures = [message for _, result in reps for message in result["failures"]]
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    print(f"{workload}, seed {seed}, trace {int(trace)}: {len(reps)} repetitions")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not trace:
        # Route results are per-layer metrics in BENCHMARK.json, because an
        # end-to-end metric must be non-zero on every workload; shown here too.
        for m in spec["per_layer"]:
            if m["name"] in values and m["name"] not in metrics:
                print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"  error_rate = {len(failures)}/{attempted} failed/attempted")
    absent = sorted({name for _, result in reps for name in result.get("absent", ())})
    if absent:
        print(f"  absent boundaries: {', '.join(absent)}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "circnoc", "__init__.py")):
        print(f"benchmark: no circnoc source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = False
    for workload in workloads:
        try:
            result, failures = report(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 2
        for message in failures[:20]:
            print(f"FAILED {workload}: {message}", file=sys.stderr)
        failed = failed or bool(failures)
        print(json.dumps(result), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
