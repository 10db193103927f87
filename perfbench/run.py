"""rotalab benchmark: one workload, closed loop, one op in flight.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` of that checkout and nowhere else. With `--trace 0` the run sets
up, measures ops for `--seconds` and prints the end-to-end metrics. With
`--trace 1` it runs a fixed list of ops first untraced and then under
the span tracer, and prints the per-layer metrics per op. The last line
of standard output is the result object; the line before it holds the
run's metadata. Spans and results are also written to `.perfbench_out/`.
See perfbench/README.md for the metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

from oracle import OracleFailure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SourceMissing(Exception):
    """The checkout has no importable rotalab under src/."""


def load_package(root):
    """Import rotalab from `<root>/src` only; refuse any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rotalab", "__init__.py")):
        raise SourceMissing(f"no rotalab package under {src}")
    sys.path.insert(0, src)
    package = importlib.import_module("rotalab")
    if not os.path.abspath(package.__file__).startswith(os.path.join(src, "")):
        raise SourceMissing(f"rotalab imported from {package.__file__}, not {src}")
    return package


def set_up(name, seed, workdir, tally):
    """Import, generate inputs, run and judge the warm-up op 0.

    Returns the package, the workload, the set-up time, and the number
    of threads that ran checks during op 0 (None if the op runs none).
    """
    started = time.perf_counter()
    package = load_package(ROOT)
    workload = WORKLOADS[name](package, seed, workdir)
    spy = getattr(workload, "check_threads", None)
    with spy() if spy else contextlib.nullcontext(set()) as threads:
        timed_op(workload, 0, tally)
    setup_s = time.perf_counter() - started
    return package, workload, setup_s, len(threads) or None


class Tally:
    """Counts attempted and failed ops, keeping the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def judge(self, workload, i, output, error=None):
        self.attempted += 1
        if error is None:
            try:
                workload.judge(i, output)
                return True
            except (OracleFailure, OSError) as exc:
                error = exc
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"op {i}: {type(error).__name__}: {error}")
        return False


def timed_op(workload, i, tally):
    """Run op i, judge it into `tally`, return its latency in seconds."""
    started = time.perf_counter()
    try:
        output = workload.run(i)
    except (Exception, SystemExit) as exc:  # a raising op is a failed op
        elapsed = time.perf_counter() - started
        tally.judge(workload, i, None, exc)
        return elapsed
    elapsed = time.perf_counter() - started
    tally.judge(workload, i, output)
    return elapsed


def measure(workload, seconds, tally, first_op=1):
    """Closed loop for `seconds`: returns (op latencies, wall time).

    The ops of a single-threaded workload are placed on the allowed CPUs
    in turn. Left alone, the scheduler keeps the loop on one CPU for the
    whole run, and on a shared host each CPU's speed drifts on its own by
    tens of percent over minutes, so a run would measure whichever CPU it
    happened to land on.
    """
    cpus = sorted(os.sched_getaffinity(0)) if getattr(workload, "single_threaded", False) else []
    latencies = []
    started = time.perf_counter()
    deadline = started + seconds
    try:
        while not latencies or time.perf_counter() < deadline:
            if cpus:
                os.sched_setaffinity(0, {cpus[len(latencies) % len(cpus)]})
            latencies.append(timed_op(workload, first_op + len(latencies), tally))
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return latencies, time.perf_counter() - started


def setup_probe_times(name, seed, count):
    """Cold set-up times of `count` fresh child processes, run one at a time."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def metadata(workload, seed, seconds, trace, pool, samples):
    import numpy

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        why = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}
    return {
        "workload": workload.name,
        "why": why[workload.name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "program_pool_threads": pool,
        "loop": "closed, one generator thread, one op in flight",
        "samples": samples,
    }


def end_to_end(name, seed, seconds):
    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally()
    package, workload, own_setup, pool = set_up(name, seed, OUT_DIR, tally)
    latencies, wall = measure(workload, seconds, tally)
    setups = [own_setup] + setup_probe_times(name, seed, workload.setup_runs - 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(latencies) / wall, "unit": "1/s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
        "ok_ratio": {"value": (tally.attempted - tally.failed) / tally.attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    samples = {
        "setup_s": len(setups),
        "ops_per_s": len(latencies),
        "op_p50_ms": len(latencies),
        "ok_ratio": tally.attempted,
        "setup_s_values": setups,
    }
    meta = metadata(workload, seed, seconds, 0, pool, samples)
    return tally, metrics, meta


def traced(name, seed, seconds):
    from spans import Tracer, per_layer_metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally()
    package, workload, _setup, _pool = set_up(name, seed, OUT_DIR, tally)
    ops = range(1, 1 + workload.trace_ops)
    started = time.perf_counter()
    for i in ops:
        timed_op(workload, i, tally)
    untraced_wall = time.perf_counter() - started
    tracer = Tracer()
    tracer.install(package)
    try:
        started = time.perf_counter()
        for i in ops:
            with tracer.op(i, workload.name):
                timed_op(workload, i, tally)
        traced_wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"))
    metrics = per_layer_metrics(tracer, len(ops), traced_wall / untraced_wall)
    samples = {"traced_ops": len(ops), "kept_spans": len(tracer.spans)}
    meta = metadata(workload, seed, seconds, 1, metrics["checks.threads"]["value"] or None, samples)
    return tally, metrics, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rotalab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.setup_probe:
            os.makedirs(OUT_DIR, exist_ok=True)
            print(json.dumps({"setup_s": set_up(args.workload, args.seed, OUT_DIR, Tally())[2]}))
            return 0
        run = traced if args.trace else end_to_end
        tally, metrics, meta = run(args.workload, args.seed, args.seconds)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta["failures"] = tally.reasons
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump({"meta": meta, "result": result}, handle, indent=1, allow_nan=False)
    print(json.dumps({"meta": meta}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
