"""One benchmark process: set up a workload, then time it or trace it.

run.py starts this script and measures set-up time from the start of the
process to the ``ready`` line, which follows the imports, input generation
and one warm-up item.  Modes:

* ``setup``: exit after the ready line.
* ``timed``: run whole cycles of the workload, untraced, until ``--seconds``
  have passed, and report each item's latency together with the reference
  time around it (see ``reference_s``).
* ``trace``: run one cycle untraced and one cycle traced, and report the
  per-layer metrics of the traced one.

The last line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import golay2d  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_item(item, failures: list[str]) -> tuple[float, bool]:
    """Run one item; return its latency and whether its output was correct."""
    start = perf_counter()
    try:
        out = item.run()
    except Exception as exc:  # an exception is a failed item, not a failed benchmark
        latency = perf_counter() - start
        failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
        return latency, False
    latency = perf_counter() - start
    try:
        problem = item.check(out)
    except Exception as exc:  # malformed output
        problem = f"{type(exc).__name__} while checking: {exc}"
    if problem:
        failures.append(f"{item.label}: {problem}")
    return latency, not problem


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def digest(workload) -> str:
    text = json.dumps([[item.label, item.inputs] for item in workload.cycle], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


REFERENCE_REPEATS = 300
REFERENCE_WARMUP = 20


def reference_s() -> float:
    """Seconds taken by a fixed piece of work that is not the library's.

    The work has the library's kinds of cost: a Python loop that builds small
    integer arrays, reduces them modulo q, counts values and hashes the bytes
    into a set.  The speed of the shared host drifts by a third or more
    within a second, so the timed loop runs this between items and reports
    each item's latency in units of the references around it.  The cyclic
    garbage collector is paused, so the library's heap does not add to it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        base = np.arange(16, dtype=np.int64).reshape(4, 4)
        seen = set()
        for k in range(REFERENCE_REPEATS):
            a = (base * (k % 7 + 1) + k) % 4
            seen.add(a.tobytes())
            np.bincount(a.ravel(), minlength=4)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed_loop(cycle, seconds: float, failures: list[str]) -> dict:
    """Run whole cycles for ``seconds``; time every item and the references around it.

    A reference runs before the first item and after every item, so each
    item sits between two; its reference time is their mean.
    """
    latencies = [[] for _ in cycle]
    references = [[] for _ in cycle]
    failed = cycles = 0
    for _ in range(REFERENCE_WARMUP):
        reference_s()
    before = reference_s()
    end = perf_counter() + seconds
    while True:
        for i, item in enumerate(cycle):
            latency, ok = run_item(item, failures)
            after = reference_s()
            latencies[i].append(latency)
            references[i].append((before + after) / 2)
            before = after
            failed += not ok
        cycles += 1
        if perf_counter() >= end:
            break
    return {
        "latencies": latencies,
        "references": references,
        "labels": [item.label for item in cycle],
        "cycles": cycles,
        "attempted": cycles * len(cycle),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(cycle, failures: list[str]) -> dict:
    def one_pass():
        total, failed = 0.0, 0
        for item in cycle:
            latency, ok = run_item(item, failures)
            total += latency
            failed += not ok
        return total, failed

    untraced_s, failed_untraced = one_pass()
    with tracing.Tracer() as tracer:
        traced_s, failed_traced = one_pass()
    metrics = tracer.metrics()
    # Traced items per second over untraced items per second, minus 1.
    metrics["trace.overhead_ratio"] = untraced_s / traced_s - 1
    return {
        "per_layer": metrics,
        "attempted": 2 * len(cycle),
        "failed": failed_untraced + failed_traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)

    if not os.path.abspath(golay2d.__file__).startswith(SRC + os.sep):
        print(f"error: golay2d imported from {golay2d.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_build", f"{args.workload}-{os.getpid()}")
    try:
        workload = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    try:
        failures: list[str] = []
        _, warmup_ok = run_item(workload.warmup, failures)
        print(f"ready {digest(workload)}", flush=True)
        if args.mode == "setup":
            return 0 if warmup_ok else 1
        if args.mode == "timed":
            result = timed_loop(workload.cycle, args.seconds, failures)
        else:
            result = traced_pass(workload.cycle, failures)
        # The warm-up item is checked too and counts as attempted.
        result["attempted"] += 1
        result["failed"] += not warmup_ok
        result.update(failures=failures[:20], machine=machine())
        print(json.dumps(result), flush=True)
        return 0
    finally:
        workload.cleanup()


if __name__ == "__main__":
    sys.exit(main())
