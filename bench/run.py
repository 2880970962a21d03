"""Benchmark of golay2d: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload verify-large --seed 1 --seconds 28 --trace 0

Run from the root of a source tree.  Each workload runs in fresh worker
processes (bench/worker.py) with one thread and the package imported from
``src/``; the library sees only the inputs generated from ``--seed``.  With
``--trace 0`` the result holds the end-to-end metrics of an untraced timed
loop; with ``--trace 1`` it holds the per-layer metrics of a traced run.  The
line before the result records the machine, the input digest, the repeat
counts and any failed checks.  The exit code is 0 only when every check
passed.  bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify-large", "papr-scan", "census", "cli-files")
# A sparse ladder keeps the reported percentile fixed while the number of
# samples in a run varies up to tenfold with the speed of the host.
TAIL_LADDER = (50, 90, 99, 99.9)
TAIL_BEYOND = 10
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(args, mode: str, deadline: float) -> tuple[float, str, str]:
    """Start a worker; return (seconds until its ready line, digest, rest of stdout)."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("GOLAY2D_OVERSAMPLE", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready.startswith("ready ") or proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return setup_s, ready.split()[1], rest


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least TAIL_BEYOND samples beyond it, and its value."""
    n = len(samples)
    fitting = [p for p in TAIL_LADDER if round(n * (100 - p) / 100, 6) >= TAIL_BEYOND]
    p = fitting[-1] if fitting else TAIL_LADDER[0]
    if n == 1:
        return p, samples[0]
    # 999 cut points at 0.1 % steps, linearly interpolated between samples.
    return p, statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]


def end_to_end(raw: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from a timed worker's raw result, plus details.

    The timing metrics count each item's latency in units of the reference
    time around it ("ref"), which follows the drift of the shared host; the
    same figures in seconds are in the details.
    """
    latencies = [t for per_item in raw["latencies"] for t in per_item]
    references = [r for per_item in raw["references"] for r in per_item]
    relative = [t / r for t, r in zip(latencies, references)]
    all_ms = [1000 * t for t in latencies]
    correct_share = 1 - raw["failed"] / raw["attempted"]
    tail_p, tail_ref = _tail(relative)
    values = {
        # Checks run outside the item timings, so this counts library time only.
        "items_per_kref": correct_share * 1000 * len(relative) / sum(relative),
        "item_ref_p50": statistics.median(relative),
        "item_ref_tail": tail_ref,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    details = {
        "tail": {"percentile": tail_p, "samples": len(relative)},
        "wall_clock": {
            name: {"value": value, "unit": unit}
            for name, value, unit in (
                ("items_per_s", correct_share * len(all_ms) / (sum(all_ms) / 1000), "items/s"),
                ("item_ms_p50", statistics.median(all_ms), "ms"),
                ("item_ms_tail", _tail(all_ms)[1], "ms"),
                ("reference_ms_p50", 1000 * statistics.median(references), "ms"),
                ("reference_ms_min", 1000 * min(references), "ms"),
            )
        },
        "item_ref_median": [
            [label, round(statistics.median(t / r for t, r in zip(lat, ref)), 4)]
            for label, lat, ref in zip(raw["labels"], raw["latencies"], raw["references"])
        ],
        "setup_samples_s": setup_samples,
    }
    return values, details


def _with_units(values: dict, kind: str) -> dict:
    """Values for every metric BENCHMARK.json declares under kind, with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)[kind]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "golay2d", "__init__.py")):
        raise BenchError(f"no golay2d package under {SRC}")
    deadline = perf_counter() + DEADLINE_S
    if args.trace:
        _, digest, rest = _spawn(args, "trace", deadline)
        raw = json.loads(rest.strip().splitlines()[-1])
        metrics = _with_units(raw["per_layer"], "per_layer")
        details = {"digest": digest}
    else:
        # Set-up runs before and after the timed run sample the host at
        # different moments.
        setup_samples, digests = [], set()
        for mode in ("setup", "setup", "timed", "setup", "setup"):
            s, digest, rest = _spawn(args, mode, deadline)
            setup_samples.append(s)
            digests.add(digest)
            if mode == "timed":
                raw = json.loads(rest.strip().splitlines()[-1])
        if len(digests) != 1:
            raise BenchError("set-up runs generated different inputs from one seed")
        values, details = end_to_end(raw, setup_samples)
        metrics = _with_units(values, "end_to_end")
        details.update(digest=digest, cycles=raw["cycles"], items_per_cycle=len(raw["labels"]))
    failed = raw["failed"]
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, setup_runs=0 if args.trace else len(setup_samples),
        machine=raw["machine"], failed_ratio=failed / raw["attempted"], failures=raw["failures"],
    )
    result = {"correct": failed == 0, "attempted": raw["attempted"], "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="golay2d benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        result, details = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
