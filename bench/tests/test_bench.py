"""Tests of the benchmark itself: smoke runs, metric names, fault injection.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(run.WORKLOADS)
LAYER_PREFIXES = ("correlation.", "papr.", "formats.", "cli.")


def bench(tree: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), *args],
        cwd=tree, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, tree: Path = ROOT, seed: int = 3):
    proc = bench(tree, "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                 "--trace", str(trace), "--smoke")
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2])["details"], json.loads(lines[-1])


def test_declared_workloads_can_run():
    import workloads

    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    code, details, result = smoke(workload, trace)
    assert code == 0, details["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["failed_ratio"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        assert details["machine"]["threads"]["OMP_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reads_zero_for_unused_layers(workload):
    _, _, result = smoke(workload, 1)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    used = {
        "verify-large": ("correlation.",),
        "papr-scan": ("papr.",),
        "census": ("correlation.",),
        "cli-files": LAYER_PREFIXES,
    }[workload]
    for prefix in LAYER_PREFIXES:
        layer = {k: v for k, v in values.items() if k.startswith(prefix)}
        if prefix in used:
            assert layer[prefix + ("report.calls" if prefix == "papr." else
                                   "table.calls" if prefix == "correlation." else "calls")] > 0
        else:
            assert not any(layer.values()), layer


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, _, result = smoke("cli-files", 1)
        counts.append({
            name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes")
        })
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] > 0


def test_same_seed_same_digest_other_seed_other_digest():
    digests = [smoke("verify-large", 0, seed=s)[1]["digest"] for s in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]


def _copy_tree(tmp_path: Path, with_source: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_wrong_pinned_count_fails_the_run(tmp_path):
    tree = _copy_tree(tmp_path)
    path = tree / "bench" / "workloads.py"
    text = path.read_text()
    assert "(2, 2, 4): 192" in text
    path.write_text(text.replace("(2, 2, 4): 192", "(2, 2, 4): 193"))
    code, details, result = smoke("census", 0, tree=tree)
    assert code != 0
    assert details["failed_ratio"] > 0
    assert not result["correct"] and result["failed"] > 0
    assert any("expected 193" in f for f in details["failures"])


def test_tree_without_source_fails_without_a_result(tmp_path):
    tree = _copy_tree(tmp_path, with_source=False)
    proc = bench(tree, "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run._tail([float(v) for v in range(99)])[0] == 50
    assert run._tail([float(v) for v in range(100)]) == (90, pytest.approx(89.1))
    assert run._tail([float(v) for v in range(999)])[0] == 90
    assert run._tail([float(v) for v in range(1000)])[0] == 99


def test_each_item_is_timed_between_two_references(monkeypatch):
    import worker

    ticks = iter(range(1, 1000))
    monkeypatch.setattr(worker, "reference_s", lambda: float(next(ticks)))
    item = types.SimpleNamespace(label="x", run=lambda: None, check=lambda out: None)
    raw = worker.timed_loop([item, item], 0.0, [])
    w = worker.REFERENCE_WARMUP
    assert raw["cycles"] == 1 and raw["failed"] == 0
    assert raw["references"] == [[w + 1.5], [w + 2.5]]


def test_relative_metrics_do_not_move_with_the_host_speed():
    raw = {"latencies": [[0.010, 0.020], [0.100, 0.120]],
           "references": [[0.001, 0.002], [0.010, 0.012]],
           "labels": ["a", "b"], "failed": 0, "attempted": 4, "peak_rss_mb": 40.0}
    slow = dict(raw, latencies=[[2 * t for t in per] for per in raw["latencies"]],
                references=[[2 * r for r in per] for per in raw["references"]])
    values, details = run.end_to_end(raw, [0.2])
    slow_values, slow_details = run.end_to_end(slow, [0.2])
    assert values["item_ref_p50"] == pytest.approx(10)
    assert values["items_per_kref"] == pytest.approx(100)
    for name in ("items_per_kref", "item_ref_p50", "item_ref_tail"):
        assert slow_values[name] == pytest.approx(values[name])
    wall, slow_wall = details["wall_clock"], slow_details["wall_clock"]
    assert wall["items_per_s"]["unit"] == "items/s"
    assert slow_wall["items_per_s"]["value"] == pytest.approx(wall["items_per_s"]["value"] / 2)


def test_self_time_subtracts_child_spans_of_other_layers():
    tracer = tracing.Tracer()
    # cli [0, 10] -> formats [1, 3]; cli -> verify [4, 9] -> verify [4.5, 8.5]
    # -> correlation [5, 8]
    tracer.spans = [
        ["cli", "main", 0.0, 10.0, -1],
        ["formats", "load_array", 1.0, 3.0, 0],
        ["verify", "is_gcap", 4.0, 9.0, 0],
        ["verify", "is_gcas", 4.5, 8.5, 2],
        ["correlation", "auto_correlation_table", 5.0, 8.0, 3],
    ]
    m = tracer.metrics()
    assert m["cli.busy_s"] == 10 and m["cli.self_s"] == 3
    assert m["verify.busy_s"] == 5 and m["verify.self_s"] == 2 and m["verify.calls"] == 1
    assert m["correlation.table.busy_s"] == 3 and m["formats.busy_s"] == 2


def test_tracer_restores_every_name():
    import golay2d.cli
    import golay2d.correlation
    import golay2d.verify

    before = (golay2d.cli.main, golay2d.verify.auto_correlation_table,
              golay2d.correlation.CorrelationValue.__init__)
    with tracing.Tracer():
        assert golay2d.cli.main is not before[0]
    after = (golay2d.cli.main, golay2d.verify.auto_correlation_table,
             golay2d.correlation.CorrelationValue.__init__)
    assert after == before
