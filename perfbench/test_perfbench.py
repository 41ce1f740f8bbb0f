"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repo root.

Tiny inputs keep every run to a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
import mirank.ranker  # noqa: E402
import workloads  # noqa: E402
from mirank.ranker import RankResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".bench_work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workload_names_match_benchmark_json():
    assert WORKLOADS == list(workloads.make_workloads())
    assert WORKLOADS == list(workloads.make_workloads(tiny=True))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_counts_repeat_across_runs():
    results = []
    for _ in range(2):
        done = run_bench("--workload", "rerank_attention", "--seed", "5", "--seconds", "1", "--trace", "1", "--tiny")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        results.append({n: e["value"] for n, e in metrics.items() if e["unit"] in ("count", "bytes_computed")})
    assert results[0] == results[1]
    assert results[0]["models.advance_entries.pairs"] > 0


def _run_tiny_rerank(work_dir):
    workload = workloads.make_workloads(tiny=True)["rerank_attention"]
    ledger, _, _ = harness.run_untraced(workload, work_dir, seed=1, seconds=0.2)
    return ledger


def test_non_permutation_order_counts_as_failed(work_dir, monkeypatch):
    class Duplicated:
        order = (0, 0, *range(2, 10))

    monkeypatch.setattr(mirank.ranker, "rerank_top_n", lambda *args, **kwargs: Duplicated())
    ledger = _run_tiny_rerank(work_dir)
    assert ledger.attempted >= 1 and ledger.failed == ledger.attempted


def test_wrong_gmv_counts_as_failed(work_dir, monkeypatch):
    beam_search = mirank.ranker.beam_search

    def inflated(params, candidates, k):
        result = beam_search(params, candidates, k)
        return RankResult(result.ranking, result.expected_gmv * (1 + 1e-6), result.per_position_probabilities)

    monkeypatch.setattr(mirank.ranker, "beam_search", inflated)
    ledger = _run_tiny_rerank(work_dir)
    # Timed orders are unchanged; every sampled GMV recomputation fails.
    n_records = workloads.make_workloads(tiny=True)["rerank_attention"].work_items
    assert ledger.failed == min(workloads.SAMPLE_QUERIES, n_records) > 0


def test_without_source_exits_nonzero_and_prints_no_result(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(BENCH_DIR, work_dir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=work_dir)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
