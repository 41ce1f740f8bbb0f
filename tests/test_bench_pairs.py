"""The A/B summary of tools/bench_pairs.py on hand-made runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import parse_pairs, summarize  # noqa: E402


def _run(workload, pair, side, rss, faults, exit_code=0, digest="d0"):
    result = {"metrics": {"peak_rss_mb": {"value": rss, "unit": "MiB"}}}
    return {"workload": workload, "pair": pair, "side": side, "exit_code": exit_code,
            "info": {"outputs_sha256": digest}, "result": result, "ru_minflt": faults}


def test_parse_pairs():
    assert parse_pairs("evaluate=10, rerank_lstm=3") == {"evaluate": 10, "rerank_lstm": 3}


def test_summary_counts_better_pairs_and_gates_on_the_base_iqr():
    runs = []
    for pair, (base, change) in enumerate([(106.0, 62.0), (107.0, 63.0), (105.0, 108.0), (106.5, 62.5)]):
        digest = "d1" if pair == 2 else "d0"
        runs += [_run("evaluate", pair, "base", base, 100), _run("evaluate", pair, "change", change, 90 + pair, digest=digest)]
    runs.append(_run("evaluate", 4, "base", 1.0, 1))  # its change run is missing
    runs += [_run("evaluate", 5, "base", 1.0, 1), _run("evaluate", 5, "change", 1.0, 1, exit_code=1)]
    table = summarize(runs, {"peak_rss_mb": "lower"})["evaluate"]
    assert table["pairs"] == 4 and table["outputs_sha256_equal_pairs"] == 3
    rss = table["peak_rss_mb"]
    assert rss["change_better_pairs"] == 3
    assert rss["base"]["median"] == 106.25 and rss["change"]["median"] == 62.75
    assert rss["gain_exceeds_base_iqr"] and rss["ratio"] == 62.75 / 106.25
    assert table["ru_minflt"]["change_better_pairs"] == 4


def test_summary_needs_two_pairs():
    runs = [_run("rerank_lstm", 0, "base", 1.0, 1), _run("rerank_lstm", 0, "change", 1.0, 1)]
    assert summarize(runs, {"peak_rss_mb": "lower"}) == {"rerank_lstm": {"pairs": 1, "outputs_sha256_equal_pairs": 1}}
