"""The A/B summary of tools/bench_pairs.py on hand-made runs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import (  # noqa: E402
    fresh_copy,
    generate_footprint,
    generate_footprints,
    import_footprints,
    parse_pairs,
    src_tree,
    summarize,
)


RSS = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]
GENERATED = {"generate_s": 0.4, "generate_peak_rss_mb": 90.0, "generate_sha256": {"train.jsonl": "t", "test.jsonl": "s"},
             "read_logs_s": 0.2, "read_logs_sha256": "r"}


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
    table = summarize(runs, RSS)["evaluate"]
    assert table["pairs"] == 4 and table["outputs_sha256_equal_pairs"] == 3
    rss = table["peak_rss_mb"]
    assert rss["change_better_pairs"] == 3
    assert rss["base"]["median"] == 106.25 and rss["change"]["median"] == 62.75
    assert rss["gain_exceeds_base_iqr"] and rss["ratio"] == 62.75 / 106.25
    assert rss["bound"] == 0.05 and rss["within_bound"]
    assert table["ru_minflt"]["change_better_pairs"] == 4 and "within_bound" not in table["ru_minflt"]


def test_within_bound_allows_a_loss_up_to_the_bound_in_the_better_direction():
    """A median worse by exactly the bound passes and one worse by more
    fails, for a lower-is-better and a higher-is-better metric alike."""
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.25},
               {"name": "items_per_s", "better": "higher", "bound": 0.25}]

    def table(change_rss, change_rate):
        runs = []
        for pair in range(3):
            for side, rss, rate in (("base", 100.0, 100.0), ("change", change_rss, change_rate)):
                run = _run("evaluate", pair, side, rss, 1)
                run["result"]["metrics"]["items_per_s"] = {"value": rate, "unit": "items/s"}
                runs.append(run)
        summary = summarize(runs, metrics)["evaluate"]
        return summary["peak_rss_mb"]["within_bound"], summary["items_per_s"]["within_bound"]

    assert table(125.0, 75.0) == (True, True)
    assert table(125.5, 74.5) == (False, False)
    assert table(50.0, 200.0) == (True, True)


@pytest.mark.parametrize("wins, failed, gain, met", (
    (10, 0, 13.0, True),
    (9, 0, 13.0, True),
    (8, 0, 13.0, False),
    (8, 2, 13.0, False),  # 8 of 8 complete pairs, but of 10 run
    (10, 0, 0.5, False),  # a gain within the base's interquartile range (1.75)
))
def test_claim_needs_nine_tenths_of_the_pairs_run_and_a_gain_beyond_the_base_iqr(wins, failed, gain, met):
    """Of 10 pairs, 9 wins meet the claim and 8 do not; a tie (the last pair)
    or a failed pair is no win."""
    runs = []
    for pair in range(10):
        base = 60.0 + pair % 4
        change = base - gain if pair < wins else base + (pair < 9)
        exit_code = int(pair >= 10 - failed)
        runs += [_run("evaluate", pair, "base", base, 1), _run("evaluate", pair, "change", change, 1, exit_code)]
    rss = summarize(runs, RSS)["evaluate"]["peak_rss_mb"]
    assert rss["change_better_pairs"] == wins and rss["gain_exceeds_base_iqr"] == (gain > 1.75)
    assert rss["claim_met"] is met


def test_summary_needs_two_pairs():
    runs = [_run("rerank_lstm", 0, "base", 1.0, 1), _run("rerank_lstm", 0, "change", 1.0, 1)]
    assert summarize(runs, RSS) == {"rerank_lstm": {"pairs": 1, "outputs_sha256_equal_pairs": 1}}


def test_fresh_copy_takes_sources_and_the_benchmark_spec_only(tmp_path):
    """A side runs from a copy of its src/ and perfbench/ and of the change's
    BENCHMARK.json: no bytecode, benchmark work files or other files. Its
    src/ lines are counted as wc -l counts them: a last line with no newline
    does not count."""
    checkout = tmp_path / "checkout"
    for name in ("src/mirank/__init__.py", "src/mirank/__pycache__/core.pyc", "perfbench/run.py",
                 "perfbench/__pycache__/run.pyc", "perfbench/.bench_work/run-1/log.jsonl", "tools/x.py",
                 "BENCHMARK.json"):
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(name)
    (checkout / "src/mirank/nn/core.py").parent.mkdir()
    (checkout / "src/mirank/nn/core.py").write_text("a = 1\n\nb = 2\nc = 3")
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    copy = fresh_copy(checkout, tmp_path / "copies" / "base", spec)
    assert copy == tmp_path / "copies" / "base"
    files = sorted(str(path.relative_to(copy)) for path in copy.rglob("*") if path.is_file())
    assert files == ["BENCHMARK.json", "perfbench/run.py", "src/mirank/__init__.py", "src/mirank/nn/core.py"]
    assert (copy / "BENCHMARK.json").read_text() == "{}"
    assert src_tree(copy) == src_tree(checkout)
    assert src_tree(copy)["src_lines"] == 3
    (copy / "src/mirank/__init__.py").write_text("changed\n")
    assert src_tree(copy)["src_lines"] == 4 and src_tree(copy)["src_sha256"] != src_tree(checkout)["src_sha256"]


@pytest.mark.parametrize("change_digest, code", (("d0", 0), ("d1", 1)))
def test_outputs_that_differ_within_a_pair_exit_1_after_the_file_is_written(change_digest, code, tmp_path, monkeypatch):
    """As with a failed run: the change's runs write another digest than the base's."""
    for side in ("base", "change"):
        for name in ("src/mirank/__init__.py", "perfbench/run.py"):
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(name)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": RSS}))

    def run_perfbench(root, workload, seed, seconds):
        run = _run(workload, 0, root.name, 1.0, 1, digest=change_digest if root.name == "change" else "d0")
        return {"env": None, **{key: run[key] for key in ("info", "result", "exit_code", "ru_minflt")}}

    monkeypatch.setattr(bench_pairs, "run_perfbench", run_perfbench)
    monkeypatch.setattr(bench_pairs, "import_footprint", lambda root: {"import_peak_rss_mb": 30.0, "import_s": 0.1})
    monkeypatch.setattr(bench_pairs, "generate_footprint", lambda root: GENERATED)
    out = tmp_path / "BENCH.json"
    argv = ["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
            "--seed", "1", "--seconds", "1", "--pairs", "evaluate=2", "--out", str(out)]
    assert bench_pairs.main(argv) == code
    report = json.loads(out.read_text())
    table = report["summary"]["evaluate"]
    assert table["pairs"] == 2 and table["outputs_sha256_equal_pairs"] == 2 * (1 - code)
    assert report["trees"]["change"] == {**src_tree(tmp_path / "change"), "import_peak_rss_mb": 30.0, "import_s": 0.1,
                                        **GENERATED}
    assert report["generate_outputs_equal"] is True


@pytest.mark.parametrize("key, value", (("generate_sha256", {"train.jsonl": "t2", "test.jsonl": "s"}),
                                        ("read_logs_sha256", "r2")), ids=["written-bytes", "read-records"])
def test_generate_runs_that_wrote_other_bytes_or_read_other_records_exit_1_after_the_file_is_written(
        key, value, tmp_path, monkeypatch):
    for side in ("base", "change"):
        for name in ("src/mirank/__init__.py", "perfbench/run.py"):
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(name)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": RSS}))
    monkeypatch.setattr(bench_pairs, "import_footprint", lambda root: {"import_peak_rss_mb": 30.0, "import_s": 0.1})
    other = {**GENERATED, key: value}
    monkeypatch.setattr(bench_pairs, "generate_footprint", lambda root: other if root.name == "change" else GENERATED)
    out = tmp_path / "BENCH.json"
    argv = ["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
            "--seed", "1", "--seconds", "1", "--pairs", "evaluate=0", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    report = json.loads(out.read_text())
    assert report["generate_outputs_equal"] is False
    assert report["trees"]["change"][key] == value


def _package(root, init, cli=""):
    for name, text in (("__init__.py", init), ("cli.py", cli)):
        (root / "src" / "mirank" / name).parent.mkdir(parents=True, exist_ok=True)
        (root / "src" / "mirank" / name).write_text(text)
    return root


def test_import_footprint_imports_the_tree_s_own_src_in_a_fresh_process(tmp_path):
    """The peak RSS counts what the tree's import allocates; BLAS is pinned
    to one thread; a tree whose import fails measures None. Linux counts a
    parent's peak at the fork in its child's ru_maxrss, so each footprint is
    taken from a small parent process, as bench_pairs.py is."""
    big = _package(tmp_path / "big", "BLOCK = bytearray(64 << 20)\n",
                   "import os\nassert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n")
    small = _package(tmp_path / "small", "")
    broken = _package(tmp_path / "broken", "", "raise ImportError('no cli')\n")
    code = ("import json, sys; from pathlib import Path; import bench_pairs; "
            "print(json.dumps([bench_pairs.import_footprint(Path(root)) for root in sys.argv[1:]]))")
    env = {**os.environ, "PYTHONPATH": str(Path(bench_pairs.__file__).parent)}
    result = subprocess.run([sys.executable, "-c", code, str(big), str(small), str(broken)],
                            env=env, capture_output=True, text=True, check=True)
    big_run, small_run, broken_run = json.loads(result.stdout)
    assert big_run["import_peak_rss_mb"] - small_run["import_peak_rss_mb"] > 48
    assert 0 < small_run["import_s"] < big_run["import_s"] + 1
    assert broken_run is None


def test_import_footprints_alternate_the_sides_and_keep_each_side_s_medians(monkeypatch):
    calls = []

    def footprint(root):
        calls.append(root)
        rss = {"base": 40.0, "change": 30.0}[root] + len(calls) % 3
        return {"import_peak_rss_mb": rss, "import_s": len(calls) / 100}

    monkeypatch.setattr(bench_pairs, "import_footprint", footprint)
    footprints = import_footprints({"base": "base", "change": "change"})
    assert calls == ["base", "change", "change", "base"] * 3 + ["base", "change"]
    assert footprints == {"base": {"import_peak_rss_mb": 41.0, "import_s": 0.08},
                          "change": {"import_peak_rss_mb": 31.0, "import_s": 0.07}}
    runs = iter([None] + [{"import_peak_rss_mb": 1.0, "import_s": 1.0}] * 13)  # the first base import fails
    monkeypatch.setattr(bench_pairs, "import_footprint", lambda root: next(runs))
    assert import_footprints({"base": "base", "change": "change"}) == {
        "base": {"import_peak_rss_mb": None, "import_s": None},
        "change": {"import_peak_rss_mb": 1.0, "import_s": 1.0},
    }


def test_generate_footprints_alternate_the_sides_and_compare_every_run_s_bytes(monkeypatch):
    calls = []

    def footprint(root):
        calls.append(root)
        seconds = {"base": 1.0, "change": 0.35}[root] + len(calls) % 3 / 100
        return {**GENERATED, "generate_s": seconds, "generate_peak_rss_mb": 100.0 + len(calls),
                "read_logs_s": seconds / 2}

    monkeypatch.setattr(bench_pairs, "generate_footprint", footprint)
    figures, equal = generate_footprints({"base": "base", "change": "change"})
    assert calls == ["base", "change", "change", "base"] * 2 + ["base", "change"]
    assert equal is True
    assert figures["base"] == {"generate_s": 1.01, "generate_peak_rss_mb": 105.0, "read_logs_s": 0.505,
                               "generate_sha256": GENERATED["generate_sha256"], "read_logs_sha256": "r"}
    assert figures["change"]["generate_s"] == 0.36 and figures["change"]["generate_peak_rss_mb"] == 106.0
    assert figures["change"]["read_logs_s"] == 0.18
    runs = iter([GENERATED] * 6 + [None] + [GENERATED] * 3)  # the fourth change run fails
    monkeypatch.setattr(bench_pairs, "generate_footprint", lambda root: next(runs))
    figures, equal = generate_footprints({"base": "base", "change": "change"})
    assert equal is False and figures["change"]["generate_s"] is None and figures["base"]["generate_s"] == 0.4
    assert figures["change"]["read_logs_s"] is None and figures["base"]["read_logs_s"] == 0.2
    for other in ({"generate_sha256": {"train.jsonl": "t", "test.jsonl": "x"}}, {"read_logs_sha256": "x"}):
        runs = iter([GENERATED] * 9 + [{**GENERATED, **other}])
        monkeypatch.setattr(bench_pairs, "generate_footprint", lambda root: next(runs))
        assert generate_footprints({"base": "base", "change": "change"})[1] is False


def test_generate_footprint_runs_the_tree_s_cli_and_reader_and_digests_what_they_gave(tmp_path):
    """The command is the tree's own ``mirank --seed 3 generate``, and the
    reader the tree's own ``read_logs`` of the train.jsonl it wrote; a tree
    whose command or reader fails measures None."""
    cli = ("import sys\nfrom pathlib import Path\n"
           "assert sys.argv[1:3] == ['--seed', '3'] and sys.argv[-1] == 'generate'\n"
           "out = Path(sys.argv[4])\n"
           "(out / 'train.jsonl').write_text('train')\n(out / 'test.jsonl').write_text('test')\n")
    reader = ("from pathlib import Path\nfrom types import SimpleNamespace\n"
              "def read_logs(path):\n"
              "    assert Path(path).name == 'train.jsonl' and Path(path).read_text() == 'train'\n"
              "    return SimpleNamespace(records=())\n")
    root = _package(tmp_path / "ok", "", cli)
    (root / "src" / "mirank" / "persistence.py").write_text(reader)
    run = generate_footprint(root)
    assert run["generate_sha256"] == {name: hashlib.sha256(text).hexdigest()
                                      for name, text in (("train.jsonl", b"train"), ("test.jsonl", b"test"))}
    assert run["generate_s"] > 0 and run["generate_peak_rss_mb"] > 0
    assert run["read_logs_sha256"] == hashlib.sha256().hexdigest() and run["read_logs_s"] >= 0
    assert generate_footprint(_package(tmp_path / "broken", "", "raise SystemExit(2)\n")) is None
    assert generate_footprint(_package(tmp_path / "no-reader", "", cli)) is None


def test_read_records_digests_every_bit_of_the_records_read(tmp_path):
    """Equal records give equal digests whatever their bytes on disk; a
    zero's sign, a missing probability or another query id changes it."""
    from mirank.core import CandidateSet, QueryRecord
    from mirank.persistence import write_logs

    def digest(features, probs=(0.5, 0.25), query_id="q0"):
        path = tmp_path / "logs.jsonl"
        write_logs([QueryRecord(query_id, CandidateSet([3, 4], [1.5, 2.0], features), (0, 1), probs)], path)
        seconds, sha = bench_pairs.read_records(str(path), 2)
        assert seconds > 0
        return sha

    same = digest([[0.0, 1.0], [2.0, 3.0]])
    (tmp_path / "logs.jsonl").write_text((tmp_path / "logs.jsonl").read_text().replace(": ", ":"))
    assert bench_pairs.read_records(str(tmp_path / "logs.jsonl"), 1)[1] == same
    assert digest([[0.0, 1.0], [2.0, 3.0]]) == same
    others = {digest([[-0.0, 1.0], [2.0, 3.0]]), digest([[0.0, 1.0], [2.0, 3.0]], None),
              digest([[0.0, 1.0], [2.0, 3.0]], query_id="q1")}
    assert same not in others and len(others) == 3
