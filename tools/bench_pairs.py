"""Alternating A/B perfbench runs of two source checkouts, written to one
BENCH_<n>.json.

Run from anywhere, with both checkouts on disk:

    python3 tools/bench_pairs.py --base PARENT_CHECKOUT --change . --seed 12 \\
        --seconds 20 --pairs evaluate=10,rerank_attention=3,rerank_lstm=3,train_attention=3 \\
        --out BENCH_12.json

Both sides run from fresh copies, never in place: the ``src/`` and
``perfbench/`` of each checkout, and the change's ``BENCHMARK.json``, are
copied (without ``__pycache__`` or ``.bench_work``) into two sibling
directories of one temporary directory, so both run at the same path depth
from files no earlier run has touched; the copies are removed at the end.
Each pair runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``,
unmodified, in each copy, one after the other; the side that goes first
alternates from pair to pair. The file keeps every run's ``env`` line
and result line as perfbench printed them, its ``info`` values (the output
digest among them), and its minor page faults (``ru_minflt`` of its
process). Per workload it sums up each end-to-end metric of
``BENCHMARK.json``, and ``ru_minflt``: the median and quartiles of each
side, the change/base ratio of the medians, the number of pairs in which the
change was better, and whether the gap between the medians, in the better
direction, exceeds the base's interquartile range; whether that is a
claimable gain (``claim_met``: the change was better in at least nine tenths
of all the workload's pairs run, a tie or a failed run counting as no win,
and the gap exceeds the base's interquartile range); and the number of pairs
whose two runs wrote the same output digest. Each end-to-end metric also
carries its ``bound`` from ``BENCHMARK.json`` and ``within_bound``: whether
the change's median is worse than the base's by no more than that fraction
of the base's median, the no-regression check. Per side, ``trees`` holds the
digest and the line count of its ``src/`` (:func:`src_tree`), and its import
footprint: the median peak RSS and wall time of ``import mirank, mirank.cli``
over 7 fresh processes, run before the pairs with the sides alternating
(:func:`import_footprints`), and its ``mirank --seed 3 generate`` run: the
median wall time and peak RSS over 5 fresh processes, alternating likewise,
and the SHA-256 of the ``train.jsonl`` and ``test.jsonl`` it wrote
(:func:`generate_footprints`); and its ``read_logs`` of that ``train.jsonl``:
the median wall time of the reads and the SHA-256 of the records read
(:func:`read_records`), each run reading its own file in a fresh process.
``generate_outputs_equal`` says whether every one of those runs wrote the
same bytes and read the same records.

The file is written in any case; the exit code is 1 when a run failed,
when the two runs of a complete pair wrote different output digests, or when
the ``generate`` runs did not all write the same bytes and read the same
records, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "change")
IMPORT_REPS = 7
IMPORT_CODE = "import time; t = time.perf_counter(); import mirank, mirank.cli; print(time.perf_counter() - t)"
GENERATE_REPS = 5
GENERATE_FILES = ("train.jsonl", "test.jsonl")
READ_REPS = 3


def src_tree(root: Path) -> dict:
    """``src_sha256``, the SHA-256 over the relative path and bytes of every
    ``src/**/*.py``, and ``src_lines``, their total line count as ``wc -l``
    counts it: the number of newline bytes."""
    digest, lines = hashlib.sha256(), 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def fresh_copy(checkout: Path, dest: Path, benchmark: Path) -> Path:
    """``dest``, made to hold a copy of the ``src/`` and ``perfbench/`` of
    ``checkout`` and of the ``BENCHMARK.json`` at ``benchmark``, without
    ``__pycache__`` or ``.bench_work`` directories."""
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for name in ("src", "perfbench"):
        shutil.copytree(checkout / name, dest / name, ignore=ignore)
    shutil.copyfile(benchmark, dest / "BENCHMARK.json")
    return dest


def _run_child(command: list[str], root: Path, env: dict | None = None) -> tuple[str, int, os.struct_rusage]:
    """The stdout, exit code and resource usage of ``command`` run in ``root``."""
    with subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as process:
        stdout = process.stdout.read()
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
    return stdout, process.returncode, usage


def import_footprint(root: Path) -> dict | None:
    """One fresh process's ``import mirank, mirank.cli`` from ``root/src``,
    with ``OPENBLAS_NUM_THREADS=1``: ``import_peak_rss_mb``, the peak
    ``ru_maxrss`` of the process in MiB, and ``import_s``, the wall time of
    the import statement. None when the import fails. Linux counts the
    parent's peak at the fork in the child's ``ru_maxrss``, so the figure is
    the import's own peak only from a parent smaller than it, as this script is."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    stdout, exit_code, usage = _run_child([sys.executable, "-c", IMPORT_CODE], root, env)
    if exit_code != 0:
        return None
    return {"import_peak_rss_mb": usage.ru_maxrss / 1024, "import_s": float(stdout)}


def _alternating(measure, roots: dict[str, Path], reps: int) -> dict[str, list]:
    """Per side, ``reps`` results of ``measure(root)``, the side that goes
    first alternating from rep to rep."""
    samples: dict[str, list] = {side: [] for side in SIDES}
    for rep in range(reps):
        for side in (SIDES if rep % 2 == 0 else SIDES[::-1]):
            samples[side].append(measure(roots[side]))
    return samples


def _medians(runs: list, keys: tuple[str, ...]) -> dict:
    """The median of each figure ``keys`` over ``runs``; None where a run failed."""
    return {key: None if None in runs else statistics.median(run[key] for run in runs) for key in keys}


def import_footprints(roots: dict[str, Path]) -> dict[str, dict]:
    """Per side, the median of each :func:`import_footprint` figure over
    IMPORT_REPS fresh processes, the side that goes first alternating; a
    figure is None when any of its side's imports failed."""
    samples = _alternating(import_footprint, roots, IMPORT_REPS)
    return {side: _medians(runs, ("import_peak_rss_mb", "import_s")) for side, runs in samples.items()}


def read_records(path: str, reps: int) -> tuple[float, str]:
    """The median wall time of ``reps`` reads of the log at ``path`` by the
    ``mirank.persistence.read_logs`` that ``sys.path`` finds, and the SHA-256
    over the records of the last read: each one's query id, and the dtype,
    shape and bytes of its ids, prices, features, labels and ground-truth
    probabilities."""
    from mirank.persistence import read_logs

    times = []
    for _ in range(reps):
        start = time.perf_counter()
        records = read_logs(path).records
        times.append(time.perf_counter() - start)
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record.query_id).encode())
        candidates = record.candidate_set
        for array in (candidates.ids, candidates.prices, candidates.feature_matrix, record.labels,
                      record.ground_truth_probs):
            digest.update(b"None" if array is None else f"{array.dtype.str}{array.shape}".encode() + array.tobytes())
    return statistics.median(times), digest.hexdigest()


def generate_footprint(root: Path) -> dict | None:
    """One fresh process's ``mirank --seed 3 generate`` from ``root/src``,
    with ``OPENBLAS_NUM_THREADS=1``, writing into a temporary directory:
    ``generate_s``, the wall time of the process, ``generate_peak_rss_mb``,
    its peak ``ru_maxrss`` in MiB, and ``generate_sha256``, the SHA-256 of
    each of GENERATE_FILES it wrote; then, in another fresh process,
    ``read_logs_s`` and ``read_logs_sha256``, the :func:`read_records` of the
    ``train.jsonl`` it wrote over READ_REPS reads by the tree's own
    ``read_logs``. None when either process fails."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-generate-") as out:
        command = [sys.executable, "-m", "mirank.cli", "--seed", "3", "--output-dir", out, "generate"]
        start = time.perf_counter()
        _, exit_code, usage = _run_child(command, root, env)
        seconds = time.perf_counter() - start
        if exit_code != 0:
            return None
        digests = {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest() for name in GENERATE_FILES}
        read = f"import bench_pairs; print(*bench_pairs.read_records({str(Path(out) / 'train.jsonl')!r}, {READ_REPS}))"
        read_env = {**env, "PYTHONPATH": os.pathsep.join((env["PYTHONPATH"], str(Path(__file__).resolve().parent)))}
        stdout, exit_code, _ = _run_child([sys.executable, "-c", read], root, read_env)
        if exit_code != 0:
            return None
        read_seconds, read_digest = stdout.split()
    return {"generate_s": seconds, "generate_peak_rss_mb": usage.ru_maxrss / 1024, "generate_sha256": digests,
            "read_logs_s": float(read_seconds), "read_logs_sha256": read_digest}


def generate_footprints(roots: dict[str, Path]) -> tuple[dict[str, dict], bool]:
    """Per side, the median of each :func:`generate_footprint` figure over
    GENERATE_REPS fresh processes, the side that goes first alternating (None
    when any of its side's runs failed), with the digests of its first run;
    and whether every run of both sides succeeded, wrote the same bytes and
    read the same records."""
    samples = _alternating(generate_footprint, roots, GENERATE_REPS)
    runs = [run for side_runs in samples.values() for run in side_runs]
    digests = ("generate_sha256", "read_logs_sha256")
    equal = None not in runs and len({json.dumps([run[key] for key in digests], sort_keys=True) for run in runs}) == 1
    figures = {
        side: {**_medians(side_runs, ("generate_s", "generate_peak_rss_mb", "read_logs_s")),
               **{key: side_runs[0] and side_runs[0][key] for key in digests}}
        for side, side_runs in samples.items()
    }
    return figures, equal


def run_perfbench(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in ``root``: its env line, its info values
    (``outputs_sha256`` among them), its result line, its exit code, and the
    minor page faults of its process."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    stdout, exit_code, usage = _run_child(command, root)
    lines = stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    info = {name: value for _, name, value, _ in (line.split(" ", 3) for line in lines if line.startswith("info "))}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"env": env, "info": info, "result": result, "exit_code": exit_code, "ru_minflt": usage.ru_minflt}


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric (``BENCHMARK.json`` ``end_to_end`` entries:
    ``name``, ``better`` "lower" or "higher", ``bound``), the statistics of
    both sides over the pairs in which both runs succeeded."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict] = {}
        pairs_run = len({run["pair"] for run in runs if run["workload"] == workload})
        for run in runs:
            if run["workload"] == workload and run["exit_code"] == 0 and run["result"]:
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        complete = [pair for pair in pairs.values() if len(pair) == 2]
        table: dict = {
            "pairs": len(complete),
            "outputs_sha256_equal_pairs": sum(
                pair["base"]["info"].get("outputs_sha256") == pair["change"]["info"].get("outputs_sha256")
                for pair in complete
            ),
        }
        summary[workload] = table
        if len(complete) < 2:
            continue
        for entry in [*metrics, {"name": "ru_minflt", "better": "lower"}]:
            name, better = entry["name"], entry["better"]
            values = {
                side: [pair[side]["ru_minflt"] if name == "ru_minflt"
                       else pair[side]["result"]["metrics"][name]["value"] for pair in complete]
                for side in SIDES
            }
            sign = 1 if better == "higher" else -1
            base, change = _stats(values["base"]), _stats(values["change"])
            better_pairs = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
            exceeds_iqr = sign * (change["median"] - base["median"]) > base["q3"] - base["q1"]
            table[name] = {
                "better": better,
                "base": base,
                "change": change,
                "ratio": change["median"] / base["median"] if base["median"] else None,
                "change_better_pairs": better_pairs,
                "gain_exceeds_base_iqr": exceeds_iqr,
                "claim_met": 10 * better_pairs >= 9 * pairs_run and exceeds_iqr,
            }
            if "bound" in entry:
                table[name]["bound"] = entry["bound"]
                table[name]["within_bound"] = (
                    sign * (change["median"] - base["median"]) >= -entry["bound"] * base["median"]
                )
    return summary


def parse_pairs(text: str) -> dict[str, int]:
    pairs = {}
    for part in text.split(","):
        workload, _, count = part.partition("=")
        pairs[workload.strip()] = int(count)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--pairs", type=parse_pairs, required=True, help="workload=count,...")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = args.change.resolve() / "BENCHMARK.json"
    spec = json.loads(benchmark.read_text())
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        roots = {side: fresh_copy(getattr(args, side).resolve(), Path(scratch) / side, benchmark) for side in SIDES}
        footprints = import_footprints(roots)
        generated, generate_equal = generate_footprints(roots)
        trees = {side: {**src_tree(root), **footprints[side], **generated[side]} for side, root in roots.items()}
        for workload, count in args.pairs.items():
            for pair in range(count):
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    run = run_perfbench(roots[side], workload, args.seed, args.seconds)
                    runs.append({"workload": workload, "pair": pair, "side": side, **run})
                    print(f"{workload} pair {pair} {side}: exit {run['exit_code']}", file=sys.stderr)
    report = {
        "command": (
            f"python3 tools/bench_pairs.py --base BASE --change CHANGE --seed {args.seed} "
            f"--seconds {args.seconds} --pairs {','.join(f'{w}={c}' for w, c in args.pairs.items())} "
            f"--out {args.out.name}"
        ),
        "trees": trees,
        "generate_outputs_equal": generate_equal,
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    failed = any(run["exit_code"] != 0 for run in runs)
    diverged = any(table["outputs_sha256_equal_pairs"] < table["pairs"] for table in report["summary"].values())
    return 1 if failed or diverged or not generate_equal else 0


if __name__ == "__main__":
    sys.exit(main())
