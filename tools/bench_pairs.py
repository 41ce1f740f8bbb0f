"""Alternating A/B perfbench runs of two source checkouts, written to one
BENCH_<n>.json.

Run from anywhere, with both checkouts on disk:

    python3 tools/bench_pairs.py --base PARENT_CHECKOUT --change . --seed 12 \\
        --seconds 20 --pairs evaluate=10,rerank_attention=3,rerank_lstm=3,train_attention=3 \\
        --out BENCH_12.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``,
unmodified, in each checkout, one after the other; the checkout that goes
first alternates from pair to pair. The file keeps every run's ``env`` line
and result line as perfbench printed them, its ``info`` values (the output
digest among them), and its minor page faults (``ru_minflt`` of its
process). Per workload it sums up each end-to-end metric of
``BENCHMARK.json``, and ``ru_minflt``: the median and quartiles of each
side, the change/base ratio of the medians, the number of pairs in which the
change was better, and whether the gap between the medians, in the better
direction, exceeds the base's interquartile range; and the number of pairs
whose two runs wrote the same output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def src_sha256(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every ``src/**/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_perfbench(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in ``root``: its env line, its info values
    (``outputs_sha256`` among them), its result line, its exit code, and the
    minor page faults of its process."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True) as process:
        stdout = process.stdout.read()
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
    lines = stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    info = {name: value for _, name, value, _ in (line.split(" ", 3) for line in lines if line.startswith("info "))}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"env": env, "info": info, "result": result, "exit_code": process.returncode, "ru_minflt": usage.ru_minflt}


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload and metric (name -> "lower" or "higher" is better), the
    statistics of both sides over the pairs in which both runs succeeded."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict] = {}
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
        for name, better in {**metrics, "ru_minflt": "lower"}.items():
            values = {
                side: [pair[side]["ru_minflt"] if name == "ru_minflt"
                       else pair[side]["result"]["metrics"][name]["value"] for pair in complete]
                for side in SIDES
            }
            sign = 1 if better == "higher" else -1
            base, change = _stats(values["base"]), _stats(values["change"])
            table[name] = {
                "better": better,
                "base": base,
                "change": change,
                "ratio": change["median"] / base["median"] if base["median"] else None,
                "change_better_pairs": sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"])),
                "gain_exceeds_base_iqr": sign * (change["median"] - base["median"]) > base["q3"] - base["q1"],
            }
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
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    runs = []
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
        "trees": {side: {"src_sha256": src_sha256(root)} for side, root in roots.items()},
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all(run["exit_code"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
