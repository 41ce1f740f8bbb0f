"""Benchmark entry point for mirank: end-to-end metrics per workload, or
per-layer metrics from a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rerank_attention --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if every operation and every output check succeeded.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported, so runs
# on a 2-core machine do not depend on how the pool was sized.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"
ALL = "all"


def git_commit(root: Path) -> str:
    """Commit of a git checkout at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def result_line(ledger, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_one(args) -> int:
    sys.path.insert(0, str(SOURCE))
    import harness
    import workloads

    workload = workloads.make_workloads(args.tiny)[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            ledger, metrics, info = harness.run_traced(workload, workdir, args.seed)
        else:
            ledger, metrics, info = harness.run_untraced(workload, workdir, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    info["failed_frac"] = (ledger.failed / ledger.attempted, "ratio")
    for name, (value, unit) in info.items():
        print(f"info {name} {value} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(result_line(ledger, metrics))
    return 0 if ledger.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, one after another, each in its own process."""
    sys.path.insert(0, str(SOURCE))
    import harness
    import workloads

    ledger = harness.Ledger()
    metrics = {}
    for name in workloads.make_workloads(args.tiny):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = completed.stdout.splitlines()
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
        sys.stderr.write(completed.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"attempted": 1, "failed": 1, "metrics": {}}
        ledger.attempted += result["attempted"]
        # A non-zero exit with no failure in its result still fails the run.
        ledger.failed += result["failed"] or int(completed.returncode != 0)
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(result_line(ledger, metrics))
    return 0 if ledger.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rerank_attention", "rerank_lstm", "train_attention", "evaluate", ALL])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1 or not 0 <= args.seed < 2**64:
        parser.error("--seconds must be at least 1 and --seed a 64-bit unsigned integer")
    if not (SOURCE / "mirank" / "__init__.py").is_file():
        print(f"error: no mirank source under {SOURCE}; run from a source checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == ALL else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
