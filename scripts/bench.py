#!/usr/bin/env python3
"""Record a perf point of this checkout as ``BENCH_<label>.json``.

    python3 scripts/bench.py --label NAME [--seed N]

Runs ``perfbench/run.py --trace 0`` five times on every workload that
``BENCHMARK.json`` lists, for that file's ``run_seconds``, with seeds
N .. N+4.  The runs go round-robin over the workloads, so a slow stretch
of a shared host falls on all of them rather than on one.  Then it runs
the Tier-1 suite once with ``--durations``.  The file, written at the
root of the checkout, holds:

* the machine: nproc and the python, numpy and scipy versions;
* per workload and end-to-end metric: median, quartiles and every run;
* per workload: runs correct, operations attempted and failed;
* the stream fingerprint (sha256 of ``estimate --n 64 --seed 0``);
* the commit perfbench reports, and whether the tracked files match it:
  with uncommitted changes ``commit`` is null and ``tree_clean`` false,
  because perfbench reads the hash from ``.git/HEAD``, which then names
  the parent of what was measured;
* the Tier-1 wall time, its summary line and its slowest tests.

Only the standard library is used; compare two files by hand or with
``json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 5
DURATIONS = 10


def _perfbench(workload: str, seed: int, seconds: float) -> tuple:
    """One ``--trace 0`` run: (record line, result line) as dicts."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _tree_clean():
    """True if no tracked file differs from HEAD; None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return not done.stdout.strip()


def _tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=%d" % DURATIONS],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    wall = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    slowest = [
        {"s": float(match.group(1)), "phase": match.group(2), "test": match.group(3)}
        for match in (re.match(r"^([\d.]+)s (\w+) +(\S+)$", line) for line in lines)
        if match
    ]
    return {
        "wall_s": wall,
        "exit_code": done.returncode,
        "summary": lines[-1] if lines else "",
        "slowest": slowest,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="file name is BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first run")
    args = parser.parse_args()
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")

    import numpy
    import scipy

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    metric_names = [m["name"] for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]

    # read before the runs, so a later edit cannot pass for what was measured
    tree_clean = _tree_clean()
    runs = {name: [] for name in names}
    fingerprints = set()
    commit = None
    for i in range(RUNS):
        seed = args.seed + i
        for name in names:
            record, result = _perfbench(name, seed, seconds)
            fingerprints.add(record["fingerprint_estimate_n64_seed0"])
            commit = record["provenance"]["commit"]
            runs[name].append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print("%s seed %d: run_s %.3f correct %s" % (
                name, seed, result["metrics"]["run_s"]["value"], result["correct"]),
                file=sys.stderr)

    workloads = {}
    for name, done in runs.items():
        metrics = {}
        for metric in metric_names:
            values = [r["metrics"][metric] for r in done]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            metrics[metric] = {"median": median, "q1": q1, "q3": q3, "runs": values}
        workloads[name] = {
            "seeds": [r["seed"] for r in done],
            "runs_correct": sum(r["correct"] for r in done),
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "metrics": metrics,
        }

    payload = {
        "label": args.label,
        "commit": commit if tree_clean else None,
        "tree_clean": tree_clean,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "perfbench": {"seconds": seconds, "runs_per_workload": RUNS, "trace": 0},
        "fingerprint": sorted(fingerprints)[0] if len(fingerprints) == 1 else sorted(fingerprints),
        "workloads": workloads,
        "tier1": _tier1(),
    }
    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
