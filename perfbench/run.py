#!/usr/bin/env python3
"""Benchmark of the mlmc_euler package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports the package from ``src/`` next to this directory, derives
every input from ``--seed``, and repeats one pass of fixed work for
``--seconds`` seconds.  Every output is checked against an exact oracle,
and a reduced instance is run at 1 and at nproc threads, whose result
arrays must match byte for byte.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, measured untraced; ``--trace 1`` reports the
per-layer metrics from a separate traced section, with an untraced and a
1-thread section of the same problem for the overhead and the speed-up.
The line before it is a JSON record of provenance, counts and the stream
fingerprint.  Spans of a traced run go to ``.perfbench/`` in the
checkout.  Workloads and metrics are described in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 15
MIN_PASSES = 3


def _load_package():
    if not os.path.isfile(os.path.join(SRC, "mlmc_euler", "__init__.py")):
        print("error: no mlmc_euler package under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def _provenance() -> dict:
    import numpy
    import scipy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind != "Instruction":
            caches["L" + level] = _read(os.path.join(base, index, "size"))
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    commit = head
    if head.startswith("ref: "):
        commit = _read(os.path.join(ROOT, ".git", head[5:])) or None
    return {
        "nproc": _nproc(),
        "cpu": model or platform.processor(),
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit or None,
    }


class SetupProbes:
    """Fresh-process set-up times: spawn to inputs built and warm call done.

    The probes are spread over the run, between passes, so that their
    median sees the same stretches of host speed as the passes do.
    """

    def __init__(self, args):
        self.command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                        "--workload", args.workload, "--seed", str(args.seed)]
        self.times = []

    def catch_up(self, share: float) -> None:
        """Probe until ``share`` of all ``SETUP_PROBES`` probes are done."""
        while len(self.times) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * share)):
            t0 = time.monotonic()
            done = subprocess.run(self.command, capture_output=True, text=True,
                                  timeout=60, check=True)
            self.times.append(float(done.stdout.split()[-1]) - t0)


class Tally:
    """Checked operations: attempted, failed and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, checks, reason: str) -> None:
        self.attempted += len(checks)
        bad = sum(1 for ok in checks if not ok)
        self.failed += bad
        if bad:
            self.reasons.append("%s: %d" % (reason, bad))


def _passes(workload, rec, threads, seconds, min_passes, tally, calls=None, between=None):
    """Run passes until they took ``seconds`` (at least ``min_passes``); return their wall times.

    Each pass appends to ``calls`` the list of wall times of its calls of
    the workload's unit operation.  ``between(share)`` runs after each
    pass, untimed, with the share of ``seconds`` measured so far.
    """
    import spans

    walls = []
    calls = [] if calls is None else calls
    module, name = workload.unit_site
    while len(walls) < min_passes or sum(walls) < seconds:
        latencies = []
        with spans.bound(module, name, spans.timed(getattr(module, name), latencies)):
            t0 = time.perf_counter()
            try:
                checks = workload.run_pass(rec, threads, len(walls))
            except Exception:  # a failed operation is counted, the run goes on
                traceback.print_exc()
                checks = [False]
            walls.append(time.perf_counter() - t0)
        calls.append(latencies)
        tally.add(checks, "oracle or exception in pass %d" % (len(walls) - 1))
        if between is not None:
            between(sum(walls) / seconds)
    return walls


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _invariance(workload, threads, tally) -> None:
    try:
        one = workload.invariance_result(1)
        many = workload.invariance_result(threads)
    except Exception:  # counted as a failure like any other operation
        traceback.print_exc()
        one = many = None
    tally.add([one is not None and one == many], "thread invariance")


def _end_to_end(args, workload, threads, tally) -> tuple:
    setup = SetupProbes(args)
    calls = []
    walls = _passes(workload, None, threads, args.seconds, MIN_PASSES, tally, calls,
                    setup.catch_up)
    setup.catch_up(1.0)
    # Means over passes, not medians over the run: a shared host can
    # alternate between a fast and a slow speed for seconds at a time, and
    # the mean moves smoothly with the share of time spent in each where
    # the median jumps.  So call latency quantiles are taken within each
    # pass, where the speed holds, and averaged over the passes.
    run_s = statistics.fmean(walls)
    values = {
        "setup_s": (statistics.median(setup.times), "s"),
        "run_s": (run_s, "s"),
        "substeps_per_s": (workload.substeps_per_pass() / run_s, "1/s"),
        "call_s_p50": (statistics.fmean(statistics.median(c) for c in calls), "s"),
        "call_s_p90": (statistics.fmean(_p90(c) for c in calls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    counts = {
        "passes": len(walls),
        "calls": sum(len(c) for c in calls),
        "setup_probe_s": setup.times,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, counts


def _per_layer(args, workload, threads, tally) -> tuple:
    import spans

    third = args.seconds / 3.0
    untraced = _passes(workload, None, threads, third, 2, tally)
    single = _passes(workload, None, 1, third, 1, tally)
    rec = spans.Recorder()
    with spans.traced_package(rec):
        traced = _passes(workload, rec, threads, third, 1, tally)
    run_s = {
        "untraced": statistics.fmean(untraced),
        "1thread": statistics.fmean(single),
        "traced": statistics.fmean(traced),
    }
    values = spans.layer_metrics(rec, len(traced), threads)
    values["paths.sched.speedup"] = run_s["1thread"] / run_s["untraced"]
    values["trace.overhead_frac"] = run_s["traced"] / run_s["untraced"] - 1.0
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    rec.dump(os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    counts = {
        "passes": {"untraced": len(untraced), "1thread": len(single), "traced": len(traced)},
        "run_s": run_s,
        "spans": len(rec.spans),
    }
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # set-up: import the package, build the inputs, make one small warm call
    _load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    threads = _nproc()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm(threads)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    tally = Tally()
    _invariance(workload, threads, tally)
    measure = _per_layer if args.trace else _end_to_end
    metrics, counts = measure(args, workload, threads, tally)
    record = {
        "workload": workload.name,
        "unit_operation": workload.unit,
        "seed": args.seed,
        "threads": threads,
        "substeps_per_pass": workload.substeps_per_pass(),
        "counts": counts,
        "error_rate": {"value": tally.failed / tally.attempted, "unit": "ratio"},
        "failures": tally.reasons,
        "fingerprint_estimate_n64_seed0": workloads.fingerprint(),
        "provenance": _provenance(),
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
