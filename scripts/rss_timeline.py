#!/usr/bin/env python3
"""Resident memory of this process across repeated ``estimate`` calls.

    python3 scripts/rss_timeline.py [--n 512] [--m 2] [--calls 3] [--threads 2]

Runs ``calls`` calls of ``estimate(plan_bak(n, m, 1.0), bias_pilot=0)`` on
GBM(1, 0.05, 0.2, 1), seeds 0, 1, ..., while a side thread reads this
process's resident set size from ``/proc/self/statm`` every 2 ms.  Prints
one JSON object, sizes in MB:

* ``peak_mb``: the highest sample, and ``ru_maxrss_mb``, the kernel's
  high-water mark (what ``perfbench`` reports as ``peak_rss_mb``);
* ``before_mb``: the last sample after the import, before the first call;
* ``call_peak_mb``: the highest sample during each call;
* ``between_mb``: the sample taken just after each call returns;
* ``call_s``: each call's wall time, and ``samples``: samples taken.

Linux only.  Uses the standard library and the package alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import threading
import time

import mlmc_euler as me

INTERVAL_S = 0.002
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_MB


class _Sampler:
    """Samples the RSS on a daemon thread; ``mark()`` starts a new segment."""

    def __init__(self):
        self.segments = [[]]
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self.stop.is_set():
            self.segments[-1].append(_rss_mb())
            time.sleep(INTERVAL_S)

    def mark(self):
        """Close the current segment with one sample and open the next."""
        self.segments[-1].append(_rss_mb())
        self.segments.append([])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--calls", type=int, default=3)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()
    if args.calls < 1:
        parser.error("--calls must be >= 1")

    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    plan = me.plan_bak(args.n, args.m, 1.0)
    sampler = _Sampler()
    sampler.thread.start()
    walls = []
    try:
        time.sleep(10 * INTERVAL_S)
        sampler.mark()
        for seed in range(args.calls):
            start = time.perf_counter()
            me.estimate(model, me.identity_payoff(), plan, seed, threads=args.threads, bias_pilot=0)
            walls.append(time.perf_counter() - start)
            sampler.mark()
    finally:
        sampler.stop.set()
        sampler.thread.join(timeout=1.0)
    before, *calls = sampler.segments[: args.calls + 1]
    print(json.dumps({
        "n": args.n,
        "m": args.m,
        "threads": args.threads,
        "peak_mb": round(max(max(s) for s in sampler.segments if s), 1),
        "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "before_mb": round(before[-1], 1),
        "call_peak_mb": [round(max(s), 1) for s in calls],
        "between_mb": [round(s[-1], 1) for s in calls],
        "call_s": [round(w, 3) for w in walls],
        "samples": sum(len(s) for s in sampler.segments),
    }))


if __name__ == "__main__":
    main()
