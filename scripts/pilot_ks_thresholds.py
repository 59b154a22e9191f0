#!/usr/bin/env python3
"""Null-simulation pilots that calibrate the KS thresholds used in tests.

Two pilots, both distribution-free under their null:

* fitted one-sample: R normal draws per set, KS distance against the
  normal CDF with the set's own fitted mean and standard deviation
  (the statistic run_clt_experiment reports).  The 99th percentile at
  R = 500 is the CLT replication threshold.
* two-sample: KS distance between two independent sets of N normal
  draws each.  The 99th percentile at N = 100000 backs the pinned 0.02
  bound for the two-level law comparison (the pinned bound is looser
  on purpose: it also absorbs the genuine finite-level gap, which the
  null pilot cannot see).

Frozen outputs (seed 20260822, 4000 / 400 sets):
  fitted one-sample R=500:  q90 0.0373  q95 0.0404  q99 0.0464
  two-sample N=100000:      q90 0.0058  q95 0.0064  q99 0.0072
"""

import argparse
import json

import numpy as np
from scipy.special import ndtr

from mlmc_euler import ks_statistic_one_sample, ks_statistic_two_sample


def fitted_one_sample_null(sets: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((sets, reps))
    # moments of the sorted rows, as the frozen numbers were computed
    x.sort(axis=1)
    stats = np.empty(sets)
    for i, row in enumerate(x):
        mean, sd = row.mean(), row.std(ddof=1)
        stats[i] = ks_statistic_one_sample(row, lambda v: ndtr((v - mean) / sd))
    return stats


def two_sample_null(sets: int, size: int, rng: np.random.Generator) -> np.ndarray:
    stats = np.empty(sets)
    for i in range(sets):
        a = rng.standard_normal(size)
        b = rng.standard_normal(size)
        stats[i] = ks_statistic_two_sample(a, b)
    return stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--one-sample-sets", type=int, default=4000)
    parser.add_argument("--one-sample-reps", type=int, default=500)
    parser.add_argument("--two-sample-sets", type=int, default=400)
    parser.add_argument("--two-sample-size", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20260822)
    args = parser.parse_args()

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    quantiles = (0.90, 0.95, 0.99)

    one = fitted_one_sample_null(args.one_sample_sets, args.one_sample_reps, rng)
    two = two_sample_null(args.two_sample_sets, args.two_sample_size, rng)
    print(
        json.dumps(
            {
                "fitted_one_sample": {
                    "reps": args.one_sample_reps,
                    "sets": args.one_sample_sets,
                    "percentiles": {str(q): float(np.quantile(one, q)) for q in quantiles},
                },
                "two_sample": {
                    "size": args.two_sample_size,
                    "sets": args.two_sample_sets,
                    "percentiles": {str(q): float(np.quantile(two, q)) for q in quantiles},
                },
            },
            indent=2,
            sort_keys=True,
        )
    )


if __name__ == "__main__":
    main()
