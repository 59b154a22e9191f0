"""Statistical verification experiments for the multilevel estimator.

Everything here either checks a finite-sample identity exactly (the
bracket integral), replays the estimator many times to compare its
error law against its normal limit (CLT replication, coverage), or
evaluates normal-approximation quality bounds from sampled level
moments (Berry-Esseen).  Confidence intervals live here too: a normal
radius z * SE for the limit-law regime, with z from scipy's ``ndtri``,
the same inverse normal CDF that turns uniforms into the Gaussian
increments in ``paths``, and the distribution-free Chebyshev radius
SE / sqrt(1 - confidence) as the conservative fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import ndtr, ndtri

from .estimator import EstimateReport, LevelStats, MlmcPlan, estimate
from .models import Payoff, SdeModel
from .paths import DOMAIN_BRACKET, _chunk_tasks, _run_tasks, normal_block

__all__ = [
    "CltExperiment",
    "BerryEsseenReport",
    "CoverageReport",
    "DegenerateStatisticsError",
    "confidence_interval",
    "ks_statistic_one_sample",
    "ks_statistic_two_sample",
    "bracket_time_integral_exact",
    "bracket_expectation_check",
    "run_clt_experiment",
    "berry_esseen",
    "coverage_experiment",
]


class DegenerateStatisticsError(RuntimeError):
    """Sampled moments are degenerate (zero dispersion) for this analysis."""


def confidence_interval(
    point: float, standard_error: float, confidence: float, method: str = "clt"
) -> Tuple[float, float]:
    """Two-sided interval around ``point``.

    ``clt`` uses the normal quantile z_{(1+confidence)/2}; ``chebyshev``
    uses the distribution-free radius SE / sqrt(1 - confidence), wider
    by a factor of about 1.92 at the 90% level.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if standard_error < 0.0:
        raise ValueError("standard error must be >= 0")
    if method == "clt":
        radius = float(ndtri(0.5 * (1.0 + confidence))) * standard_error
    elif method == "chebyshev":
        radius = standard_error / math.sqrt(1.0 - confidence)
    else:
        raise ValueError("method must be 'clt' or 'chebyshev'")
    return point - radius, point + radius


def ks_statistic_one_sample(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup |empirical CDF - cdf| over the sample points."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - f, f - (grid - 1.0 / n))))


def ks_statistic_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """sup |F_a - F_b| between two empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("need non-empty samples on both sides")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


_RationalLike = Union[int, float, str, Fraction]


def bracket_time_integral_exact(
    n: int, m: int, horizon: _RationalLike, t: _RationalLike
) -> Fraction:
    """Exact integral of (eta_{mn}(s) - eta_n(s)) over [0, t] as a Fraction.

    The integrand is constant on each fine-grid cell [k T/(mn), (k+1) T/(mn)),
    equal to k T/(mn) - floor(k/m) T/n, so the integral is a finite sum
    in exact rational arithmetic whenever horizon and t are rational.
    """
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    big_t = Fraction(horizon)
    tt = Fraction(t)
    if not 0 <= tt <= big_t:
        raise ValueError("t must lie in [0, horizon]")
    fine = big_t / (m * n)
    coarse = big_t / n
    full_cells = int(tt / fine)
    total = Fraction(0)
    for k in range(full_cells):
        total += (k * fine - (k // m) * coarse) * fine
    remainder = tt - full_cells * fine
    if remainder > 0:
        total += (full_cells * fine - (full_cells // m) * coarse) * remainder
    return total


def bracket_expectation_check(
    n: int,
    m: int,
    horizon: float,
    t: float,
    samples: int = 0,
    master_seed: int = 0,
    mode: str = "time",
    threads: int = 1,
) -> Tuple[float, float]:
    """Check the expected coupling bracket against its closed form.

    Returns (estimate, target) with target = (m - 1) T t / (2 m n), the
    leading term of the expected bracket of one noise coordinate.

    mode="time" computes the deterministic time integral of
    eta_{mn} - eta_n exactly; at grid-aligned t the estimate equals the
    target as a rational number.  mode="brownian" estimates
    E integral (W_{eta_mn(s)} - W_{eta_n(s)})^2 ds from ``samples``
    simulated paths (the integrand is constant on fine cells, so given
    the discrete path the integral is computed without extra
    discretization error); it matches the target to O(1/n) plus noise.
    Paths are simulated in fixed chunks, so the estimate does not depend
    on ``threads``.  Both modes check their inputs before any work.
    """
    if n < 1 or m < 2 or not 0.0 < horizon < math.inf or not 0.0 <= t <= horizon:
        raise ValueError("need n >= 1, m >= 2, a finite horizon > 0 and 0 <= t <= horizon")
    target = (m - 1) * horizon * t / (2.0 * m * n)
    if mode == "time":
        return float(bracket_time_integral_exact(n, m, horizon, t)), target
    if mode != "brownian":
        raise ValueError("mode must be 'time' or 'brownian'")
    if samples < 1:
        raise ValueError("brownian mode needs samples >= 1")
    fine_steps = m * n
    dt_fine = horizon / fine_steps
    cells = min(int(math.floor(t / dt_fine + 1e-9)), fine_steps)
    values = np.empty(samples)
    k = np.arange(cells)

    def work(a, b):
        z = normal_block(master_seed, DOMAIN_BRACKET, n, m, a, b - a, 1, fine_steps)[0]
        w = np.cumsum(math.sqrt(dt_fine) * z, axis=1)
        w = np.concatenate([np.zeros((b - a, 1)), w], axis=1)
        diffs = w[:, k] - w[:, (k // m) * m]
        values[a:b] = np.sum(diffs**2, axis=1) * dt_fine

    _run_tasks([_chunk_tasks(samples, fine_steps, work)], threads)
    return float(np.mean(values)), target


def _replicate(
    model: SdeModel,
    payoff: Payoff,
    plan: MlmcPlan,
    master_seed: int,
    replications: int,
    threads: int,
    first: int = 0,
) -> List[EstimateReport]:
    """Reports of ``estimate`` for replication keys first .. first + replications - 1.

    Every replicated experiment runs the estimator through here.  Each
    replication runs the full plan on its own key subtree and skips the
    bias pilot, which is a single-run diagnostic.  ``estimate`` is looked
    up in this module on each call, so the benchmark's trace mode, which
    rebinds ``diagnostics.estimate``, times every replication.
    """
    return [
        estimate(model, payoff, plan, master_seed, replication=rep, threads=threads, bias_pilot=0)
        for rep in range(first, first + replications)
    ]


@dataclass(frozen=True)
class CltExperiment:
    """Replicated estimator errors scaled by n**alpha.

    ``degenerate`` marks an error law with zero sample variance (for
    example the zero-volatility model); the KS statistic is defined as
    0.0 in that case rather than NaN.
    """

    replications: int
    standardized_errors: np.ndarray
    sample_mean: float
    sample_variance: float
    ks_statistic: float
    degenerate: bool
    plan: MlmcPlan


def run_clt_experiment(
    model: SdeModel,
    payoff: Payoff,
    plan: MlmcPlan,
    replications: int,
    true_value: float,
    master_seed: int,
    sigma2: Optional[float] = None,
    threads: int = 1,
) -> CltExperiment:
    """Replicate the estimator and KS-test its scaled error law.

    The replications' errors n**alpha (Q - true_value) are compared
    against a normal law with mean equal to the sample mean and variance
    ``sigma2`` (the externally estimated limit variance) or, when that is
    not supplied, the sample variance.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications")
    if sigma2 is not None and not 0.0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be finite and > 0 when supplied")
    scale = plan.n**plan.alpha
    reports = _replicate(model, payoff, plan, master_seed, replications, threads)
    errors = np.array([scale * (report.estimate - true_value) for report in reports])
    mean = float(np.mean(errors))
    variance = float(np.var(errors, ddof=1))
    degenerate = variance == 0.0
    ks = 0.0
    if not degenerate:
        null_sd = math.sqrt(variance if sigma2 is None else sigma2)
        ks = ks_statistic_one_sample(errors, lambda x: ndtr((x - mean) / null_sd))
    return CltExperiment(
        replications=replications,
        standardized_errors=errors,
        sample_mean=mean,
        sample_variance=variance,
        ks_statistic=ks,
        degenerate=degenerate,
        plan=plan,
    )


@dataclass(frozen=True)
class BerryEsseenReport:
    """Normal-approximation quality bound from sampled level moments.

    Interpreting the estimator as the sum of the L + 1 independent
    level estimators X_l = n**alpha / N_l * sum_k Z_{l,k}, the bound is
    6 rho / s**3 with s**2 the sum of the level variances
    n**(2 alpha) variance_l / N_l and rho the sum of the level third
    absolute moments, upper-bounded through the sample moments as
    n**(3 alpha) third_abs_moment_l / N_l**(3/2).
    """

    s_squared: float
    rho: float
    bound: float
    n: int
    alpha: float


def berry_esseen(level_stats: Sequence[LevelStats], plan: MlmcPlan) -> BerryEsseenReport:
    """Berry-Esseen-type bound 6 rho / s**3 from sampled level moments.

    Raises DegenerateStatisticsError when every level variance is zero
    (the bound is meaningless without dispersion).
    """
    s2 = 0.0
    rho = 0.0
    for stats in level_stats:
        count = stats.count
        s2 += plan.n ** (2.0 * plan.alpha) * stats.variance / count
        rho += plan.n ** (3.0 * plan.alpha) * stats.third_abs_moment / count**1.5
    if s2 <= 0.0:
        raise DegenerateStatisticsError("all level variances are zero")
    return BerryEsseenReport(
        s_squared=s2,
        rho=rho,
        bound=6.0 * rho / s2**1.5,
        n=plan.n,
        alpha=plan.alpha,
    )


@dataclass(frozen=True)
class CoverageReport:
    """Empirical CI coverage over replicated runs, per interval method."""

    replications: int
    confidence: float
    coverage: Dict[str, float]
    mean_radius: Dict[str, float]


def coverage_experiment(
    model: SdeModel,
    payoff: Payoff,
    plan: MlmcPlan,
    replications: int,
    true_value: float,
    confidence: float,
    master_seed: int,
    threads: int = 1,
) -> CoverageReport:
    """Fraction of replications whose interval contains the truth.

    Both interval methods, ``clt`` and ``chebyshev``, are evaluated on
    the same replicated runs, so their radius ratio is exact by
    construction.
    """
    if replications < 1:
        raise ValueError("need at least 1 replication")
    confidence_interval(0.0, 0.0, confidence)  # a bad one fails before any replication
    methods = ("clt", "chebyshev")
    hits = {method: 0 for method in methods}
    radius_sum = {method: 0.0 for method in methods}
    for report in _replicate(model, payoff, plan, master_seed, replications, threads):
        for method in methods:
            lo, hi = confidence_interval(
                report.estimate, report.standard_error, confidence, method
            )
            if lo <= true_value <= hi:
                hits[method] += 1
            radius_sum[method] += 0.5 * (hi - lo)
    return CoverageReport(
        replications=replications,
        confidence=confidence,
        coverage={k: hits[k] / replications for k in hits},
        mean_radius={k: radius_sum[k] / replications for k in radius_sum},
    )
