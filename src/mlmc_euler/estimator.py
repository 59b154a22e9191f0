"""Multilevel Monte Carlo estimation of E f(X_T) under the Euler scheme.

The estimator telescopes over refinement levels: a crude one-step term
plus, for each level l = 1..L with n = m**L, the mean of coupled
fine/coarse payoff differences at step counts m**l and m**(l-1).  All
levels draw from disjoint key ranges, so the L + 1 partial estimators
are independent and their variances add.

Two sample-size allocations are provided.  ``plan_bak`` spreads the
statistical budget n**(2 alpha) (m - 1) T sum(a) / (m**l a_l) across
levels with tunable positive weights a (all-ones weights are optimal
for the asymptotic cost constant); its level-0 size is
n**(2 alpha) log(n)**beta0.  ``plan_giles`` uses the classical
2 c2 n**(2 alpha) (L + 1) T / m**l schedule on every level including 0.
Costs are counted in Euler sub-steps: a level-l coupled path costs
m**l + m**(l-1), a one-step path costs 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .models import Payoff, SdeModel
from .paths import (
    DOMAIN_PILOT,
    DOMAIN_SINGLE,
    EulerDivergedError,
    _coupled_tasks,
    _run_tasks,
    _single_tasks,
    coupled_terminals,  # unused here, but perfbench/spans.py rebinds this name
    single_terminals,
)

__all__ = [
    "MlmcPlan",
    "LevelStats",
    "EstimateReport",
    "plan_bak",
    "plan_giles",
    "estimate",
    "complexity",
    "optimal_m_scan",
]


@dataclass(frozen=True)
class MlmcPlan:
    """Frozen sample-size schedule for one multilevel run.

    ``sample_sizes`` has L + 1 entries: index 0 is the crude one-step
    estimator, index l >= 1 the level-l coupled estimator.  A plan holds
    only the parameters its allocator read: a bak plan its weights
    a_1..a_L and ``beta0``, a giles plan its ``c2``; the others are None.
    """

    m: int
    n: int
    alpha: float
    levels: int
    horizon: float
    sample_sizes: Tuple[int, ...]
    allocator: str
    weights: Optional[Tuple[float, ...]] = None
    beta0: Optional[float] = None
    c2: Optional[float] = None

    def __post_init__(self):
        if len(self.sample_sizes) != self.levels + 1:
            raise ValueError("need one sample size per level including level 0")
        if any(size < 2 for size in self.sample_sizes):
            raise ValueError(
                "allocation produced a level with fewer than 2 samples; "
                "increase n or adjust weights"
            )

    def to_json_dict(self) -> dict:
        out = {
            "allocator": self.allocator,
            "m": self.m,
            "n": self.n,
            "alpha": self.alpha,
            "levels": self.levels,
            "horizon": self.horizon,
            "sample_sizes": list(self.sample_sizes),
        }
        if self.allocator == "bak":
            out.update(weights=list(self.weights), beta0=self.beta0)
        else:
            out["c2"] = self.c2
        return out


@dataclass(frozen=True)
class LevelStats:
    """Moments of one level's sampled payoff terms.

    ``variance`` is the unbiased (ddof = 1) sample variance and
    ``third_abs_moment`` the mean cubed absolute deviation from the
    level mean.  ``cost`` counts Euler sub-steps over all paths.
    """

    level: int
    count: int
    mean: float
    variance: float
    third_abs_moment: float
    cost: int


@dataclass(frozen=True)
class EstimateReport:
    """Result of one multilevel run.

    ``standard_error`` is sqrt(sum variance_l / N_l) over all levels.
    ``bias_proxy`` is a Richardson diagnostic: the difference of crude
    means at resolutions n and n/m scaled by m**alpha/(m**alpha - 1),
    or None when the pilot was skipped.  ``total_cost`` counts only the
    estimator's own paths (the bias pilot is excluded).
    """

    estimate: float
    standard_error: float
    confidence_interval: Tuple[float, float]
    confidence: float
    ci_method: str
    bias_proxy: Optional[float]
    level_stats: Tuple[LevelStats, ...]
    total_cost: int
    plan: MlmcPlan

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "standard_error": self.standard_error,
            "confidence_interval": list(self.confidence_interval),
            "confidence": self.confidence,
            "ci_method": self.ci_method,
            "bias_proxy": self.bias_proxy,
            "total_cost": self.total_cost,
            "plan": self.plan.to_json_dict(),
            "levels": [
                {
                    "level": s.level,
                    "count": s.count,
                    "mean": s.mean,
                    "variance": s.variance,
                    "third_abs_moment": s.third_abs_moment,
                    "cost": s.cost,
                }
                for s in self.level_stats
            ],
        }


def _depth_of(n: int, m: int) -> int:
    """L with m**L == n, rejecting n that is not an exact power of m."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if n < m:
        raise ValueError("n must be at least m")
    depth = round(math.log(n) / math.log(m))
    if m**depth != n:
        raise ValueError("n must be an exact power of m")
    return depth


def _validate_common(alpha: float, horizon: float):
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")


def plan_bak(
    n: int,
    m: int,
    alpha: float,
    horizon: float = 1.0,
    weights: Optional[Sequence[float]] = None,
    beta0: float = 1.9,
) -> MlmcPlan:
    """Weighted allocation with a separately sized crude level.

    Level l >= 1 receives ceil(n**(2 alpha) (m-1) T sum(a) / (m**l a_l))
    samples and level 0 receives ceil(n**(2 alpha) log(n)**beta0).
    Natural logarithms throughout.  Rejects any level that would get
    fewer than 2 samples.
    """
    _validate_common(alpha, horizon)
    depth = _depth_of(n, m)
    if weights is None:
        weights = (1.0,) * depth
    weights = tuple(float(w) for w in weights)
    if len(weights) != depth:
        raise ValueError("need exactly one weight per coupled level (L = %d)" % depth)
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if not 0.0 < beta0 <= 2.0:
        raise ValueError("beta0 must lie in (0, 2]")

    budget = n ** (2.0 * alpha)
    weight_sum = sum(weights)
    sizes = [math.ceil(budget * math.log(n) ** beta0)]
    for lvl in range(1, depth + 1):
        sizes.append(
            math.ceil(budget * (m - 1) * horizon * weight_sum / (m**lvl * weights[lvl - 1]))
        )
    return MlmcPlan(
        m=m,
        n=n,
        alpha=alpha,
        levels=depth,
        horizon=horizon,
        sample_sizes=tuple(sizes),
        allocator="bak",
        weights=weights,
        beta0=beta0,
    )


def plan_giles(
    n: int,
    m: int,
    alpha: float,
    horizon: float = 1.0,
    c2: float = 1.0,
) -> MlmcPlan:
    """Classical uniform-decay allocation.

    Every level l = 0..L receives ceil(2 c2 n**(2 alpha) (L + 1) T / m**l)
    samples, where L + 1 counts the estimators in the telescope.
    """
    _validate_common(alpha, horizon)
    if not c2 > 0.0:
        raise ValueError("c2 must be positive")
    depth = _depth_of(n, m)
    budget = n ** (2.0 * alpha)
    sizes = [
        math.ceil(2.0 * c2 * budget * (depth + 1) * horizon / m**lvl)
        for lvl in range(depth + 1)
    ]
    return MlmcPlan(
        m=m,
        n=n,
        alpha=alpha,
        levels=depth,
        horizon=horizon,
        sample_sizes=tuple(sizes),
        allocator="giles",
        c2=c2,
    )


def complexity(plan: MlmcPlan) -> int:
    """Total Euler sub-steps the plan will consume."""
    total = plan.sample_sizes[0]
    for lvl in range(1, plan.levels + 1):
        total += plan.sample_sizes[lvl] * (plan.m**lvl + plan.m ** (lvl - 1))
    return total


def asymptotic_cost_constant(m: int, horizon: float = 1.0) -> float:
    """Leading coefficient of the coupled-level cost, (m**2 - 1) T / (m log(m)**2).

    The all-ones plan_bak coupled levels cost exactly this constant times
    n**(2 alpha) log(n)**2, up to integer rounding of sample sizes.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    return (m**2 - 1) * horizon / (m * math.log(m) ** 2)


def optimal_m_scan(
    horizon: float = 1.0,
    m_values: Sequence[int] = tuple(range(2, 13)),
) -> Tuple[Tuple[Tuple[int, float], ...], int]:
    """Tabulate the asymptotic cost constant per refinement factor.

    Returns (rows, m_star) where rows are (m, constant) pairs and m_star
    attains the minimum.  The constant is (m**2 - 1) T / (m log(m)**2);
    its minimizer over integers is insensitive to n and alpha, which
    only scale every row by the common factor n**(2 alpha) log(n)**2.
    """
    rows = tuple((int(m), asymptotic_cost_constant(int(m), horizon)) for m in m_values)
    if not rows:
        raise ValueError("m_values must be non-empty")
    m_star = min(rows, key=lambda row: row[1])[0]
    return rows, m_star


def _level_statistics(values: np.ndarray, level: int, cost_per_path: int) -> LevelStats:
    count = values.shape[0]
    mean = float(np.mean(values))
    variance = float(np.var(values, ddof=1))
    # computed in place: at level 0 each temporary is as large as the level
    centered = values - mean
    np.abs(centered, out=centered)
    third = float(np.mean(np.power(centered, 3, out=centered)))
    return LevelStats(
        level=level,
        count=count,
        mean=mean,
        variance=variance,
        third_abs_moment=third,
        cost=count * cost_per_path,
    )


def estimate(
    model: SdeModel,
    payoff: Payoff,
    plan: MlmcPlan,
    master_seed: int,
    replication: int = 0,
    threads: int = 1,
    confidence: float = 0.9,
    ci_method: str = "clt",
    bias_pilot: int = 4096,
) -> EstimateReport:
    """Run the multilevel estimator described by ``plan``.

    Each level (and the Richardson bias pilot) owns a disjoint key
    range derived from (master_seed, replication), so results are
    independent of thread count and identical across reruns.  The chunks
    of all L + 1 levels run on one pool of ``threads`` workers; each
    level is reduced on the calling thread, in level order, as soon as
    its chunks are done.  Setting ``bias_pilot`` to 0 skips the pilot
    and reports bias_proxy = None.
    """
    if not math.isclose(plan.horizon, model.horizon, rel_tol=1e-12):
        raise ValueError("plan horizon does not match the model horizon")
    from .diagnostics import confidence_interval  # deferred: diagnostics imports this module

    outputs = []
    tasks = []
    for lvl in range(plan.levels + 1):
        if lvl == 0:
            out, level_tasks = _single_tasks(
                model, 1, plan.sample_sizes[0], master_seed,
                slot=0, replication=replication, first_path=0, domain=DOMAIN_SINGLE,
            )
        else:
            out, level_tasks = _coupled_tasks(
                model, lvl, plan.m, plan.sample_sizes[lvl], master_seed,
                replication=replication, first_path=0,
            )
        outputs.append(out)
        tasks.append(level_tasks)

    stats = []

    def reduce(lvl):
        if lvl == 0:
            values, cost_per_path = payoff.value(outputs[0]), 1
        else:
            fine, coarse = outputs[lvl]
            values = payoff.value(fine) - payoff.value(coarse)
            cost_per_path = plan.m**lvl + plan.m ** (lvl - 1)
        outputs[lvl] = None
        stats.append(_level_statistics(values, lvl, cost_per_path))

    try:
        _run_tasks(tasks, threads, reduce)
    except EulerDivergedError as exc:
        # levels are awaited in order, so the failing one is the next to reduce
        raise EulerDivergedError(exc.step_index, exc.path_index, level=len(stats)) from None

    point = float(sum(s.mean for s in stats))
    se = math.sqrt(sum(s.variance / s.count for s in stats))
    interval = confidence_interval(point, se, confidence, ci_method)

    proxy = None
    if bias_pilot > 0:
        fine_mean = float(
            np.mean(
                payoff.value(
                    single_terminals(
                        model,
                        plan.n,
                        bias_pilot,
                        master_seed,
                        slot=plan.n,
                        replication=replication,
                        threads=threads,
                        domain=DOMAIN_PILOT,
                    )
                )
            )
        )
        coarse_mean = float(
            np.mean(
                payoff.value(
                    single_terminals(
                        model,
                        plan.n // plan.m,
                        bias_pilot,
                        master_seed,
                        slot=plan.n // plan.m,
                        replication=replication,
                        threads=threads,
                        domain=DOMAIN_PILOT,
                    )
                )
            )
        )
        gain = plan.m**plan.alpha
        proxy = (fine_mean - coarse_mean) * gain / (gain - 1.0)

    return EstimateReport(
        estimate=point,
        standard_error=se,
        confidence_interval=interval,
        confidence=confidence,
        ci_method=ci_method,
        bias_proxy=proxy,
        level_stats=tuple(stats),
        total_cost=sum(s.cost for s in stats),
        plan=plan,
    )
