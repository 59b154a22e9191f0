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
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .models import Payoff, SdeModel
from .paths import (
    DOMAIN_PILOT,
    EulerDivergedError,
    _level_tasks,
    _run_tasks,
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

    The moments are summed in one pass over fixed blocks of 2**16
    values, in block order.  The mean is the sum of the blocks'
    ``np.sum``, in block order, over the count, so its bits depend on
    neither chunks nor threads.  Each block adds its sums of u = v - K
    for a centre K fixed by block 0, its own mean.  A level of at most
    2**16 values is one block, so K is the mean and its moments have the
    bits of ``np.var(ddof=1)`` and the mean of ``np.power(|v - mean|, 3)``.
    A longer level's variance and third moment are expanded around K,
    exact but for rounding (about 1e-15 relative); a level whose mean
    falls outside block 0's window runs again, centred on its mean, and
    then has the bits of those formulas summed block by block.
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


def _path_cost(m: int, level: int) -> int:
    """Euler sub-steps of one level-``level`` path: 1 on level 0, m**l + m**(l-1) above."""
    return 1 if level == 0 else m**level + m ** (level - 1)


def complexity(plan: MlmcPlan) -> int:
    """Total Euler sub-steps the plan will consume."""
    return sum(size * _path_cost(plan.m, lvl) for lvl, size in enumerate(plan.sample_sizes))


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


# Values per block of a level's reduction.  The blocks do not depend on
# the chunk size or the thread count, so neither does the summation order.
_REDUCE_BLOCK = 1 << 16
# Half-width of a multi-block level's window, in standard errors of the
# mean of its block 0.  A level mean outside it makes the level run again.
_WINDOW_SE = 6.0


class _LevelReducer:
    """One level's moments from its payoff values, fed in path order.

    The values are reduced in blocks of 2**16, in block order; each block
    adds its ``np.sum`` to the level total, so the mean has the bits of
    those sums whatever the chunks were.  Block 0 fixes the centre K (its
    own mean, unless ``centre`` is given) and every block adds its sums
    of u = v - K.  A level of one block, or one fed with its own mean as
    ``centre``, sums u**2 and ``np.power(|u|, 3)`` only.

    A level of several blocks with its own centre also sums u, |u|,
    u |u|, sign(u) and u**2 |u|, and keeps, compressed by ``np.unique``,
    the values with |u| below the window w (``_WINDOW_SE`` standard errors
    of block 0's mean).  Outside the window the sign of v - mean is the
    sign of u whenever |mean - K| < w, so ``finish`` expands the centred
    moments in delta = mean - K and corrects them with the kept values.
    """

    def __init__(self, count: int, centre: Optional[float]):
        self.count = count
        self.centre = centre
        self.windowed = centre is None and count > _REDUCE_BLOCK
        self.fed = 0  # values handed to ``feed``
        self.reduced = 0  # values already in the sums
        self.pending = None  # the block being filled, when a chunk ends inside it
        self.filled = 0
        size = min(count, _REDUCE_BLOCK)
        self.u = np.empty(size)
        self.square = np.empty(size)
        self.magnitude = np.empty(size) if self.windowed else None
        self.total = self.sum_sq = self.sum_cube = 0.0
        self.window = None
        self.sum_u = self.sum_abs = self.sum_u_abs = 0.0
        self.sign_sum = 0
        self.kept = []

    def feed(self, values: np.ndarray) -> None:
        """Add the next ``values`` of the level, a 1-D float64 array."""
        a = 0
        while a < values.shape[0]:
            size = min(_REDUCE_BLOCK, self.count - self.reduced)
            if self.filled == 0 and values.shape[0] - a >= size:
                self._reduce(values[a : a + size])  # a whole block of the chunk
                a += size
                continue
            if self.pending is None:
                self.pending = np.empty(size)
            take = min(size - self.filled, values.shape[0] - a)
            self.pending[self.filled : self.filled + take] = values[a : a + take]
            self.filled += take
            a += take
            if self.filled == size:
                self._reduce(self.pending[:size])
                self.filled = 0
        self.fed += values.shape[0]

    def _reduce(self, v: np.ndarray) -> None:
        n = v.shape[0]
        self.total += np.sum(v)
        if self.centre is None:
            self.centre = self.total / n
        u = np.subtract(v, self.centre, out=self.u[:n])
        square = np.multiply(u, u, out=self.square[:n])
        self.sum_sq += np.sum(square)
        if not self.windowed:
            np.abs(u, out=u)
            self.sum_cube += np.sum(np.power(u, 3, out=u))
        else:
            if self.window is None:
                self.window = _WINDOW_SE * math.sqrt(self.sum_sq / (n - 1) / n)
            self.sum_u += np.sum(u)
            self.sign_sum += np.count_nonzero(u > 0) - np.count_nonzero(u < 0)
            magnitude = np.abs(u, out=self.magnitude[:n])
            self.sum_abs += np.sum(magnitude)
            near = v[magnitude < self.window]
            if near.size:
                self.kept.append(np.unique(near, return_counts=True))
            self.sum_u_abs += np.sum(np.multiply(u, magnitude, out=u))
            self.sum_cube += np.sum(np.multiply(square, magnitude, out=square))
        self.reduced += n

    @property
    def mean(self) -> float:
        return self.total / self.count

    def finish(self, level: int, cost_per_path: int) -> Optional[LevelStats]:
        """The level's ``LevelStats``, or None if its mean fell outside the window."""
        count = self.count
        mean = self.mean
        delta = mean - self.centre if self.windowed else 0.0
        sum_sq, sum_cube = self.sum_sq, self.sum_cube
        if delta != 0.0:
            if not abs(delta) < self.window:
                return None
            sum_sq += delta * (count * delta - 2.0 * self.sum_u)
            sum_cube += delta * (
                3.0 * delta * self.sum_abs - 3.0 * self.sum_u_abs - delta * delta * self.sign_sum
            )
            # the expansion took sign(u) for the sign of v - mean; mend the
            # kept values where the two differ
            for values, counts in self.kept:
                c = values - mean
                cube = c * c * c
                sum_cube += np.dot(counts, np.abs(cube) - np.sign(values - self.centre) * cube)
        return LevelStats(
            level=level,
            count=count,
            mean=float(mean),
            variance=float(sum_sq / (count - 1)),
            third_abs_moment=float(sum_cube / count),
            cost=count * cost_per_path,
        )


def _reduce_levels(
    model: SdeModel,
    payoff: Payoff,
    plan: MlmcPlan,
    master_seed: int,
    replication: int,
    threads: int,
    centres: Dict[int, Optional[float]],
) -> Dict[int, LevelStats]:
    """Simulate and reduce the levels that ``centres`` maps to a centre or None.

    Every chunk of those levels is one group of ``_run_tasks``.  A chunk
    hands its fresh payoff values over under its level and first path;
    the calling thread takes each group's values, in group order, and
    feeds them to its level's ``_LevelReducer``.  Levels run in order, so
    one reducer is open at a time.  A level whose window missed its mean
    runs again, centred on that mean: its keys, and so its values, are
    the same.  Returns each level's ``LevelStats``.
    """
    ready = {}

    def hand_over(level, a, b, fine, coarse=None):
        values = payoff.value(fine)
        if coarse is not None:
            values = values - payoff.value(coarse)
        # contiguous, so that a block's np.sum is the same whichever chunk it came in
        ready[level, a] = np.ascontiguousarray(values, dtype=np.float64)

    groups, owners = [], []
    for level in centres:
        tasks = _level_tasks(
            model, level, plan.m, plan.sample_sizes[level], master_seed, replication, 0,
            partial(hand_over, level),
        )
        groups += [[task] for task in tasks]
        owners += [level] * len(tasks)
    stats, again = {}, {}
    reducer, awaited = None, 0

    def done(i):
        nonlocal reducer, awaited
        level = owners[i]
        if reducer is None:
            reducer = _LevelReducer(plan.sample_sizes[level], centres[level])
        reducer.feed(ready.pop((level, reducer.fed)))
        if reducer.fed == reducer.count:
            stats[level] = reducer.finish(level, _path_cost(plan.m, level))
            if stats[level] is None:
                again[level] = reducer.mean
            reducer = None
        awaited = i + 1

    try:
        _run_tasks(groups, threads, done)
    except EulerDivergedError as exc:
        # groups are awaited in order, so the failing one is the next to reduce
        raise EulerDivergedError(exc.step_index, exc.path_index, level=owners[awaited]) from None
    if again:
        stats.update(_reduce_levels(model, payoff, plan, master_seed, replication, threads, again))
    return stats


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
    independent of thread count and identical across reruns; the level
    keys are set in ``paths._level_tasks``, which builds each level's
    chunks.  A bad ``confidence`` or ``ci_method`` is rejected before any
    path is drawn.  The chunks of all L + 1 levels run on one pool of
    ``threads`` workers.  Each chunk hands over its paths' payoff values,
    f(x) on level 0 and f(fine) - f(coarse) above, and the calling
    thread feeds them, in chunk order, into the level's blocks of 2**16
    values, reducing each block as soon as it is full (see
    ``LevelStats``); no terminal states and no level-sized array are
    kept.  A level whose mean misses block 0's window, which happens with
    probability about 2e-9, is simulated a second time.  Setting
    ``bias_pilot`` to 0 skips the pilot and reports bias_proxy = None.
    """
    if not math.isclose(plan.horizon, model.horizon, rel_tol=1e-12):
        raise ValueError("plan horizon does not match the model horizon")
    if bias_pilot < 0:
        raise ValueError("bias_pilot must be >= 0")
    from .diagnostics import confidence_interval  # deferred: diagnostics imports this module

    confidence_interval(0.0, 0.0, confidence, ci_method)  # bad ones fail before any path
    found = _reduce_levels(
        model, payoff, plan, master_seed, replication, threads,
        dict.fromkeys(range(plan.levels + 1)),
    )
    stats = [found[level] for level in range(plan.levels + 1)]

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
