"""The benchmark workloads.

All of them simulate GBM and reach the package through its public API.
Each workload states one pass of fixed work, the Euler sub-steps that
pass costs, its unit operation, the exact oracle every output is checked
against, a reduced instance for the thread-invariance check, and a small
warm call.

Why these four: each uses a part of the code the others bypass, so a
change aimed at one layer should move one workload and leave another
flat.

* ``mlmc_estimate`` is the paper's headline operation at n = 512.  Level
  0 is 8.5M one-draw paths (padding waste); levels 5-9 are one chunk
  each (idle cores).
* ``crude_baseline`` is single-resolution Euler at n = 512: long paths,
  no padding waste, already parallel.  Normal generation and the Euler
  recursion dominate it.
* ``clt_replication`` is the paper's replication check at n = 64:
  ``run_clt_experiment`` calls ``estimate`` 40 times per pass, about 21 ms
  each, so per-call overhead and the ``diagnostics`` layer show.
* ``limit_variance`` is the only workload that runs the limit law's
  transport and accumulator recursion, its second random stream and the
  model Jacobians.

The workloads look up package functions on the ``mlmc_euler`` namespace
at call time, so that ``spans.traced_package`` and the unit-call timer
in ``run.py`` reach them by rebinding module attributes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
from typing import List, Optional

import numpy as np

import mlmc_euler as me
from mlmc_euler import diagnostics

# Oracle bands, in standard errors.  Every estimate here is unbiased for
# its exact target, so a miss beyond 5 SE has probability below 6e-7.
# The t statistic of 40 replications (39 degrees of freedom) gets 6, for
# a false miss below 6e-7 too.
K_SE = 5.0
K_T = 6.0
E_HALF = math.e / 2.0


def gbm(x0: float, mu: float, vol: float, horizon: float, rec=None) -> me.SdeModel:
    """``make_gbm``, with its coefficients counted by ``rec`` when given."""
    model = me.make_gbm(x0, mu, vol, horizon)
    if rec is None:
        return model
    wrap = rec.coeff.wrap
    return dataclasses.replace(
        model,
        drift=wrap(model.drift),
        diffusion=wrap(model.diffusion),
        drift_jacobian=wrap(model.drift_jacobian),
        diffusion_jacobians=tuple(wrap(j) for j in model.diffusion_jacobians),
    )


def identity_payoff(rec=None) -> me.Payoff:
    """``identity_payoff``, with its calls counted by ``rec`` when given."""
    payoff = me.identity_payoff()
    if rec is None:
        return payoff
    wrap = rec.payoff.wrap
    return dataclasses.replace(payoff, value=wrap(payoff.value), gradient=wrap(payoff.gradient))


def _euler_mean(x0: float, mu: float, horizon: float, n: int) -> float:
    """E X^n_T for GBM under Euler: x0 (1 + mu T / n)^n exactly."""
    return x0 * (1.0 + mu * horizon / n) ** n


def _within(value: float, target: float, se: float, k: float = K_SE) -> bool:
    return bool(np.isfinite(value) and np.isfinite(se) and abs(value - target) <= k * se)


class Workload:
    """One set of inputs, derived from the workload seed.

    ``run_pass`` does one pass of fixed work and returns a list of check
    outcomes (True = correct); with a recorder ``rec`` it builds counted
    models and payoffs.  Pass ``index`` selects fresh replication keys, so
    no two passes of a run repeat the same random numbers.  ``unit_site``
    is the (module, attribute) through which the unit operation is
    called; its calls are the ones timed for the latency metrics.
    """

    name = ""
    unit = ""
    unit_site = (me, "")

    def __init__(self, seed: int):
        words = np.random.SeedSequence([seed, 0x6D6C6D63]).generate_state(2, np.uint64)
        self.master_seed = int(words[0])
        self.rep_offset = int(words[1] >> np.uint64(40))

    def pass_seed(self, index: int) -> int:
        return (self.master_seed + index) % (1 << 64)

    def substeps_per_pass(self) -> int:
        raise NotImplementedError

    def warm(self, threads: int) -> None:
        raise NotImplementedError

    def run_pass(self, rec, threads: int, index: int) -> List[bool]:
        raise NotImplementedError

    def invariance_result(self, threads: int) -> Optional[bytes]:
        """Bytes of a reduced instance's result arrays, or None on an oracle miss."""
        raise NotImplementedError


class MlmcEstimate(Workload):
    name = "mlmc_estimate"
    unit = "estimate(plan_bak(512, 2, 1.0), bias_pilot=0)"
    unit_site = (me, "estimate")
    N, X0, MU, VOL = 512, 1.0, 0.05, 0.2

    def __init__(self, seed):
        super().__init__(seed)
        self.plan = me.plan_bak(self.N, 2, 1.0)

    def substeps_per_pass(self):
        return me.complexity(self.plan)

    def _estimate(self, rec, threads, plan, seed, replication=0):
        return me.estimate(
            gbm(self.X0, self.MU, self.VOL, 1.0, rec), identity_payoff(rec), plan, seed,
            replication=replication, threads=threads, bias_pilot=0,
        )

    def warm(self, threads):
        self._estimate(None, threads, me.plan_bak(16, 2, 1.0), self.master_seed)

    def _checked(self, report) -> bool:
        target = _euler_mean(self.X0, self.MU, 1.0, report.plan.n)
        finite = all(np.isfinite([s.mean, s.variance]).all() for s in report.level_stats)
        return finite and _within(report.estimate, target, report.standard_error)

    def run_pass(self, rec, threads, index):
        report = self._estimate(rec, threads, self.plan, self.pass_seed(index), self.rep_offset)
        return [self._checked(report)]

    def invariance_result(self, threads):
        # n = 128 puts 330k paths, six chunks, on level 0.
        report = self._estimate(
            None, threads, me.plan_bak(128, 2, 1.0), self.master_seed, self.rep_offset
        )
        if not self._checked(report):
            return None
        levels = np.array([[s.mean, s.variance, s.third_abs_moment] for s in report.level_stats])
        return levels.tobytes() + np.array([report.estimate, report.standard_error]).tobytes()


class CrudeBaseline(Workload):
    name = "crude_baseline"
    unit = "single_terminals(n=512, 65536 paths)"
    unit_site = (me, "single_terminals")
    N, PATHS = 512, 65536
    X0, MU, VOL = 1.0, 0.05, 0.2

    def substeps_per_pass(self):
        return self.PATHS * self.N

    def _terminals(self, rec, threads, paths, replication):
        return me.single_terminals(
            gbm(self.X0, self.MU, self.VOL, 1.0, rec), self.N, paths, self.master_seed,
            replication=replication, threads=threads,
        )

    def warm(self, threads):
        self._terminals(None, threads, 256, 0)

    def _checked(self, terminals: np.ndarray) -> bool:
        x = terminals[:, 0]
        if not np.isfinite(x).all():
            return False
        se = float(np.std(x, ddof=1)) / math.sqrt(x.shape[0])
        return _within(float(np.mean(x)), _euler_mean(self.X0, self.MU, 1.0, self.N), se)

    def run_pass(self, rec, threads, index):
        return [self._checked(self._terminals(rec, threads, self.PATHS, self.rep_offset + index))]

    def invariance_result(self, threads):
        # 16384 paths of 512 draws are two chunks.
        x = self._terminals(None, threads, 16384, self.rep_offset)
        return x.tobytes() if self._checked(x) else None


class CltReplication(Workload):
    name = "clt_replication"
    unit = "estimate(plan_bak(64, 2, 1.0), bias_pilot=0) inside run_clt_experiment"
    unit_site = (diagnostics, "estimate")
    N, REPLICATIONS = 64, 40

    def __init__(self, seed):
        super().__init__(seed)
        self.plan = me.plan_bak(self.N, 2, 1.0)

    def substeps_per_pass(self):
        return self.REPLICATIONS * me.complexity(self.plan)

    def _experiment(self, rec, threads, plan, replications, seed):
        # criterion 7's model: with mu = 0, E X^n_T = 1 exactly at every n
        return me.run_clt_experiment(
            gbm(1.0, 0.0, 1.0, 1.0, rec), identity_payoff(rec), plan, replications, 1.0, seed,
            threads=threads,
        )

    def warm(self, threads):
        self._experiment(None, threads, me.plan_bak(16, 2, 1.0), 2, self.master_seed)

    @staticmethod
    def _checked(exp) -> bool:
        errors = exp.standardized_errors
        if not np.isfinite(errors).all():
            return False
        # The scaled errors n^alpha (Q - 1) have mean 0: a t statistic.
        se = math.sqrt(exp.sample_variance / errors.size)
        return _within(exp.sample_mean, 0.0, se, K_T)

    def run_pass(self, rec, threads, index):
        exp = self._experiment(rec, threads, self.plan, self.REPLICATIONS, self.pass_seed(index))
        return [self._checked(exp)]

    def invariance_result(self, threads):
        # The pass's 40 replications, so the same t band holds, at n = 16.
        # Every level is one chunk at n = 16 as at n = 64.
        exp = self._experiment(
            None, threads, me.plan_bak(16, 2, 1.0), self.REPLICATIONS, self.pass_seed(self.rep_offset)
        )
        return exp.standardized_errors.tobytes() if self._checked(exp) else None


class LimitVariance(Workload):
    name = "limit_variance"
    unit = "estimate_limit_variance(1024 steps, 20000 draws)"
    unit_site = (me, "estimate_limit_variance")
    STEPS, SAMPLES = 1024, 20000

    def substeps_per_pass(self):
        return self.STEPS * self.SAMPLES

    def _variance(self, rec, threads, samples, steps, replication):
        config = me.LimitSimConfig(
            samples=samples, master_seed=self.master_seed, n_steps=steps,
            replication=replication, threads=threads,
        )
        return me.estimate_limit_variance(gbm(1.0, 0.0, 1.0, 1.0, rec), identity_payoff(rec), config)

    def warm(self, threads):
        self._variance(None, threads, 256, 64, 0)

    def run_pass(self, rec, threads, index):
        s2, se = self._variance(rec, threads, self.SAMPLES, self.STEPS, self.rep_offset + index)
        # criterion 4's closed-form sd of the sample variance at R draws
        r = self.SAMPLES
        exact_sd = math.sqrt((3.0 * math.e**6 / 4.0 - E_HALF**2 * (r - 3) / (r - 1)) / r)
        # Self-normalised: the draws y = X_T B_T / sqrt(2) have a heavy
        # right tail, and one large draw inflates the moment-based se along
        # with s2.  In 20000 exact replications at R = 20000 the statistic
        # (s2 - e/2) / max(se, exact_sd) stayed within [-2.4, 2.9].
        return [_within(s2, E_HALF, max(se, exact_sd))]

    def invariance_result(self, threads):
        # 4096 draws of 2 * 1024 normals are two chunks.
        x, u = me.limit_draws(
            gbm(1.0, 0.0, 1.0, 1.0), self.STEPS, 4096, self.master_seed,
            replication=self.rep_offset, threads=threads,
        )
        # For GBM the limit draw is u = vol^2 X_T B_T / sqrt(2) with B_T ~ N(0, T)
        # a sum of the B-stream increments, so u / x is exactly N(0, 1/2).
        ratio = u[:, 0] / x[:, 0]
        sd_of_var = 0.5 * math.sqrt(2.0 / (ratio.size - 1))
        ok = np.isfinite(ratio).all() and _within(float(np.var(ratio, ddof=1)), 0.5, sd_of_var)
        return x.tobytes() + u.tobytes() if ok else None


WORKLOADS = {w.name: w for w in (MlmcEstimate, CrudeBaseline, CltReplication, LimitVariance)}


def fingerprint() -> str:
    """sha256 of the stdout of ``mlmc-euler estimate --n 64 --seed 0``."""
    from mlmc_euler import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["estimate", "--n", "64", "--seed", "0"])
    if code != 0:
        return "exit %d" % code
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
