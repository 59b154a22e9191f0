"""Intervals, KS statistics, brackets, replication studies."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import mlmc_euler as me
from mlmc_euler import diagnostics

# ---------------------------------------------------------- intervals


def test_confidence_interval_radii():
    # the radius is scipy's inverse normal CDF, the one the path sampler uses
    radius = scipy.special.ndtri(0.95) * 0.5
    assert me.confidence_interval(2.0, 0.5, 0.90, method="clt") == (2.0 - radius, 2.0 + radius)
    lo, hi = me.confidence_interval(2.0, 0.5, 0.90, method="chebyshev")
    assert hi - lo == pytest.approx(2.0 * 0.5 / math.sqrt(0.10), rel=1e-12)
    assert (lo + hi) / 2.0 == pytest.approx(2.0, rel=1e-12)


def test_radius_ratio_matches_tabulated_multipliers():
    clt = me.confidence_interval(0.0, 1.0, 0.90, method="clt")
    che = me.confidence_interval(0.0, 1.0, 0.90, method="chebyshev")
    ratio = che[1] / clt[1]
    assert round(ratio, 4) == round(3.1623 / 1.6449, 4) == 1.9225


@settings(max_examples=80, deadline=None)
@given(confidence=st.floats(0.01, 0.999))
def test_chebyshev_is_never_tighter_than_clt(confidence):
    clt = me.confidence_interval(0.0, 1.0, confidence, method="clt")
    che = me.confidence_interval(0.0, 1.0, confidence, method="chebyshev")
    assert che[1] >= clt[1]


def test_confidence_interval_rejects_bad_inputs():
    with pytest.raises(ValueError):
        me.confidence_interval(0.0, 1.0, 0.9, method="bootstrap")
    with pytest.raises(ValueError):
        me.confidence_interval(0.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        me.confidence_interval(0.0, -1.0, 0.9)


# --------------------------------------------------------------- KS


def test_ks_one_sample_matches_reference_implementation():
    rng = np.random.default_rng(5)
    for size in (3, 10, 101, 1000):
        samples = rng.normal(0.3, 1.4, size)
        mine = me.ks_statistic_one_sample(samples, scipy.stats.norm.cdf)
        ref = scipy.stats.kstest(samples, scipy.stats.norm.cdf).statistic
        assert mine == pytest.approx(ref, abs=1e-12)


def test_ks_two_sample_matches_reference_implementation():
    rng = np.random.default_rng(6)
    for na, nb in ((5, 7), (100, 50), (400, 400)):
        a = rng.normal(0.0, 1.0, na)
        b = rng.normal(0.2, 1.1, nb)
        mine = me.ks_statistic_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert mine == pytest.approx(ref, abs=1e-12)


def test_ks_two_sample_handles_ties():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 6, 200) / 2.0
    b = rng.integers(0, 6, 150) / 2.0
    mine = me.ks_statistic_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert mine == pytest.approx(ref, abs=1e-12)


def test_ks_identical_samples_is_zero():
    a = np.arange(10.0)
    assert me.ks_statistic_two_sample(a, a.copy()) == 0.0


# ----------------------------------------------------------- brackets


def test_bracket_time_integral_hand_values():
    assert me.bracket_time_integral_exact(4, 2, 1, 1) == Fraction(1, 16)
    assert me.bracket_time_integral_exact(3, 3, 1, 1) == Fraction(1, 9)
    assert me.bracket_time_integral_exact(8, 4, 1, 1) == Fraction(3, 64)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(2, 6), k=st.integers(0, 30))
def test_bracket_time_integral_exact_on_coarse_grid(n, m, k):
    horizon = Fraction(3, 2)
    k = min(k, n)
    t = Fraction(k, n) * horizon
    got = me.bracket_time_integral_exact(n, m, horizon, t)
    assert got == Fraction(m - 1, 1) * horizon * t / (2 * m * n)


def test_bracket_expectation_time_mode_is_exact_at_grid_times():
    est, target = me.bracket_expectation_check(4, 2, 1.0, 1.0)
    assert est == target == 0.0625


def test_bracket_expectation_brownian_mode_converges():
    est, target = me.bracket_expectation_check(
        64, 2, 1.0, 1.0, samples=20_000, master_seed=0, mode="brownian"
    )
    assert target == pytest.approx(1.0 / 256.0, rel=1e-12)
    assert est == pytest.approx(target, rel=0.03)


def test_bracket_brownian_mode_does_not_depend_on_threads():
    # 70000 paths of 8 fine steps span two chunks
    runs = [
        me.bracket_expectation_check(
            4, 2, 1.0, 1.0, samples=70_000, master_seed=3, mode="brownian", threads=threads
        )
        for threads in (1, 2)
    ]
    assert runs[0] == runs[1]


def test_bracket_expectation_check_validates_mode_and_samples():
    with pytest.raises(ValueError):
        me.bracket_expectation_check(4, 2, 1.0, 1.0, mode="exact")
    with pytest.raises(ValueError):
        me.bracket_expectation_check(4, 2, 1.0, 1.0, mode="brownian")


@pytest.mark.parametrize("mode", ["time", "brownian"])
@pytest.mark.parametrize(
    "n, m, horizon, t",
    [
        (0, 2, 1.0, 1.0),
        (4, 1, 1.0, 1.0),
        (4, 2, -1.0, -1.0),
        (4, 2, 0.0, 0.0),
        (4, 2, math.inf, 1.0),
        (4, 2, 1.0, 5.0),
        (4, 2, 1.0, -1.0),
    ],
)
def test_bracket_expectation_check_rejects_bad_inputs_before_drawing(
    monkeypatch, mode, n, m, horizon, t
):
    def no_draws(*args, **kwargs):
        raise AssertionError("paths drawn before the inputs were checked")

    monkeypatch.setattr(diagnostics, "normal_block", no_draws)
    with pytest.raises(ValueError):
        me.bracket_expectation_check(n, m, horizon, t, samples=100, mode=mode)


# ------------------------------------------------------ CLT and BE


def test_run_clt_experiment_shapes_and_degeneracy():
    model = me.make_gbm(1.0, 0.05, 0.0, 1.0)  # deterministic, degenerate
    plan = me.plan_bak(4, 2, 1.0)
    exp = me.run_clt_experiment(model, me.identity_payoff(), plan, 12, 1.0, 0)
    assert exp.degenerate
    assert exp.ks_statistic == 0.0
    assert exp.standardized_errors.shape == (12,)


def test_run_clt_experiment_stochastic_run_is_roughly_gaussian():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    plan = me.plan_bak(4, 2, 1.0)
    truth = (1.0 + 0.05 / 4) ** 4  # discrete-scheme mean, kills the bias term
    exp = me.run_clt_experiment(model, me.identity_payoff(), plan, 60, truth, 0)
    assert not exp.degenerate
    assert 0.0 < exp.ks_statistic < 0.2
    assert exp.sample_variance > 0.0


@pytest.mark.parametrize("sigma2", [-1.0, 0.0, math.nan])
def test_run_clt_experiment_rejects_bad_sigma2_before_replicating(monkeypatch, sigma2):
    calls = []
    monkeypatch.setattr(me.diagnostics, "estimate", lambda *a, **k: calls.append(a))
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    with pytest.raises(ValueError, match="sigma2"):
        me.run_clt_experiment(
            model, me.identity_payoff(), me.plan_bak(4, 2, 1.0), 500, 1.0, 0, sigma2=sigma2
        )
    assert calls == []


@pytest.mark.parametrize("confidence", [1.5, 0.0, -0.1])
def test_coverage_rejects_bad_confidence_before_replicating(monkeypatch, confidence):
    def no_run(*args, **kwargs):
        raise AssertionError("replicated before checking the confidence")

    monkeypatch.setattr(me.estimator, "_run_tasks", no_run)
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    with pytest.raises(ValueError, match="confidence"):
        me.coverage_experiment(
            model, me.identity_payoff(), me.plan_bak(4, 2, 1.0), 20, 1.0, confidence, 0
        )


def test_berry_esseen_hand_value_on_synthetic_stats():
    plan = me.plan_bak(16, 2, 1.0)
    stats = [
        me.LevelStats(
            level=0, count=100, mean=0.0, variance=2.0, third_abs_moment=5.0, cost=1
        )
    ]
    rep = me.berry_esseen(stats, plan)
    s2 = 16.0**2 * 2.0 / 100.0
    rho = 16.0**3 * 5.0 / 100.0**1.5
    assert rep.s_squared == pytest.approx(s2, rel=1e-12)
    assert rep.rho == pytest.approx(rho, rel=1e-12)
    assert rep.bound == pytest.approx(6.0 * rho / s2**1.5, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(scale=st.integers(2, 50))
def test_berry_esseen_bound_invariant_under_uniform_count_scaling(scale):
    plan = me.plan_bak(16, 2, 1.0)
    base = [
        me.LevelStats(0, 100, 0.0, 2.0, 5.0, 1),
        me.LevelStats(1, 50, 0.0, 1.0, 2.0, 3),
    ]
    scaled = [
        me.LevelStats(s.level, s.count * scale, s.mean, s.variance, s.third_abs_moment, s.cost)
        for s in base
    ]
    a = me.berry_esseen(base, plan)
    b = me.berry_esseen(scaled, plan)
    assert b.bound == pytest.approx(a.bound, rel=1e-9)
    assert b.s_squared == pytest.approx(a.s_squared / scale, rel=1e-12)


def test_berry_esseen_rejects_degenerate_statistics():
    plan = me.plan_bak(16, 2, 1.0)
    stats = [me.LevelStats(0, 100, 0.0, 0.0, 0.0, 1)]
    with pytest.raises(me.DegenerateStatisticsError):
        me.berry_esseen(stats, plan)


def test_coverage_degenerate_run_always_covers_its_own_value():
    model = me.make_gbm(1.0, 0.05, 0.0, 1.0)
    plan = me.plan_bak(8, 2, 1.0)
    truth = me.estimate(model, me.identity_payoff(), plan, 0, bias_pilot=0).estimate
    rep = me.coverage_experiment(model, me.identity_payoff(), plan, 5, truth, 0.9, 0)
    assert rep.coverage == {"clt": 1.0, "chebyshev": 1.0}
    assert rep.mean_radius["clt"] < 1e-14
