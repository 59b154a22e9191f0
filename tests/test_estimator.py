"""Allocation rules, cost accounting, m scan, and the estimator itself."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlmc_euler as me
from mlmc_euler.paths import EulerDivergedError

# (m**2 - 1) / (m (log m)**2) at m = 2 and at the minimizer m = 7
COST_CONSTANT_M2 = 3.122053471508412
COST_CONSTANT_M7 = 1.81091318599116


def ceil_bak_size(n, m, alpha, horizon, weights, level):
    total = sum(weights)
    return math.ceil(
        n ** (2 * alpha) * (m - 1) * horizon * total / (m**level * weights[level - 1])
    )


# ------------------------------------------------------------- plans


def test_plan_bak_reference_table():
    plan = me.plan_bak(16, 2, 1.0)
    assert plan.levels == 4
    assert plan.sample_sizes[1:] == (512, 256, 128, 64)
    # level 0 under the default n^(2 alpha) (log n)^1.9 rule
    assert plan.sample_sizes[0] == 1778
    assert plan.sample_sizes[0] == math.ceil(256 * math.log(16) ** 1.9)


def test_plan_bak_weighted_level0_rule():
    plan = me.plan_bak(16, 2, 1.0, level0_rule="weighted")
    assert plan.sample_sizes[0] == 1024
    assert plan.sample_sizes[1:] == (512, 256, 128, 64)


def test_plan_giles_reference_table():
    plan = me.plan_giles(16, 2, 1.0, c2=1.0)
    assert plan.sample_sizes == (2560, 1280, 640, 320, 160)


def test_plan_rejects_non_power():
    with pytest.raises(ValueError, match="power of m"):
        me.plan_bak(15, 2, 1.0)
    with pytest.raises(ValueError, match="power of m"):
        me.plan_giles(12, 5, 1.0)


def test_plan_rejects_bad_alpha_and_horizon():
    with pytest.raises(ValueError):
        me.plan_bak(16, 2, 0.0)
    with pytest.raises(ValueError):
        me.plan_bak(16, 2, 1.0, horizon=-1.0)


def test_plan_bak_custom_weights_follow_closed_form():
    weights = [1.0, 2.0, 0.5, 4.0]
    plan = me.plan_bak(16, 2, 1.0, weights=weights)
    for lv in range(1, 5):
        assert plan.sample_sizes[lv] == ceil_bak_size(16, 2, 1.0, 1.0, weights, lv)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(2, 5),
    depth=st.integers(1, 5),
    alpha=st.sampled_from([0.5, 0.75, 1.0]),
)
def test_plan_invariants(m, depth, alpha):
    n = m**depth
    for make in (me.plan_bak, me.plan_giles):
        try:
            plan = make(n, m, alpha)
        except ValueError:
            # small budgets may not afford 2 samples per level; refusing
            # with an error (rather than silently padding) is the contract
            continue
        assert plan.levels == depth
        assert len(plan.sample_sizes) == depth + 1
        assert all(size >= 2 for size in plan.sample_sizes)
        # correction levels get cheaper as they get finer
        assert all(
            plan.sample_sizes[i] >= plan.sample_sizes[i + 1]
            for i in range(1, depth)
        )


def test_complexity_reference_values():
    assert me.complexity(me.plan_bak(16, 2, 1.0)) == 7922
    assert me.complexity(me.plan_giles(16, 2, 1.0)) == 17920


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 4), depth=st.integers(1, 4))
def test_complexity_counts_fine_plus_coarse_steps(m, depth):
    plan = me.plan_bak(m**depth, m, 1.0)
    expect = plan.sample_sizes[0]
    for lv in range(1, depth + 1):
        expect += plan.sample_sizes[lv] * (m**lv + m ** (lv - 1))
    assert me.complexity(plan) == expect


def test_complexity_tracks_the_asymptotic_constant():
    # excluding the level-0 block, cost / (n^2 (log n / log m)^2) settles
    # near the scan constant (m - 1) T (L + 1) Sigma 1/m^l ~ constant
    m, depth = 2, 8
    n = m**depth
    plan = me.plan_bak(n, m, 1.0)
    correction_cost = me.complexity(plan) - plan.sample_sizes[0]
    predicted = (
        n**2 * (math.log(n) / math.log(m)) ** 2 * (m + 1) * (m - 1) / m
    )
    assert correction_cost == pytest.approx(predicted, rel=0.05)


# -------------------------------------------------------------- m scan


def test_m_scan_constants_and_minimizer():
    table, best = me.optimal_m_scan()
    assert best == 7
    values = dict(table)
    assert values[2] == pytest.approx(COST_CONSTANT_M2, rel=1e-12)
    assert values[7] == pytest.approx(COST_CONSTANT_M7, rel=1e-12)
    assert min(values, key=values.get) == 7


def test_asymptotic_cost_constant_formula():
    for m in (2, 3, 7, 12):
        expect = (m**2 - 1) / (m * math.log(m) ** 2)
        assert me.asymptotic_cost_constant(m) == pytest.approx(expect, rel=1e-12)


# ------------------------------------------------------ variance bound


def test_variance_upper_bound_dominates_measured_variance():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    pay = me.identity_payoff()
    plan = me.plan_bak(64, 2, 1.0)
    report = me.estimate(model, pay, plan, 0, bias_pilot=0)
    measured = sum(
        stat.variance / stat.count for stat in report.level_stats
    )
    bound = me.variance_upper_bound(
        plan, lipschitz_hint=1.0, strong_error_constant=0.25
    )
    assert bound >= measured
    assert bound < 1.0  # and it is not vacuous at this scale


# ----------------------------------------------------------- estimate


def test_estimate_zero_volatility_is_exact():
    # the telescoped sum collapses to f(X^n) with zero variance
    model = me.make_gbm(1.0, 0.05, 0.0, 1.0)
    plan = me.plan_bak(16, 2, 1.0)
    report = me.estimate(model, me.identity_payoff(), plan, 0)
    expect = (1.0 + 0.05 / 16) ** 16
    assert report.estimate == pytest.approx(expect, rel=1e-14)
    # identical per-path values leave only division dust in the moments
    assert report.standard_error < 1e-15
    lo, hi = report.confidence_interval
    assert lo == pytest.approx(report.estimate, rel=1e-14)
    assert hi == pytest.approx(report.estimate, rel=1e-14)
    # Richardson proxy from the (n, n/m) pilot pair at gain m**alpha
    coarser = (1.0 + 0.05 / 8) ** 8
    assert report.bias_proxy == pytest.approx(2.0 * (expect - coarser), rel=1e-9)


def test_estimate_matches_analytic_mean_within_four_se():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    plan = me.plan_bak(64, 2, 1.0)
    report = me.estimate(model, me.identity_payoff(), plan, 0, bias_pilot=0)
    truth = me.gbm_identity_reference(1.0, 0.05, 0.2, 1.0).exact_expectation
    # bias at n=64 is ~2e-5, well inside the statistical band
    assert abs(report.estimate - truth) < 4.0 * report.standard_error


def test_estimate_report_structure():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    plan = me.plan_bak(16, 2, 1.0)
    report = me.estimate(model, me.identity_payoff(), plan, 3, bias_pilot=0)
    assert report.total_cost == me.complexity(plan)
    assert len(report.level_stats) == plan.levels + 1
    for lv, stat in enumerate(report.level_stats):
        assert stat.level == lv
        assert stat.count == plan.sample_sizes[lv]
        assert stat.variance >= 0.0
        assert stat.third_abs_moment >= 0.0
    lo, hi = report.confidence_interval
    assert lo <= report.estimate <= hi


def test_estimate_is_deterministic_across_threads():
    # level 0 spans several chunks and the top levels one chunk each, so the
    # pool runs chunks of different levels side by side
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    plan = me.plan_bak(128, 2, 1.0)
    reports = [
        me.estimate(model, me.identity_payoff(), plan, 0, threads=threads).to_json_dict()
        for threads in (1, 2, 8)
    ]
    assert reports[0] == reports[1] == reports[2]
    assert len(reports[0]["levels"]) == plan.levels + 1


def test_estimate_replications_are_independent_streams():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    plan = me.plan_bak(16, 2, 1.0)
    a = me.estimate(model, me.identity_payoff(), plan, 0, replication=0, bias_pilot=0)
    b = me.estimate(model, me.identity_payoff(), plan, 0, replication=1, bias_pilot=0)
    assert a.estimate != b.estimate


def test_chebyshev_interval_is_wider_than_clt():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    plan = me.plan_bak(16, 2, 1.0)
    clt = me.estimate(model, me.identity_payoff(), plan, 0, ci_method="clt")
    che = me.estimate(model, me.identity_payoff(), plan, 0, ci_method="chebyshev")
    assert clt.estimate == che.estimate
    assert che.confidence_interval[1] - che.confidence_interval[0] > (
        clt.confidence_interval[1] - clt.confidence_interval[0]
    )


@pytest.mark.filterwarnings("ignore:overflow")
def test_estimate_divergence_carries_level_context():
    def drift(x):
        return 1e100 * x**5

    model = me.SdeModel(
        dim_state=1,
        dim_noise=1,
        initial=np.array([1.0]),
        horizon=1.0,
        drift=drift,
        diffusion=lambda x: np.zeros((x.shape[0], 1, 1)),
        drift_jacobian=lambda x: (5e100 * x**4)[:, :, None],
        diffusion_jacobians=(lambda x: np.zeros((x.shape[0], 1, 1)),),
    )
    plan = me.plan_bak(4, 2, 1.0)
    errors = []
    for threads in (1, 8):
        before = threading.active_count()
        with pytest.raises(EulerDivergedError) as err:
            me.estimate(model, me.identity_payoff(), plan, 0, threads=threads, bias_pilot=0)
        # the pool is shut down before the error propagates
        assert threading.active_count() == before
        errors.append((err.value.level, err.value.path_index, err.value.step_index))
        assert err.value.level == 1
        assert "level 1" in str(err.value)
    assert errors[0] == errors[1]
