"""Limit process simulation and the two-level error distribution."""

import math

import numpy as np
import pytest

import mlmc_euler as me
from mlmc_euler import limit_law
from mlmc_euler.paths import DOMAIN_LIMIT_B, DOMAIN_LIMIT_W


def exact_scaled_two_level_variance(x0, mu, vol, horizon, m, level):
    """Closed-form m^l/((m-1)T) Var(fine - coarse) for the GBM Euler pair.

    Within one coarse step the fine leg multiplies by independent factors
    (1 + mu df + vol dW_i) and the coarse leg by (1 + mu dc + vol sum dW_i),
    so the joint second moments transfer per block with the constants below;
    terminal means are the usual binomial-compounding values.
    """
    nf, nc = m**level, m ** (level - 1)
    df, dc = horizon / nf, horizon / nc
    per_fine_sq = (1.0 + mu * df) ** 2 + vol * vol * df
    block_ff = per_fine_sq**m
    block_cc = (1.0 + mu * dc) ** 2 + vol * vol * dc
    block_fc = (1.0 + mu * dc) * (1.0 + mu * df) ** m + m * vol * vol * df * (
        1.0 + mu * df
    ) ** (m - 1)
    ef2 = x0 * x0 * block_ff**nc
    ec2 = x0 * x0 * block_cc**nc
    efc = x0 * x0 * block_fc**nc
    mean_gap = x0 * (1.0 + mu * df) ** nf - x0 * (1.0 + mu * dc) ** nc
    var = ef2 - 2.0 * efc + ec2 - mean_gap**2
    return m**level / ((m - 1) * horizon) * var


def test_zero_diffusion_limit_is_exactly_zero():
    model = me.make_gbm(1.0, 0.05, 0.0, 1.0)
    x, u = me.limit_draws(model, 32, 50, 0)
    np.testing.assert_array_equal(u, np.zeros((50, 1)))
    np.testing.assert_allclose(x[:, 0], (1.0 + 0.05 / 32) ** 32, rtol=1e-14)


def test_limit_draw_closed_form_identity():
    """At x0=1, mu=0, vol=1 transport and state coincide bitwise, so
    U_T equals X_T times the accumulated independent increments over
    sqrt(2); reconstruct that from the documented stream layout."""
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    steps, paths = 64, 64
    x, u = me.limit_draws(model, steps, paths, 11, replication=2)
    z = me.normal_block(11, DOMAIN_LIMIT_B, steps, 2, 0, paths, steps)
    db = math.sqrt(model.horizon / steps) * z
    acc = np.zeros(paths)
    for k in range(steps):
        acc = acc + db[:, k]
    np.testing.assert_array_equal(u[:, 0], x[:, 0] * acc / math.sqrt(2.0))


def test_transport_equals_scaled_state_for_gbm():
    # Z and X/x0 solve the same linear recursion, so the simulated U
    # equals X * B_T / sqrt(2) up to roundoff for any GBM parameters
    model = me.make_gbm(2.0, 0.1, 0.3, 1.5)
    steps, paths = 128, 500
    x, u = me.limit_draws(model, steps, paths, 3)
    z = me.normal_block(3, DOMAIN_LIMIT_B, steps, 0, 0, paths, steps)
    db = math.sqrt(model.horizon / steps) * z
    acc = np.zeros(paths)
    for k in range(steps):
        acc = acc + db[:, k]
    expect = 0.3 * 0.3 * x[:, 0] * acc / math.sqrt(2.0)
    np.testing.assert_allclose(u[:, 0], expect, rtol=1e-10)


def engine_increments(model, steps, paths, seed):
    """The step-major (dw, db) arrays that ``limit_draws`` feeds its engines, d = q = 1."""
    sqrt_dt = math.sqrt(model.horizon / steps)
    zw = me.normal_block(seed, DOMAIN_LIMIT_W, steps, 0, 0, paths, steps)
    zb = me.normal_block(seed, DOMAIN_LIMIT_B, steps, 0, 0, paths, steps)
    return (
        sqrt_dt * zw.reshape(paths, steps, 1).transpose(1, 0, 2),
        sqrt_dt * zb.reshape(paths, steps, 1, 1).transpose(1, 0, 2, 3),
    )


def test_generic_engine_matches_scalar_fast_path():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    dw, db = engine_increments(model, 32, 400, 5)
    xs, us = limit_law._scalar_batch(model, 32, dw, db)
    xg, ug = limit_law._general_batch(model, 32, dw, db)
    np.testing.assert_allclose(xs, xg, rtol=1e-12)
    np.testing.assert_allclose(us, ug, rtol=1e-12, atol=1e-14)
    # limit_draws runs the scalar engine on these very arrays when d = q = 1
    x, u = me.limit_draws(model, 32, 400, 5)
    np.testing.assert_array_equal(x, xs)
    np.testing.assert_array_equal(u, us)


def test_limit_draws_thread_partition_is_bitwise():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    x1, u1 = me.limit_draws(model, 64, 901, 0, threads=1)
    x8, u8 = me.limit_draws(model, 64, 901, 0, threads=8)
    np.testing.assert_array_equal(x1, x8)
    np.testing.assert_array_equal(u1, u8)


def test_split_noise_limit_draws_thread_partition_is_bitwise(split_noise_gbm):
    # q = 2 runs the general engine, with its q x q dB indexing
    x1, u1 = me.limit_draws(split_noise_gbm, 32, 901, 0, threads=1)
    x8, u8 = me.limit_draws(split_noise_gbm, 32, 901, 0, threads=8)
    np.testing.assert_array_equal(x1, x8)
    np.testing.assert_array_equal(u1, u8)


def test_limit_moments_match_closed_form():
    # E U = 0 and E U^2 = vol^4 T / 2 x0^2 exp((2 mu + vol^2) T), up to
    # the O(1/steps) discretization of the second moment
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    draws = 40_000
    x, u = me.limit_draws(model, 256, draws, 0, threads=4)
    y = u[:, 0]
    sigma2 = me.gbm_identity_reference(1.0, 0.0, 1.0, 1.0).exact_limit_variance
    # exact moments of y = X B / sqrt 2: Var y = sigma2, E y^4 = 3 e^6 / 4
    se_mean = math.sqrt(sigma2 / draws)
    assert abs(y.mean()) < 4.0 * se_mean
    se_var = math.sqrt((3.0 * math.e**6 / 4.0 - sigma2**2) / draws)
    assert abs(y.var(ddof=1) - sigma2) < 4.0 * se_var


def test_limit_draws_rows_match_single_path_calls():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    x, u = me.limit_draws(model, 16, 5, 9, replication=1)
    for p in range(5):
        xp, up = me.limit_draws(model, 16, 1, 9, replication=1, first_path=p)
        np.testing.assert_array_equal(xp[0], x[p])
        np.testing.assert_array_equal(up[0], u[p])


def test_estimate_limit_variance_zero_diffusion_is_zero():
    model = me.make_gbm(1.0, 0.05, 0.0, 1.0)
    cfg = me.LimitSimConfig(samples=100, master_seed=0, n_steps=16)
    sigma2, se = me.estimate_limit_variance(model, me.identity_payoff(), cfg)
    assert sigma2 == 0.0
    assert se == 0.0


def test_estimate_limit_variance_gbm_identity():
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    cfg = me.LimitSimConfig(samples=20_000, master_seed=0, n_steps=256, threads=4)
    sigma2, se = me.estimate_limit_variance(model, me.identity_payoff(), cfg)
    target = math.e / 2.0
    # the reported moment-based se underestimates under these heavy
    # tails; use the exact sampling sd of the variance estimator instead
    exact_se = math.sqrt((3.0 * math.e**6 / 4.0 - target**2) / cfg.samples)
    assert abs(sigma2 - target) < 4.0 * exact_se
    assert 0.0 < se < 2.0 * exact_se


def test_kink_guard_redraws_near_strike():
    # widen the guard band so the redraw path actually triggers
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    pay = me.call_payoff(1.0)
    cfg = me.LimitSimConfig(samples=500, master_seed=0, n_steps=16)
    old = limit_law._KINK_TOL
    limit_law._KINK_TOL = 0.02
    try:
        x, _ = me.limit_draws(model, 16, 500, 0)
        assert np.any(np.abs(x[:, 0] - 1.0) < 0.02 * (1.0 + np.abs(x[:, 0])))
        sigma2, se = me.estimate_limit_variance(model, pay, cfg)
    finally:
        limit_law._KINK_TOL = old
    assert np.isfinite(sigma2) and np.isfinite(se)
    assert sigma2 > 0.0


def test_kink_redraws_run_on_the_configured_threads(monkeypatch):
    calls = []
    plain = limit_law.limit_draws

    def recording(*args, **kwargs):
        calls.append(kwargs.get("threads"))
        return plain(*args, **kwargs)

    monkeypatch.setattr(limit_law, "limit_draws", recording)
    # widen the guard band so the redraw path actually triggers
    monkeypatch.setattr(limit_law, "_KINK_TOL", 0.02)
    cfg = me.LimitSimConfig(samples=500, master_seed=0, n_steps=16, threads=2)
    me.estimate_limit_variance(me.make_gbm(1.0, 0.05, 0.2, 1.0), me.call_payoff(1.0), cfg)
    assert len(calls) >= 2
    assert calls == [2] * len(calls)


def test_kink_on_an_atom_of_the_terminal_law_raises():
    # zero volatility pins X_T at the strike: no redraw can escape
    model = me.make_gbm(1.0, 0.0, 0.0, 1.0)
    cfg = me.LimitSimConfig(samples=64, master_seed=0, n_steps=8)
    with pytest.raises(ValueError, match="probability mass"):
        me.estimate_limit_variance(model, me.call_payoff(1.0), cfg)


def test_degenerate_transport_raises_in_both_engines():
    # drift Jacobian -n/T zeroes the transport on the first step
    steps = 8

    def drift(x):
        return -steps * x

    model = me.SdeModel(
        dim_state=1,
        dim_noise=1,
        initial=np.array([1.0]),
        horizon=1.0,
        drift=drift,
        diffusion=lambda x: np.zeros((x.shape[0], 1, 1)),
        drift_jacobian=lambda x: np.full((x.shape[0], 1, 1), -float(steps)),
        diffusion_jacobians=(lambda x: np.zeros((x.shape[0], 1, 1)),),
    )
    with pytest.raises(me.DegenerateTransportError):
        me.limit_draws(model, steps, 16, 0)
    dw, db = engine_increments(model, steps, 16, 0)
    for engine in (limit_law._scalar_batch, limit_law._general_batch):
        with pytest.raises(me.DegenerateTransportError):
            engine(model, steps, dw, db)


def test_two_level_zero_coefficients_all_samples_zero():
    model = me.make_gbm(1.0, 0.0, 0.0, 1.0)
    out = me.two_level_error_samples(model, me.identity_payoff(), 3, 2, 100, 0)
    np.testing.assert_array_equal(out, np.zeros(100))


def test_two_level_variance_matches_transfer_recursion():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    samples = 40_000
    out = me.two_level_error_samples(model, me.identity_payoff(), 6, 2, samples, 0)
    exact = exact_scaled_two_level_variance(1.0, 0.05, 0.2, 1.0, 2, 6)
    # near-Gaussian summands: the variance estimate has ~0.7% rel sd here
    assert out.var(ddof=1) == pytest.approx(exact, rel=0.03)


def test_two_level_variance_approaches_the_limit_value():
    sigma2 = me.gbm_identity_reference(1.0, 0.05, 0.2, 1.0).exact_limit_variance
    vals = [
        exact_scaled_two_level_variance(1.0, 0.05, 0.2, 1.0, 2, lv)
        for lv in range(1, 9)
    ]
    gaps = [abs(v - sigma2) for v in vals]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.005 * sigma2


def test_two_level_errors_distributed_like_projected_limit():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    pay = me.identity_payoff()
    errors = me.two_level_error_samples(model, pay, 8, 2, 20_000, 0, threads=4)
    x, u = me.limit_draws(model, 256, 20_000, 0, threads=4)
    proj = me.projected_samples(pay, x, u)
    assert me.ks_statistic_two_sample(errors, proj) < 0.02


def test_two_level_requires_level_at_least_one():
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        me.two_level_error_samples(model, me.identity_payoff(), 0, 2, 10, 0)
