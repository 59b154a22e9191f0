"""Limit process simulation and the two-level error distribution."""

import collections
import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest

import mlmc_euler as me
from mlmc_euler import limit_law, paths
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
    # the general engine's square root of a zero covariance is exactly zero
    dw, xi = engine_increments(model, 32, 50, 0)
    _, ug = limit_law._general_batch(model, 32, [dw], xi)
    np.testing.assert_array_equal(ug, np.zeros((50, 1)))


def limit_xi(seed, steps, paths, d=1, replication=0):
    """The B stream's d normals per draw that ``limit_draws`` reads, (paths, d)."""
    return me.normal_block(seed, DOMAIN_LIMIT_B, steps, replication, 0, paths, 1, d)[0]


def test_limit_draw_closed_form_identity():
    """At x0=1, mu=0, vol=1 transport and state coincide bitwise, every
    step adds exactly 1 to the conditional variance and 64 steps of
    1/64 sum to exactly T = 1, so U_T equals X_T times the draw's one B
    normal over sqrt(2); reconstruct that from the documented stream
    layout."""
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    steps, paths = 64, 64
    x, u = me.limit_draws(model, steps, paths, 11, replication=2)
    xi = limit_xi(11, steps, paths, replication=2)
    np.testing.assert_array_equal(u[:, 0], x[:, 0] * xi[:, 0] / math.sqrt(2.0))


def test_transport_equals_scaled_state_for_gbm():
    # Z and X/x0 solve the same linear recursion, so the conditional
    # variance is vol^4 x0^2 T and the simulated U equals
    # vol^2 X sqrt(T) xi / sqrt(2) up to roundoff for any GBM parameters
    model = me.make_gbm(2.0, 0.1, 0.3, 1.5)
    steps, paths = 128, 500
    x, u = me.limit_draws(model, steps, paths, 3)
    xi = limit_xi(3, steps, paths)
    expect = 0.3 * 0.3 * x[:, 0] * math.sqrt(1.5) * xi[:, 0] / math.sqrt(2.0)
    np.testing.assert_allclose(u[:, 0], expect, rtol=1e-10)


def test_split_noise_limit_draw_closed_form(split_noise_gbm):
    # q = 2: (grad s_j) s_i / Z = s_i s_j x0 for s = (0.12, 0.16), so the
    # conditional variance is T sum_ij (s_i s_j)^2 = T (s1^2 + s2^2)^2
    steps, paths = 64, 300
    x, u = me.limit_draws(split_noise_gbm, steps, paths, 4)
    xi = limit_xi(4, steps, paths)
    expect = 0.04 * x[:, 0] * math.sqrt(split_noise_gbm.horizon) * xi[:, 0] / math.sqrt(2.0)
    np.testing.assert_allclose(u[:, 0], expect, rtol=1e-10)


def decoupled_gbm_2d(x0, mu, vol, horizon):
    """Two independent GBMs as one d = q = 2 model: dX_j = mu_j X_j dt + vol_j X_j dW_j."""
    x0, mu, vol = (np.asarray(v, dtype=float) for v in (x0, mu, vol))

    def diag(values):
        return values[..., :, None] * np.eye(2)

    def jacobian(j):
        unit = np.zeros((2, 2))
        unit[j, j] = vol[j]
        return lambda x: np.broadcast_to(unit, x.shape[:-1] + (2, 2)).copy()

    return me.SdeModel(
        dim_state=2,
        dim_noise=2,
        initial=x0,
        horizon=horizon,
        drift=lambda x: mu * x,
        diffusion=lambda x: diag(vol * x),
        drift_jacobian=lambda x: np.broadcast_to(np.diag(mu), x.shape[:-1] + (2, 2)).copy(),
        diffusion_jacobians=(jacobian(0), jacobian(1)),
    )


def test_decoupled_2d_limit_draw_closed_form():
    # the transport and the conditional covariance are diagonal, and each
    # coordinate is the scalar GBM identity: u_j = vol_j^2 X_j sqrt(T) xi_j / sqrt(2)
    vol = np.array([0.3, 0.5])
    horizon = 1.25
    model = decoupled_gbm_2d([1.5, 0.8], [0.05, -0.1], vol, horizon)
    steps, paths = 64, 300
    x, u = me.limit_draws(model, steps, paths, 6)
    xi = limit_xi(6, steps, paths, d=2)
    expect = vol**2 * x * math.sqrt(horizon) * xi / math.sqrt(2.0)
    np.testing.assert_allclose(u, expect, rtol=1e-10)


def _counter(bit_generator):
    words = bit_generator.state["state"]["counter"]
    return sum(int(w) << (64 * i) for i, w in enumerate(words))


@pytest.mark.parametrize("name", ["gbm", "split_noise", "decoupled_2d"])
def test_limit_draws_chunk_reads_n_d_b_words(monkeypatch, split_noise_gbm, name):
    # the accumulator is sampled from its conditional law, so a chunk of
    # n draws reads exactly n d words of the B stream
    model = {
        "gbm": me.make_gbm(1.0, 0.05, 0.2, 1.0),
        "split_noise": split_noise_gbm,
        "decoupled_2d": decoupled_gbm_2d([1.0, 1.0], [0.0, 0.0], [0.2, 0.3], 1.0),
    }[name]
    made = []
    plain = paths._philox

    def keep(*args):
        bg = plain(*args)
        made.append((args, bg, _counter(bg)))
        return bg

    monkeypatch.setattr(paths, "_philox", keep)
    n = 36
    limit_law.limit_draws(model, 16, n, 0)
    b_stream = [(bg, start) for args, bg, start in made if args[1] == DOMAIN_LIMIT_B]
    (bg, start), = b_stream
    # the counter moves one block per 4 words, and n d is a multiple of 4
    assert 4 * (_counter(bg) - start) == n * model.dim_state


def engine_increments(model, steps, paths, seed):
    """Step-major scaled W increments dw (steps, paths, q) and the B normals xi (paths, d).

    They are step block 0 of all the steps, which is what ``limit_draws``
    feeds its engines when ``steps`` is at most 64.
    """
    sqrt_dt = math.sqrt(model.horizon / steps)
    zw = me.normal_block(seed, DOMAIN_LIMIT_W, steps, 0, 0, paths, steps, model.dim_noise)
    return sqrt_dt * zw, limit_xi(seed, steps, paths, d=model.dim_state)


def test_generic_engine_matches_scalar_fast_path():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    dw, xi = engine_increments(model, 32, 400, 5)
    xs, us = limit_law._scalar_batch(model, 32, [dw], xi)
    xg, ug = limit_law._general_batch(model, 32, [dw], xi)
    np.testing.assert_allclose(xs, xg, rtol=1e-12)
    np.testing.assert_allclose(us, ug, rtol=1e-12, atol=1e-14)
    # limit_draws runs the scalar engine on these very arrays when d = q = 1
    x, u = me.limit_draws(model, 32, 400, 5)
    np.testing.assert_array_equal(x, xs)
    np.testing.assert_array_equal(u, us)


def assert_thread_invariant(model, steps):
    """``limit_draws`` over three chunks is bitwise equal at 1, 2 and 8 threads.

    Below 32 steps a chunk holds 2**16 draws, which keeps the engines'
    work small.
    """
    chunk = paths._chunk_size(model.dim_noise * steps + model.dim_state)
    draws = 2 * chunk + 5
    assert -(-draws // chunk) == 3
    x1, u1 = me.limit_draws(model, steps, draws, 0, threads=1)
    for threads in (2, 8):
        xt, ut = me.limit_draws(model, steps, draws, 0, threads=threads)
        np.testing.assert_array_equal(xt, x1)
        np.testing.assert_array_equal(ut, u1)


def test_limit_draws_thread_partition_is_bitwise():
    assert_thread_invariant(me.make_gbm(1.0, 0.05, 0.2, 1.0), 8)


def test_split_noise_limit_draws_thread_partition_is_bitwise(split_noise_gbm):
    # q = 2 runs the general engine, with its q x q columns per step
    assert_thread_invariant(split_noise_gbm, 2)
    # 901 draws are one chunk: a draw must also not depend on the batch
    # its engine call runs in
    x1, u1 = me.limit_draws(split_noise_gbm, 32, 901, 0)
    for a, b in ((0, 1), (1, 300), (300, 901)):
        xp, up = me.limit_draws(split_noise_gbm, 32, b - a, 0, first_path=a)
        np.testing.assert_array_equal(xp, x1[a:b])
        np.testing.assert_array_equal(up, u1[a:b])


# 130 steps are step blocks of 64, 64 and 2 steps
BLOCKED_STEPS = 130


@pytest.mark.parametrize("name", ["gbm", "split_noise"])
def test_limit_draws_over_step_blocks_are_partition_invariant(split_noise_gbm, name):
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0) if name == "gbm" else split_noise_gbm
    x1, u1 = me.limit_draws(model, BLOCKED_STEPS, 301, 2, replication=1)
    for a, b in ((0, 1), (1, 130), (130, 301)):
        xp, up = me.limit_draws(model, BLOCKED_STEPS, b - a, 2, replication=1, first_path=a)
        np.testing.assert_array_equal(xp, x1[a:b])
        np.testing.assert_array_equal(up, u1[a:b])


def test_limit_draws_over_step_blocks_are_thread_invariant(monkeypatch, split_noise_gbm):
    assert_thread_invariant(me.make_gbm(1.0, 0.05, 0.2, 1.0), BLOCKED_STEPS)
    # the general engine at its own chunk size would take seconds; chunk
    # boundaries do not move a draw, which the partition test checks
    monkeypatch.setattr(paths, "_chunk_size", lambda draws_per_path: 100)
    assert_thread_invariant(split_noise_gbm, BLOCKED_STEPS)


@pytest.mark.parametrize("name", ["gbm", "split_noise"])
def test_engines_carry_their_state_across_step_blocks(split_noise_gbm, name):
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0) if name == "gbm" else split_noise_gbm
    dw, xi = engine_increments(model, BLOCKED_STEPS, 200, 8)
    blocks = [dw[:64], dw[64:128], dw[128:]]
    engines = [limit_law._general_batch]
    if name == "gbm":
        engines.append(limit_law._scalar_batch)
    for engine in engines:
        x1, u1 = engine(model, BLOCKED_STEPS, [dw], xi)
        xb, ub = engine(model, BLOCKED_STEPS, iter(blocks), xi)
        np.testing.assert_array_equal(xb, x1)
        np.testing.assert_array_equal(ub, u1)
    # limit_draws reads step block j of the key (seed, W, steps, replication)
    sqrt_dt = math.sqrt(model.horizon / BLOCKED_STEPS)
    keyed = [
        sqrt_dt * me.normal_block(
            8, DOMAIN_LIMIT_W, BLOCKED_STEPS, 0, 0, 200, steps, model.dim_noise, step_block=j
        )
        for j, steps in enumerate((64, 64, 2))
    ]
    x, u = me.limit_draws(model, BLOCKED_STEPS, 200, 8)
    xe, ue = engines[-1](model, BLOCKED_STEPS, keyed, xi)
    np.testing.assert_array_equal(x, xe)
    np.testing.assert_array_equal(u, ue)


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


@pytest.mark.parametrize(
    "field", [dict(samples=1), dict(n_steps=0), dict(threads=0), dict(threads=-2)]
)
def test_limit_config_rejects_out_of_range_fields(field):
    settings = dict(samples=100, master_seed=0, n_steps=16, threads=1)
    settings.update(field)
    with pytest.raises(ValueError):
        me.LimitSimConfig(**settings)


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


def collapsing_model(steps):
    """d = q = 1 model whose drift Jacobian -steps/T zeroes the transport on the first step."""
    return me.SdeModel(
        dim_state=1,
        dim_noise=1,
        initial=np.array([1.0]),
        horizon=1.0,
        drift=lambda x: -steps * x,
        diffusion=lambda x: np.zeros((x.shape[0], 1, 1)),
        drift_jacobian=lambda x: np.full((x.shape[0], 1, 1), -float(steps)),
        diffusion_jacobians=(lambda x: np.zeros((x.shape[0], 1, 1)),),
    )


def test_degenerate_transport_raises_in_both_engines():
    steps = 8
    model = collapsing_model(steps)
    with pytest.raises(me.DegenerateTransportError):
        me.limit_draws(model, steps, 16, 0)
    dw, xi = engine_increments(model, steps, 16, 0)
    for engine in (limit_law._scalar_batch, limit_law._general_batch):
        with pytest.raises(me.DegenerateTransportError):
            engine(model, steps, [dw], xi)


def scalar_batch_reference(model, n_steps, dw, xi):
    """The scalar engine written with plain expressions, one temporary per product.

    ``limit_law._scalar_batch`` reuses preallocated buffers and tests the
    transport with a single minimum; it must stay bitwise equal to this.
    """
    n = dw.shape[1]
    dt = model.horizon / n_steps
    x = np.full(n, model.initial[0])
    z = np.ones(n)
    c = np.zeros(n)
    g = np.empty(n)
    for k in range(n_steps):
        xs = x[:, None]
        grad_diff = model.diffusion_jacobians[0](xs)[:, 0, 0]
        diff_col = model.diffusion(xs)[:, 0, 0]
        if np.any(np.abs(z) * limit_law._COND_LIMIT < 1.0):
            raise me.DegenerateTransportError("transport collapsed to zero")
        np.multiply(grad_diff, diff_col, out=g)
        g /= z
        g *= g
        c += g
        z += (model.drift_jacobian(xs)[:, 0, 0] * dt + grad_diff * dw[k, :, 0]) * z
        drift = model.drift(xs)[:, 0] * dt
        noise = diff_col * dw[k, :, 0]
        x += drift
        x += noise
    acc = np.sqrt(c * dt) * xi[:, 0]
    u = z * acc / math.sqrt(2.0)
    return x[:, None], u[:, None]


def nan_transport_gbm(steps, collapse_below=-np.inf):
    """GBM(1, 0.05, 0.2, 1) whose transport turns NaN above x = 1.1.

    Its drift Jacobian is NaN above 1.1, so a path that crosses 1.1 keeps
    a NaN transport, which the collapse test must skip, as ``np.any``
    does.  Below ``collapse_below`` the Jacobians are -steps/T and 0,
    which zero the transport in one step.
    """
    gbm = me.make_gbm(1.0, 0.05, 0.2, 1.0)

    def drift_jacobian(x):
        low = np.where(x < collapse_below, -float(steps), 0.05)
        return np.where(x > 1.1, np.nan, low)[..., None]

    return me.SdeModel(
        dim_state=1,
        dim_noise=1,
        initial=gbm.initial,
        horizon=gbm.horizon,
        drift=gbm.drift,
        diffusion=gbm.diffusion,
        drift_jacobian=drift_jacobian,
        diffusion_jacobians=(lambda x: np.where(x < collapse_below, 0.0, 0.2)[..., None],),
    )


@pytest.mark.parametrize(
    "name, steps, draws",
    [("gbm_unit", 1024, 300), ("gbm_strong", 32, 500), ("nan_transport", 64, 400),
     ("gbm_unit", 16, 0)],
)
def test_scalar_engine_matches_reference_bitwise(name, steps, draws):
    model = {
        "gbm_unit": lambda: me.make_gbm(1.0, 0.0, 1.0, 1.0),
        "gbm_strong": lambda: me.make_gbm(1.0, 0.3, 2.5, 1.0),
        "nan_transport": lambda: nan_transport_gbm(steps),
    }[name]()
    dw, xi = engine_increments(model, steps, draws, 7)
    x, u = limit_law._scalar_batch(model, steps, [dw], xi)
    xr, ur = scalar_batch_reference(model, steps, dw, xi)
    assert x.shape == u.shape == (draws, 1)
    np.testing.assert_array_equal(x, xr)
    np.testing.assert_array_equal(u, ur)
    if name == "nan_transport":
        assert np.isnan(u).any() and np.isfinite(u).any()


@pytest.mark.parametrize("name", ["collapse", "nan_then_collapse"])
def test_scalar_engine_and_reference_both_raise_on_collapse(name):
    # in the second batch some transports are NaN when others collapse
    steps = 64
    model = collapsing_model(steps) if name == "collapse" else nan_transport_gbm(steps, 0.9)
    dw, xi = engine_increments(model, steps, 400, 7)
    with pytest.raises(me.DegenerateTransportError):
        limit_law._scalar_batch(model, steps, [dw], xi)
    with pytest.raises(me.DegenerateTransportError):
        scalar_batch_reference(model, steps, dw, xi)


class CountingLane:
    """Stands in for ``_ENGINE_LANE``: a lock that numbers its holds."""

    def __init__(self):
        self.lock = threading.Lock()
        self.holds = 0

    def __enter__(self):
        self.lock.acquire()
        self.holds += 1

    def __exit__(self, *exc):
        self.lock.release()


def stepping_model(model, fail_at=None):
    """``model`` whose drift, evaluated once per step by both engines, watches the engines.

    Each call records (the ``CountingLane`` hold it runs in, or None with
    the real lane, and the number of drift calls in progress) and sleeps
    briefly inside, so two engines stepping at once would overlap there.
    The ``fail_at``-th call raises ``DegenerateTransportError``.  Returns
    the model and its record.
    """
    seen = []
    inside = [0]
    guard = threading.Lock()

    def drift(x):
        with guard:
            inside[0] += 1
            seen.append((getattr(limit_law._ENGINE_LANE, "holds", None), inside[0]))
            failing = len(seen) == fail_at
        try:
            time.sleep(1e-4)
            if failing:
                raise me.DegenerateTransportError("injected")
            return model.drift(x)
        finally:
            with guard:
                inside[0] -= 1

    return dataclasses.replace(model, drift=drift), seen


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("name", ["gbm", "split_noise"])
def test_engines_take_turns_one_block_at_a_time(monkeypatch, split_noise_gbm, name, threads):
    base = me.make_gbm(1.0, 0.05, 0.2, 1.0) if name == "gbm" else split_noise_gbm
    lane = CountingLane()
    monkeypatch.setattr(limit_law, "_ENGINE_LANE", lane)
    # 40-draw chunks keep 4 chunks of 130 = 64 + 64 + 2 steps cheap
    monkeypatch.setattr(paths, "_chunk_size", lambda draws_per_path: 40)
    model, seen = stepping_model(base)
    # a short switch interval makes overlapping engines more likely to show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        me.limit_draws(model, 130, 150, 0, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 4 * 130
    # no two engines step at once, and each hold is one block's steps
    assert max(inside for _, inside in seen) == 1
    steps_per_hold = collections.Counter(hold for hold, _ in seen)
    assert lane.holds == 12
    assert sorted(steps_per_hold.values()) == [2] * 4 + [64] * 8


def within_a_minute(call):
    """What ``call()`` returns or raises, or None if it is still running after 60 s.

    A lane left held would block a call forever, so calls that need the
    real lane run on a daemon thread.
    """
    out = []

    def run():
        try:
            out.append(call())
        except Exception as exc:
            out.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    return out[0] if out else None


def test_engine_error_propagates_and_releases_the_lane(monkeypatch):
    base = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    monkeypatch.setattr(paths, "_chunk_size", lambda draws_per_path: 40)
    for threads in (1, 2, 8):
        # the 100th step falls in the middle of the second lane hold's block
        model, _ = stepping_model(base, fail_at=100)
        error = within_a_minute(lambda: me.limit_draws(model, 130, 150, 0, threads=threads))
        assert isinstance(error, me.DegenerateTransportError) and str(error) == "injected"
        assert not limit_law._ENGINE_LANE.locked()
        done = within_a_minute(lambda: me.limit_draws(base, 130, 150, 0, threads=threads))
        assert done is not None and done[0].shape == (150, 1)


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
