"""Path engine: grid projection, keyed streams, Euler maps, couplings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlmc_euler as me
from mlmc_euler.paths import (
    DOMAIN_COUPLED,
    DOMAIN_SINGLE,
    EulerDivergedError,
)


def explosive_model():
    """Scalar model whose drift overflows a double within two steps."""

    def drift(x):
        return 1e100 * x**5

    def diffusion(x):
        return np.zeros((x.shape[0], 1, 1))

    return me.SdeModel(
        dim_state=1,
        dim_noise=1,
        initial=np.array([1.0]),
        horizon=1.0,
        drift=drift,
        diffusion=diffusion,
        drift_jacobian=lambda x: (5e100 * x**4)[:, :, None],
        diffusion_jacobians=(lambda x: np.zeros((x.shape[0], 1, 1)),),
    )


# ---------------------------------------------------------------- eta


def test_eta_hand_values():
    assert me.eta(0.3, 4, 1.0) == 0.25
    assert me.eta(0.25, 4, 1.0) == 0.25
    assert me.eta(0.0, 4, 1.0) == 0.0
    assert me.eta(1.0, 4, 1.0) == 1.0


def test_eta_rejects_out_of_range():
    with pytest.raises(ValueError):
        me.eta(-0.1, 4, 1.0)
    with pytest.raises(ValueError):
        me.eta(1.1, 4, 1.0)
    with pytest.raises(ValueError):
        me.eta(0.5, 0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(0.0, 1.0, allow_nan=False),
    n=st.integers(1, 1000),
    horizon=st.sampled_from([1.0, 0.7, 3.0]),
)
def test_eta_bounds_and_idempotence(t, n, horizon):
    t = t * horizon
    s = me.eta(t, n, horizon)
    assert 0.0 <= s <= t
    assert t - s < horizon / n * (1.0 + 1e-12)
    assert me.eta(s, n, horizon) == s


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 64), k=st.integers(0, 64), m=st.integers(2, 5))
def test_eta_grid_points_are_fixed_and_refinement_monotone(n, k, m):
    k = min(k, n)
    t = k * (1.0 / n)
    assert me.eta(t, n, 1.0) == pytest.approx(t, rel=4e-16, abs=0.0)
    # a finer grid never projects below a coarser one (up to grid ulps)
    assert me.eta(t, m * n, 1.0) >= me.eta(t, n, 1.0) - 1e-12


# ------------------------------------------------------- normal blocks


def test_normal_block_reproducible_and_keyed():
    a = me.normal_block(42, DOMAIN_SINGLE, 3, 0, 0, 5, 7)
    b = me.normal_block(42, DOMAIN_SINGLE, 3, 0, 0, 5, 7)
    assert a.shape == (5, 7)
    np.testing.assert_array_equal(a, b)
    for other in (
        me.normal_block(43, DOMAIN_SINGLE, 3, 0, 0, 5, 7),
        me.normal_block(42, DOMAIN_COUPLED, 3, 0, 0, 5, 7),
        me.normal_block(42, DOMAIN_SINGLE, 4, 0, 0, 5, 7),
        me.normal_block(42, DOMAIN_SINGLE, 3, 1, 0, 5, 7),
    ):
        assert not np.array_equal(a, other)


@settings(max_examples=50, deadline=None)
@given(
    n_paths=st.integers(1, 40),
    split=st.integers(0, 40),
    draws=st.integers(1, 18),
)
def test_normal_block_partition_is_bit_identical(n_paths, split, draws):
    split = min(split, n_paths)
    whole = me.normal_block(7, DOMAIN_SINGLE, 2, 1, 0, n_paths, draws)
    head = me.normal_block(7, DOMAIN_SINGLE, 2, 1, 0, split, draws)
    tail = me.normal_block(7, DOMAIN_SINGLE, 2, 1, split, n_paths - split, draws)
    np.testing.assert_array_equal(np.vstack([head, tail]), whole)


def test_master_seed_outside_64_bits_is_rejected():
    # a masked seed would alias: -1 onto 2**64 - 1 and 2**64 onto 0
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="master_seed"):
            me.normal_block(seed, DOMAIN_SINGLE, 0, 0, 0, 4, 2)
        with pytest.raises(ValueError, match="master_seed"):
            me.single_terminals(model, 2, 4, seed)
        with pytest.raises(ValueError, match="master_seed"):
            me.estimate(model, me.identity_payoff(), me.plan_bak(4, 2, 1.0), seed, bias_pilot=0)
    low = me.normal_block(0, DOMAIN_SINGLE, 0, 0, 0, 4, 2)
    high = me.normal_block(2**64 - 1, DOMAIN_SINGLE, 0, 0, 0, 4, 2)
    assert np.isfinite(low).all() and np.isfinite(high).all()
    assert not np.array_equal(low, high)


def test_normal_block_moments_are_sane():
    z = me.normal_block(0, DOMAIN_SINGLE, 0, 0, 0, 2000, 16)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02
    assert np.isfinite(z).all()


# ------------------------------------------------------------- euler


def test_euler_terminal_hand_computed_values():
    # two steps of 1 + x dW from x0=1: (1 + 0.5)(1 - 0.25)
    gbm = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    out = me.euler_terminal(gbm, 2, np.array([[0.5], [-0.25]]))
    assert out[0] == 1.125
    # pure drift, four steps of rate 1: (1 + 1/4)**4
    ode = me.make_gbm(1.0, 1.0, 0.0, 1.0)
    out = me.euler_terminal(ode, 4, np.zeros((4, 1)))
    assert out[0] == 2.44140625


def test_euler_terminal_records_whole_path():
    ode = me.make_gbm(1.0, 1.0, 0.0, 1.0)
    path = me.euler_terminal(ode, 4, np.zeros((4, 1)), record_path=True)
    np.testing.assert_allclose(path[:, 0], 1.25 ** np.arange(5))


def test_euler_terminal_shape_validation():
    gbm = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        me.euler_terminal(gbm, 2, np.zeros((3, 1)))


@pytest.mark.filterwarnings("ignore:overflow")
def test_euler_divergence_reports_step_and_path():
    with pytest.raises(EulerDivergedError) as err:
        me.euler_terminal(explosive_model(), 2, np.zeros((2, 1)))
    assert err.value.step_index == 1
    assert err.value.path_index == 0
    assert "step 1" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow")
def test_batch_divergence_locates_offending_path():
    with pytest.raises(EulerDivergedError) as err:
        me.single_terminals(explosive_model(), 2, 8, 0)
    assert err.value.step_index == 1
    assert 0 <= err.value.path_index < 8


# -------------------------------------------------- batch simulations


def test_single_terminals_weak_mean_is_exact_binomial():
    # E X^n = x0 (1 + mu T / n)^n for the Euler scheme of GBM, exactly
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    n = 8
    terms = me.single_terminals(model, n, 200_000, 0)
    expect = (1.0 + 0.05 / n) ** n
    se = terms.std(ddof=1) / math.sqrt(terms.shape[0])
    assert abs(terms.mean() - expect) < 4.0 * se


def test_single_terminals_thread_partition_is_bitwise():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    one = me.single_terminals(model, 16, 3001, 9, threads=1)
    two = me.single_terminals(model, 16, 3001, 9, threads=2)
    eight = me.single_terminals(model, 16, 3001, 9, threads=8)
    np.testing.assert_array_equal(one, two)
    np.testing.assert_array_equal(one, eight)


def test_coupled_terminals_thread_partition_is_bitwise():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    f1, c1 = me.coupled_terminals(model, 4, 2, 1501, 9, threads=1)
    f8, c8 = me.coupled_terminals(model, 4, 2, 1501, 9, threads=8)
    np.testing.assert_array_equal(f1, f8)
    np.testing.assert_array_equal(c1, c8)


def test_coupling_consumes_block_sums_of_fine_increments():
    """Reconstruct both legs from the documented stream layout, bitwise."""
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    level, m, paths = 3, 2, 16
    nf, nc = m**level, m ** (level - 1)
    dtf = model.horizon / nf
    fine, coarse = me.coupled_terminals(model, level, m, paths, 7, replication=3)
    z = me.normal_block(7, DOMAIN_COUPLED, level, 3, 0, paths, nf)
    dw = math.sqrt(dtf) * z.reshape(paths, nf, 1)
    dw_coarse = dw.reshape(paths, nc, m, 1).sum(axis=2)
    for p in range(paths):
        np.testing.assert_array_equal(me.euler_terminal(model, nf, dw[p]), fine[p])
        np.testing.assert_array_equal(
            me.euler_terminal(model, nc, dw_coarse[p]), coarse[p]
        )


def test_coupled_fine_and_coarse_stay_close():
    # strong order 1/2: the legs agree to O(sqrt(dt)) pathwise
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    fine, coarse = me.coupled_terminals(model, 6, 2, 4000, 0)
    gap = np.abs(fine - coarse).mean()
    assert gap < 0.02


def test_coupled_terminals_validates_level_and_m():
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        me.coupled_terminals(model, 0, 2, 4, 0)
    with pytest.raises(ValueError):
        me.coupled_terminals(model, 2, 1, 4, 0)


def test_single_path_wrappers_agree_with_batches():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    batch = me.single_terminals(model, 8, 6, 5, slot=2, replication=1)
    for p in range(6):
        key = me.RngStreamKey(master_seed=5, level=2, path_index=p, replication=1)
        term, cost = me.simulate_single(model, 8, key)
        assert cost == 8
        np.testing.assert_array_equal(term, batch[p])

    fine, coarse = me.coupled_terminals(model, 3, 2, 6, 5, replication=1)
    for p in range(6):
        key = me.RngStreamKey(master_seed=5, level=3, path_index=p, replication=1)
        pair = me.simulate_coupled(model, 3, 2, key)
        assert pair.cost == 8 + 4
        np.testing.assert_array_equal(pair.fine, fine[p])
        np.testing.assert_array_equal(pair.coarse, coarse[p])


def test_simulate_coupled_rejects_mismatched_key_level():
    model = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    key = me.RngStreamKey(master_seed=0, level=2, path_index=0, replication=0)
    with pytest.raises(ValueError):
        me.simulate_coupled(model, 3, 2, key)
