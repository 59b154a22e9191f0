"""Model and payoff layer: closed forms, validation, declared derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlmc_euler as me

# Black-Scholes call, x0=100, rate 5%, vol 20%, T=1, strike 100, computed
# from the standard normal-cdf formula with scipy.special.ndtr.
BS_CALL_100 = 10.986396449700798


def test_gbm_fields():
    model = me.make_gbm(2.0, 0.1, 0.3, 1.5)
    assert model.dim_state == 1
    assert model.dim_noise == 1
    assert model.horizon == 1.5
    np.testing.assert_array_equal(model.initial, [2.0])


def test_gbm_coefficients_on_batch():
    model = me.make_gbm(1.0, 0.1, 0.3, 1.0)
    x = np.array([[1.0], [2.0], [4.0]])
    np.testing.assert_allclose(model.drift(x), 0.1 * x)
    np.testing.assert_allclose(model.diffusion(x)[:, 0, 0], 0.3 * x[:, 0])
    np.testing.assert_allclose(model.drift_jacobian(x)[:, 0, 0], 0.1)
    np.testing.assert_allclose(model.diffusion_jacobians[0](x)[:, 0, 0], 0.3)


def test_gbm_rejects_bad_params():
    with pytest.raises(ValueError):
        me.make_gbm(-1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        me.make_gbm(1.0, 0.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        me.make_gbm(1.0, 0.0, 1.0, 0.0)
    # zero volatility is legal, the SDE degenerates to an ODE
    me.make_gbm(1.0, 0.05, 0.0, 1.0)


@pytest.mark.parametrize("name", ["x0", "mu", "vol", "horizon"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gbm_rejects_non_finite_params(name, bad):
    # NaN fails no comparison and +inf passes x0 > 0, so each is named
    params = dict(x0=1.0, mu=0.05, vol=0.2, horizon=1.0)
    params[name] = bad
    with pytest.raises(ValueError, match="%s must be finite" % name):
        me.make_gbm(**params)


def test_identity_payoff():
    pay = me.identity_payoff()
    x = np.array([[1.5], [-0.25]])
    np.testing.assert_array_equal(pay.value(x), [1.5, -0.25])
    np.testing.assert_array_equal(pay.gradient(x), [[1.0], [1.0]])
    assert pay.kinks == ()


def test_call_payoff_value_gradient_and_kink():
    pay = me.call_payoff(2.0)
    x = np.array([[1.0], [2.0], [3.5]])
    np.testing.assert_array_equal(pay.value(x), [0.0, 0.0, 1.5])
    # a.e. gradient: indicator of the in-the-money region
    np.testing.assert_array_equal(pay.gradient(x)[:, 0], [0.0, 0.0, 1.0])
    assert pay.kinks == (2.0,)
    with pytest.raises(ValueError):
        me.call_payoff(-1.0)


def test_gbm_identity_reference_mean():
    ref = me.gbm_identity_reference(2.0, 0.1, 0.3, 1.5)
    assert ref.exact_expectation == pytest.approx(2.0 * math.exp(0.1 * 1.5), rel=1e-15)


def test_gbm_identity_reference_limit_variance():
    # vol**4 T / 2 * x0**2 exp((2 mu + vol**2) T); equals e/2 at (1,0,1,1)
    ref = me.gbm_identity_reference(1.0, 0.0, 1.0, 1.0)
    assert ref.exact_limit_variance == pytest.approx(math.e / 2.0, rel=1e-15)
    ref2 = me.gbm_identity_reference(2.0, 0.1, 0.3, 1.5)
    expect = 0.3**4 * 1.5 / 2.0 * 4.0 * math.exp((0.2 + 0.09) * 1.5)
    assert ref2.exact_limit_variance == pytest.approx(expect, rel=1e-14)


def test_black_scholes_call_reference_frozen_value():
    ref = me.black_scholes_call_reference(100.0, 0.05, 0.2, 1.0, 100.0)
    assert ref.exact_expectation == pytest.approx(BS_CALL_100, abs=1e-10)


def test_black_scholes_rejects_degenerate_vol():
    with pytest.raises(ValueError):
        me.black_scholes_call_reference(100.0, 0.05, 0.0, 1.0, 100.0)


@settings(max_examples=60, deadline=None)
@given(
    x0=st.floats(10.0, 300.0),
    rate=st.floats(-0.05, 0.15),
    vol=st.floats(0.01, 0.9),
    horizon=st.floats(0.1, 3.0),
    strike=st.floats(10.0, 300.0),
)
def test_black_scholes_price_within_arbitrage_bounds(x0, rate, vol, horizon, strike):
    price = me.black_scholes_call_reference(
        x0, rate, vol, horizon, strike
    ).exact_expectation
    intrinsic = max(x0 * math.exp(rate * horizon) - strike, 0.0)
    assert price >= intrinsic - 1e-9 * (1.0 + x0)
    assert price <= x0 * math.exp(rate * horizon) + 1e-9
