"""Model and payoff contracts for terminal-value diffusion estimation.

A model bundles the coefficient functions of an Ito diffusion

    dX_t = b(X_t) dt + s(X_t) dW_t,   X_0 = x,   t in [0, horizon],

together with their Jacobians, which the limit-process simulator needs.
All coefficient callables must be vectorized over leading axes: a state
array of shape (..., d) maps to (..., d) for the drift, (..., d, q) for
the diffusion matrix, and (..., d, d) for each Jacobian.  Payoffs map
terminal states (..., d) to scalars (...,) and carry an almost-everywhere
gradient plus the kink locations, which the limit-law simulator needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import ndtr

__all__ = [
    "SdeModel",
    "Payoff",
    "AnalyticReference",
    "make_gbm",
    "identity_payoff",
    "call_payoff",
    "gbm_identity_reference",
    "black_scholes_call_reference",
]


@dataclass(frozen=True)
class SdeModel:
    """Coefficient bundle for a d-dimensional diffusion driven by q noises.

    Attributes:
        dim_state: state dimension d >= 1.
        dim_noise: driving Brownian dimension q >= 1.
        initial: starting state, shape (d,).
        horizon: terminal time T > 0.
        drift: callable (..., d) -> (..., d).
        diffusion: callable (..., d) -> (..., d, q); column j is the
            coefficient multiplying the j-th Brownian component.
        drift_jacobian: callable (..., d) -> (..., d, d).
        diffusion_jacobians: q callables, one per noise column, each
            (..., d) -> (..., d, d).
    """

    dim_state: int
    dim_noise: int
    initial: np.ndarray
    horizon: float
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    drift_jacobian: Callable[[np.ndarray], np.ndarray]
    diffusion_jacobians: Tuple[Callable[[np.ndarray], np.ndarray], ...]

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ValueError("state and noise dimensions must be >= 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (self.dim_state,):
            raise ValueError(
                "initial state must have shape (%d,)" % self.dim_state
            )
        object.__setattr__(self, "initial", initial)
        if len(self.diffusion_jacobians) != self.dim_noise:
            raise ValueError("need one diffusion Jacobian per noise column")


@dataclass(frozen=True)
class Payoff:
    """Scalar functional of the terminal state.

    ``value`` maps (..., d) -> (...,).  ``gradient`` maps (..., d) ->
    (..., d) and may be an almost-everywhere gradient; ``kinks`` lists
    first-coordinate locations where it is undefined so samplers can
    guard against landing on them.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    kinks: Tuple[float, ...] = ()


@dataclass(frozen=True)
class AnalyticReference:
    """Closed-form targets used by tests and benchmarks.

    ``exact_expectation`` is E f(X_T).  ``exact_limit_variance`` is the
    variance of the normal limit of the scaled two-level error, when a
    closed form is known.
    """

    exact_expectation: Optional[float] = None
    exact_limit_variance: Optional[float] = None


def make_gbm(x0: float, mu: float, vol: float, horizon: float) -> SdeModel:
    """Geometric Brownian motion dX = mu X dt + vol X dW as a 1-d model.

    ``vol`` may be zero, which yields the deterministic linear-drift
    model used as a degenerate fixture; a non-finite parameter, negative
    volatility and non-positive x0 or horizon are rejected.
    """
    # comparisons alone would let NaN through (vol < 0 is False) and inf
    # too (x0 > 0 is True)
    for name, value in (("x0", x0), ("mu", mu), ("vol", vol), ("horizon", horizon)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite" % name)
    if not x0 > 0.0:
        raise ValueError("x0 must be positive")
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    if vol < 0.0:
        raise ValueError("volatility must be >= 0")

    def drift(x):
        return mu * x

    def diffusion(x):
        return vol * x[..., None]

    def drift_jacobian(x):
        shape = x.shape[:-1] + (1, 1)
        return np.full(shape, mu)

    def diffusion_jacobian(x):
        shape = x.shape[:-1] + (1, 1)
        return np.full(shape, vol)

    return SdeModel(
        dim_state=1,
        dim_noise=1,
        initial=np.array([x0]),
        horizon=horizon,
        drift=drift,
        diffusion=diffusion,
        drift_jacobian=drift_jacobian,
        diffusion_jacobians=(diffusion_jacobian,),
    )


def identity_payoff() -> Payoff:
    """f(x) = x_0, the first state coordinate.  Lipschitz with C = 1."""
    return Payoff(
        value=lambda x: x[..., 0],
        gradient=lambda x: np.concatenate(
            [np.ones(x.shape[:-1] + (1,)), np.zeros(x.shape[:-1] + (x.shape[-1] - 1,))],
            axis=-1,
        ),
    )


def call_payoff(strike: float) -> Payoff:
    """f(x) = max(x_0 - strike, 0).  Lipschitz with C = 1, kink at the strike."""
    if not strike > 0.0:
        raise ValueError("strike must be positive")

    def value(x):
        return np.maximum(x[..., 0] - strike, 0.0)

    def gradient(x):
        g = np.zeros_like(x)
        g[..., 0] = (x[..., 0] > strike).astype(float)
        return g

    return Payoff(value=value, gradient=gradient, kinks=(strike,))


def gbm_identity_reference(x0: float, mu: float, vol: float, horizon: float) -> AnalyticReference:
    """Closed forms for GBM with the identity payoff.

    E X_T = x0 exp(mu T).  The limit variance of the scaled two-level
    error is vol^4 T / 2 * x0^2 exp((2 mu + vol^2) T): the first-variation
    process of GBM is X_t / x0, so the limit process collapses to
    vol^2 / sqrt(2) * X_T * B_T with B an independent Brownian motion,
    whose variance at T is the stated product.
    """
    if not x0 > 0.0 or not horizon > 0.0 or vol < 0.0:
        raise ValueError("invalid GBM parameters")
    mean = x0 * math.exp(mu * horizon)
    limit_var = 0.5 * vol**4 * horizon * x0**2 * math.exp((2.0 * mu + vol**2) * horizon)
    return AnalyticReference(exact_expectation=mean, exact_limit_variance=limit_var)


def black_scholes_call_reference(
    x0: float, rate: float, vol: float, horizon: float, strike: float
) -> AnalyticReference:
    """Undiscounted E (X_T - strike)^+ for GBM with drift ``rate``.

    X_T is lognormal with log-mean log(x0) + (rate - vol^2/2) T and
    log-stddev vol sqrt(T); integrating the positive part against that
    density gives

        x0 exp(rate T) Phi(d1) - strike Phi(d2),
        d1 = (log(x0/strike) + (rate + vol^2/2) T) / (vol sqrt(T)),
        d2 = d1 - vol sqrt(T).

    No discount factor is applied: this is the expectation itself, which
    is what the estimators target.
    """
    if not (x0 > 0.0 and vol > 0.0 and horizon > 0.0 and strike > 0.0):
        raise ValueError("x0, vol, horizon, strike must all be positive")
    sd = vol * math.sqrt(horizon)
    d1 = (math.log(x0 / strike) + (rate + 0.5 * vol**2) * horizon) / sd
    d2 = d1 - sd
    value = x0 * math.exp(rate * horizon) * ndtr(d1) - strike * ndtr(d2)
    return AnalyticReference(exact_expectation=float(value), exact_limit_variance=None)

