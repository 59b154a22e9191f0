"""Model and payoff contracts for terminal-value diffusion estimation.

A model bundles the coefficient functions of an Ito diffusion

    dX_t = b(X_t) dt + s(X_t) dW_t,   X_0 = x,   t in [0, horizon],

together with their Jacobians, which the limit-process simulator needs.
All coefficient callables must be vectorized over leading axes: a state
array of shape (..., d) maps to (..., d) for the drift, (..., d, q) for
the diffusion matrix, and (..., d, d) for each Jacobian.  Payoffs map
terminal states (..., d) to scalars (...,) and carry enough metadata
(growth exponent, Lipschitz hint, kink locations) for the estimators to
validate their standing assumptions.
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
    "check_jacobians",
    "check_payoff_growth",
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
    guard against landing on them.  ``growth_exponent`` is the p in the
    polynomial-growth Lipschitz bound

        |f(x) - f(y)| <= C (1 + |x|^p + |y|^p) |x - y|,

    and ``lipschitz_hint`` is the C (also the plain Lipschitz constant
    when p == 0).
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    growth_exponent: float
    lipschitz_hint: Optional[float] = None
    kinks: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.growth_exponent < 0:
            raise ValueError("growth exponent must be >= 0")


@dataclass(frozen=True)
class AnalyticReference:
    """Closed-form targets used by tests and benchmarks.

    ``exact_expectation`` is E f(X_T).  ``exact_limit_variance`` is the
    variance of the normal limit of the scaled two-level error, when a
    closed form is known.  ``weak_error_constant`` is the signed
    coefficient c in E f(X^n_T) - E f(X_T) = c/n + O(1/n^2), when known.
    """

    exact_expectation: Optional[float] = None
    exact_limit_variance: Optional[float] = None
    weak_error_constant: Optional[float] = None


def make_gbm(x0: float, mu: float, vol: float, horizon: float) -> SdeModel:
    """Geometric Brownian motion dX = mu X dt + vol X dW as a 1-d model.

    ``vol`` may be zero, which yields the deterministic linear-drift
    model used as a degenerate fixture; negative volatility and
    non-positive x0 or horizon are rejected.
    """
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
        growth_exponent=0.0,
        lipschitz_hint=1.0,
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

    return Payoff(
        value=value,
        gradient=gradient,
        growth_exponent=0.0,
        lipschitz_hint=1.0,
        kinks=(strike,),
    )


def gbm_identity_reference(x0: float, mu: float, vol: float, horizon: float) -> AnalyticReference:
    """Closed forms for GBM with the identity payoff.

    E X_T = x0 exp(mu T).  The limit variance of the scaled two-level
    error is vol^4 T / 2 * x0^2 exp((2 mu + vol^2) T): the first-variation
    process of GBM is X_t / x0, so the limit process collapses to
    vol^2 / sqrt(2) * X_T * B_T with B an independent Brownian motion,
    whose variance at T is the stated product.  The weak-error
    coefficient follows from E X^n_T = x0 (1 + mu T / n)^n exactly.
    """
    if not x0 > 0.0 or not horizon > 0.0 or vol < 0.0:
        raise ValueError("invalid GBM parameters")
    mean = x0 * math.exp(mu * horizon)
    limit_var = 0.5 * vol**4 * horizon * x0**2 * math.exp((2.0 * mu + vol**2) * horizon)
    weak_c = -mean * (mu * horizon) ** 2 / 2.0
    return AnalyticReference(
        exact_expectation=mean,
        exact_limit_variance=limit_var,
        weak_error_constant=weak_c,
    )


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


def check_jacobians(
    model: SdeModel,
    states: np.ndarray,
    rel_step: float = 1e-6,
    rtol: float = 1e-5,
) -> None:
    """Validate declared Jacobians against central finite differences.

    ``states`` has shape (n, d).  The step is rel_step * (1 + |x_k|)
    per coordinate.  Raises ValueError naming the first coefficient and
    state that disagree beyond ``rtol`` relative (plus matching absolute)
    tolerance.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    d = model.dim_state

    def fd_jacobian(fn, x):
        cols = []
        for k in range(d):
            h = rel_step * (1.0 + abs(x[k]))
            xp = x.copy()
            xm = x.copy()
            xp[k] += h
            xm[k] -= h
            cols.append((fn(xp) - fn(xm)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    columns = [("drift", model.drift, model.drift_jacobian)]
    for j, jac in enumerate(model.diffusion_jacobians):
        columns.append(
            ("diffusion[%d]" % j, lambda x, j=j: model.diffusion(x)[..., j], jac)
        )
    for name, fn, jac in columns:
        for x in states:
            approx = fd_jacobian(fn, x)
            declared = jac(x)
            scale = np.maximum(np.abs(declared), 1.0)
            if not np.allclose(approx, declared, rtol=rtol, atol=rtol * scale.max()):
                raise ValueError(
                    "Jacobian of %s disagrees with finite differences at state %s"
                    % (name, x)
                )


def check_payoff_growth(
    payoff: Payoff,
    states: np.ndarray,
    constant: Optional[float] = None,
) -> None:
    """Spot-check |f(x) - f(y)| <= C (1 + |x|^p + |y|^p) |x - y| on sample pairs.

    Pairs are consecutive rows of ``states``; C defaults to the payoff's
    Lipschitz hint.  Raises ValueError on the first violating pair.
    """
    c = constant if constant is not None else payoff.lipschitz_hint
    if c is None:
        raise ValueError("no growth constant available for this payoff")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    p = payoff.growth_exponent
    for x, y in zip(states[:-1], states[1:]):
        lhs = abs(float(payoff.value(x)) - float(payoff.value(y)))
        nx = float(np.linalg.norm(x))
        ny = float(np.linalg.norm(y))
        rhs = c * (1.0 + nx**p + ny**p) * float(np.linalg.norm(x - y))
        if lhs > rhs * (1.0 + 1e-12):
            raise ValueError("growth bound violated for pair %s, %s" % (x, y))
