"""Simulation of the normal limit of scaled two-level Euler errors.

The scaled difference sqrt(m**l / ((m-1) T)) (X_fine - X_coarse) of a
coupled Euler pair converges in law, as the level grows, to a process
value U_T that is Gaussian conditionally on the driving path.  U_T is
built from three ingredients on one shared grid:

  * the Euler path X itself, driven by the model's Brownian motion W;
  * the linearized transport Z along X (d x d, starting at the
    identity), driven by the coefficient Jacobians against dt and W;
  * an accumulator A = sum_{i,j} integral Z^-1 (grad s_j)(X) s_i(X) dB^ij,
    driven by a fresh q**2-dimensional Brownian motion B independent of
    W (s_i denotes the i-th diffusion column).

The draw is U_T = Z_T A_T / sqrt(2).  Inverses of Z are never formed;
each step solves a linear system with the current Z (scalar division
when d == 1).  A transport whose condition number exceeds 1e12 raises
DegenerateTransportError rather than returning garbage.

Statistical use: Var(grad f(X_T) . U_T) is the variance appearing in
the central limit theorem for the multilevel estimator, so this module
provides both the direct simulation and the matching two-level error
samples for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .models import Payoff, SdeModel
from .paths import (
    DOMAIN_LIMIT_B,
    DOMAIN_LIMIT_W,
    _chunk_size,
    _chunk_tasks,
    _euler_step,
    _run_tasks,
    _step_major,
    coupled_terminals,
    normal_block,
)

__all__ = [
    "LimitSimConfig",
    "DegenerateTransportError",
    "limit_draws",
    "estimate_limit_variance",
    "two_level_error_samples",
]

_COND_LIMIT = 1e12
# Relative half-width of the kink guard band around payoff kinks.
_KINK_TOL = 1e-12
# A diffuse terminal law re-enters the guard band with probability ~_KINK_TOL
# per round; hitting this cap means the band holds an atom of the law.
_MAX_REDRAW_ROUNDS = 50


class DegenerateTransportError(RuntimeError):
    """The linearized transport became numerically singular."""


@dataclass(frozen=True)
class LimitSimConfig:
    """Settings for a batch limit-variance estimation run."""

    samples: int
    master_seed: int
    n_steps: int = 1024
    replication: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def _scalar_batch(model, n_steps, dw, db):
    """d == q == 1 specialization working on flat (n,) arrays.

    ``dw`` (steps, n, 1) and ``db`` (steps, n, 1, 1) are step-major.  The
    state update stays fused here instead of going through
    ``paths._euler_step``: the accumulator reuses the diffusion column
    that update needs, and this engine is the inner loop of
    ``estimate_limit_variance`` for every scalar model.
    """
    n = dw.shape[1]
    dt = model.horizon / n_steps
    x = np.full(n, model.initial[0])
    z = np.ones(n)
    acc = np.zeros(n)
    for k in range(n_steps):
        xs = x[:, None]
        grad_diff = model.diffusion_jacobians[0](xs)[:, 0, 0]
        diff_col = model.diffusion(xs)[:, 0, 0]
        if np.any(np.abs(z) * _COND_LIMIT < 1.0):
            raise DegenerateTransportError("transport collapsed to zero")
        acc = acc + grad_diff * diff_col / z * db[k, :, 0, 0]
        grad_drift = model.drift_jacobian(xs)[:, 0, 0]
        z = z + (grad_drift * dt + grad_diff * dw[k, :, 0]) * z
        x = x + model.drift(xs)[:, 0] * dt + diff_col * dw[k, :, 0]
    u = z * acc / math.sqrt(2.0)
    return x[:, None], u[:, None]


def _general_batch(model, n_steps, dw, db):
    """Generic d, q recursion on stacked matrices.

    ``dw`` (steps, n, q) and ``db`` (steps, n, q, q) are step-major.  The
    state takes the package's one Euler step, ``paths._euler_step``.
    """
    n = dw.shape[1]
    d = model.dim_state
    q = model.dim_noise
    dt = model.horizon / n_steps
    x = np.broadcast_to(model.initial, (n, d)).copy()
    z = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    acc = np.zeros((n, d))
    for k in range(n_steps):
        diff = model.diffusion(x)  # (n, d, q)
        grads = [jac(x) for jac in model.diffusion_jacobians]  # q of (n, d, d)
        # sum_{i,j} (grad s_j)(x) s_i(x) dB^ij, then one solve against Z.
        driven = np.zeros((n, d))
        for j in range(q):
            gj_cols = np.einsum("nab,nbi->nai", grads[j], diff)  # (n, d, q)
            driven += np.einsum("nai,ni->na", gj_cols, db[k, :, :, j])
        try:
            acc = acc + np.linalg.solve(z, driven[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise DegenerateTransportError("transport is singular") from None
        step = model.drift_jacobian(x) * dt
        for j in range(q):
            step = step + grads[j] * dw[k, :, j, None, None]
        z = z + np.einsum("nab,nbc->nac", step, z)
        x = _euler_step(model, x, dt, dw[k], diff)
    cond = np.linalg.cond(z)
    if not np.isfinite(cond).all() or cond.max() > _COND_LIMIT:
        raise DegenerateTransportError("transport condition number above 1e12")
    u = np.einsum("nab,nb->na", z, acc) / math.sqrt(2.0)
    return x, u


def limit_draws(
    model: SdeModel,
    n_steps: int,
    n_draws: int,
    master_seed: int,
    replication: int = 0,
    first_path: int = 0,
    threads: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Joint draws of (X_T, U_T); returns arrays (n, d), (n, d).

    The state path consumes the W stream and the accumulator the B
    stream, both keyed by ``replication``.  Work is chunked over fixed
    path spans, so results do not depend on ``threads``.
    """
    if n_steps < 1 or n_draws < 0:
        raise ValueError("n_steps must be >= 1 and n_draws >= 0")
    d = model.dim_state
    q = model.dim_noise
    dt = model.horizon / n_steps
    engine = _scalar_batch if d == 1 and q == 1 else _general_batch
    x_out = np.empty((n_draws, d))
    u_out = np.empty((n_draws, d))

    def work(a, b):
        # each stream's rows are freed as soon as their step-major copy exists
        dw = _step_major(
            normal_block(
                master_seed, DOMAIN_LIMIT_W, n_steps, replication, first_path + a, b - a,
                q * n_steps,
            ),
            math.sqrt(dt),
            n_steps,
        )
        # dB^ij is indexed (noise column i, Jacobian column j).
        db = _step_major(
            normal_block(
                master_seed, DOMAIN_LIMIT_B, n_steps, replication, first_path + a, b - a,
                q * q * n_steps,
            ),
            math.sqrt(dt),
            n_steps,
        ).reshape(n_steps, b - a, q, q)
        x_out[a:b], u_out[a:b] = engine(model, n_steps, dw, db)

    _run_tasks([_chunk_tasks(n_draws, _chunk_size(q * (1 + q) * n_steps), work)], threads)
    return x_out, u_out


def _kink_mask(payoff: Payoff, x: np.ndarray) -> np.ndarray:
    first = x[:, 0]
    mask = np.zeros(first.shape, dtype=bool)
    for kink in payoff.kinks:
        mask |= np.abs(first - kink) < _KINK_TOL * (1.0 + np.abs(first))
    return mask


def projected_samples(payoff: Payoff, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """grad f(X_T) . U_T per draw, shape (n,)."""
    return np.einsum("nd,nd->n", payoff.gradient(x), u)


def estimate_limit_variance(
    model: SdeModel,
    payoff: Payoff,
    config: LimitSimConfig,
) -> Tuple[float, float]:
    """Estimate Var(grad f(X_T) . U_T) by direct simulation.

    Draws landing within the relative kink guard band of the payoff's
    declared kinks are replaced by fresh draws from reserve key indices,
    so the a.e. gradient is never evaluated at a kink.  Returns
    (variance, standard error of the variance estimate); the latter is
    the moment-based sqrt((m4 - s^4) / samples).
    """
    x, u = limit_draws(
        model,
        config.n_steps,
        config.samples,
        config.master_seed,
        replication=config.replication,
        threads=config.threads,
    )
    if payoff.kinks:
        fresh = config.samples
        bad = np.flatnonzero(_kink_mask(payoff, x))
        rounds = 0
        while bad.size:
            rounds += 1
            if rounds > _MAX_REDRAW_ROUNDS:
                # only reachable when the terminal law has an atom inside
                # the guard band, i.e. the a.e.-gradient precondition fails
                raise ValueError(
                    "payoff kink carries positive probability mass under the "
                    "terminal law; gradient is not defined almost everywhere"
                )
            xr, ur = limit_draws(
                model,
                config.n_steps,
                bad.size,
                config.master_seed,
                replication=config.replication,
                first_path=fresh,
                threads=config.threads,
            )
            fresh += bad.size
            x[bad] = xr
            u[bad] = ur
            bad = bad[_kink_mask(payoff, x[bad])]
    y = projected_samples(payoff, x, u)
    s2 = float(np.var(y, ddof=1))
    centered = y - y.mean()
    m4 = float(np.mean(centered**4))
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / y.shape[0])
    return s2, se


def two_level_error_samples(
    model: SdeModel,
    payoff: Payoff,
    level: int,
    m: int,
    samples: int,
    master_seed: int,
    replication: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """Scaled coupled payoff differences sqrt(m**l / ((m-1) T)) (f fine - f coarse).

    These converge in law, as the level grows, to the same limit as
    ``projected_samples`` over ``limit_draws``, which is the basis of
    the distributional cross-checks.
    """
    fine, coarse = coupled_terminals(
        model, level, m, samples, master_seed, replication=replication, threads=threads
    )
    scale = math.sqrt(m**level / ((m - 1) * model.horizon))
    return scale * (payoff.value(fine) - payoff.value(coarse))
