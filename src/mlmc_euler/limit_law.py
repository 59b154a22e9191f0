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

Given the W path, A_T is exactly centred Gaussian with covariance
C_T = integral G G^T dt, where G = Z^-1 [(grad s_j) s_i]_{ij} is d x q**2.
A_T is therefore sampled from that conditional law: C_T accumulates on
the Euler grid along the path, and A_T = C_T**(1/2) xi for d standard
normals xi, the B stream's only words.  The draw is U_T = Z_T A_T /
sqrt(2).  Inverses of Z are never formed; each step solves a linear
system with the current Z (scalar division when d == 1).  A transport
whose condition number exceeds 1e12 raises DegenerateTransportError
rather than returning garbage.

Scheduling: the engines' per-step recursion is a loop of short numpy
calls that hold the GIL, while drawing a step block of normals is a few
long calls that release it.  So the engines take turns, at any thread
count: an engine holds one lock, ``_ENGINE_LANE``, while it steps
through one block of W increments, and lets it go while its next block
is drawn.  Two engines at once would hand the GIL back and forth on
every call and gain nothing.  Turn order does not affect the draws,
which stay bitwise equal for any thread count.

Statistical use: Var(grad f(X_T) . U_T) is the variance appearing in
the central limit theorem for the multilevel estimator, so this module
provides both the direct simulation and the matching two-level error
samples for cross-checks.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .models import Payoff, SdeModel
from .paths import (
    DOMAIN_LIMIT_B,
    DOMAIN_LIMIT_W,
    _block_steps,
    _chunk_tasks,
    _euler_step,
    _run_tasks,
    _step_blocks,
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
# Held by an engine while it steps through one block of increments.
_ENGINE_LANE = threading.Lock()
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
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def _scalar_batch(model, n_steps, blocks, xi):
    """d == q == 1 specialization working on flat (n,) arrays.

    ``blocks`` yields the scaled W increments a step block at a time,
    step-major (s, n, 1), each stepped through under ``_ENGINE_LANE``, and
    ``xi`` (n, 1) holds the B stream's one normal per draw.  The
    conditional variance c = dt sum_k (s'(X_k) s(X_k) / Z_k)**2
    accumulates along the path and A_T = sqrt(c) xi.  The state update
    stays fused here instead of going through ``paths._euler_step``: the
    accumulator reuses the diffusion column that update needs, and this
    engine is the inner loop of ``estimate_limit_variance`` for every
    scalar model.

    Its per-step cost is mostly numpy call overhead, so the temporaries
    are allocated once per call and every product is written with
    ``out=``, into this function's own arrays only: the model callables
    may return views of x or cached arrays.  The operations and their
    order are those of the plain expressions in the comments, so the
    draws are bitwise the same.
    """
    n = xi.shape[0]
    dt = model.horizon / n_steps
    x = np.full(n, model.initial[0])
    z = np.ones(n)
    c = np.zeros(n)
    g = np.empty(n)
    a = np.empty(n)
    b = np.empty(n)
    for dw in blocks:
        with _ENGINE_LANE:
            for dwk in dw[:, :, 0]:
                xs = x[:, None]
                grad_diff = model.diffusion_jacobians[0](xs)[:, 0, 0]
                diff_col = model.diffusion(xs)[:, 0, 0]
                # any(|z| * _COND_LIMIT < 1): scaling by a positive constant is
                # monotone, fmin skips NaN entries and the initial covers n == 0
                if np.fmin.reduce(np.abs(z, out=a), initial=np.inf) * _COND_LIMIT < 1.0:
                    raise DegenerateTransportError("transport collapsed to zero")
                np.multiply(grad_diff, diff_col, out=g)
                g /= z
                g *= g
                c += g
                # z += (drift_jacobian * dt + grad_diff * dw_k) * z
                np.multiply(model.drift_jacobian(xs)[:, 0, 0], dt, out=a)
                np.multiply(grad_diff, dwk, out=b)
                a += b
                a *= z
                z += a
                # x += drift * dt, then x += diff_col * dw_k; every term that
                # reads x (or a view of it) is formed before x moves
                np.multiply(model.drift(xs)[:, 0], dt, out=a)
                np.multiply(diff_col, dwk, out=b)
                x += a
                x += b
    acc = np.sqrt(c * dt) * xi[:, 0]
    u = z * acc / math.sqrt(2.0)
    return x[:, None], u[:, None]


def _general_batch(model, n_steps, blocks, xi):
    """Generic d, q recursion on stacked matrices.

    ``blocks`` and ``xi`` (n, d) are as in ``_scalar_batch``, with blocks
    (s, n, q).  Each step solves Z against the q**2 columns
    (grad s_j)(X) s_i(X) and adds G G^T to the conditional covariance;
    A_T = C_T**(1/2) xi with C_T = dt sum_k G_k G_k^T and the symmetric
    square root, so C_T = 0 gives A_T = 0 exactly.  The state takes the
    package's one Euler step, ``paths._euler_step``.
    """
    n, d = xi.shape
    q = model.dim_noise
    dt = model.horizon / n_steps
    x = np.broadcast_to(model.initial, (n, d)).copy()
    z = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    cov = np.zeros((n, d, d))
    for dw in blocks:
        with _ENGINE_LANE:
            for dwk in dw:
                diff = model.diffusion(x)  # (n, d, q)
                grads = [jac(x) for jac in model.diffusion_jacobians]  # q of (n, d, d)
                # column (j, i) is (grad s_j)(x) s_i(x)
                cols = np.concatenate([grads[j] @ diff for j in range(q)], axis=2)  # (n, d, q*q)
                try:
                    g = np.linalg.solve(z, cols)
                except np.linalg.LinAlgError:
                    raise DegenerateTransportError("transport is singular") from None
                cov += g @ g.transpose(0, 2, 1)
                step = model.drift_jacobian(x) * dt
                for j in range(q):
                    step = step + grads[j] * dwk[:, j, None, None]
                z = z + np.einsum("nab,nbc->nac", step, z)
                x = _euler_step(model, x, dt, dwk, diff)
    cond = np.linalg.cond(z)
    if not np.isfinite(cond).all() or cond.max() > _COND_LIMIT:
        raise DegenerateTransportError("transport condition number above 1e12")
    cov *= dt
    w, v = np.linalg.eigh(cov)
    # v diag(sqrt(w)) v^T xi, with rounding's negative eigenvalues at 0
    scaled = np.sqrt(np.maximum(w, 0.0)) * np.einsum("nba,nb->na", v, xi)
    acc = np.einsum("nab,nb->na", v, scaled)
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

    The state path reads its W increments like an Euler chunk, through
    ``paths._step_blocks``: q words per step of the key
    (master_seed, DOMAIN_LIMIT_W, n_steps, replication), 64 steps a block,
    so a chunk holds one block of them at a time.  The accumulator,
    Gaussian given the path, consumes d words of the B stream per draw.
    Work is chunked over fixed path spans, and the engines take turns one
    block at a time (see the module's scheduling note), so results do not
    depend on ``threads``.
    """
    if n_steps < 1 or n_draws < 0:
        raise ValueError("n_steps must be >= 1 and n_draws >= 0")
    d = model.dim_state
    q = model.dim_noise
    dt = model.horizon / n_steps
    key = (master_seed, DOMAIN_LIMIT_W, n_steps, replication)
    engine = _scalar_batch if d == 1 and q == 1 else _general_batch
    x_out = np.empty((n_draws, d))
    u_out = np.empty((n_draws, d))

    def work(a, b):
        blocks = _step_blocks(key, n_steps, q, dt, _block_steps(), first_path + a, b - a)
        xi = normal_block(
            master_seed, DOMAIN_LIMIT_B, n_steps, replication, first_path + a, b - a, 1, d
        )[0]
        x_out[a:b], u_out[a:b] = engine(model, n_steps, blocks(), xi)

    _run_tasks([_chunk_tasks(n_draws, q * n_steps + d, work)], threads)
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
