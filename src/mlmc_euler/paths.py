"""Euler path simulation with counter-addressed random streams.

Reproducibility contract: every simulated path is addressed by an
explicit key (master seed, level slot, path index, replication).  Keys
map to disjoint counter ranges of Philox streams, so the numbers a path
consumes depend only on its key, never on batch boundaries, worker
count, or evaluation order.  Gaussian increments are produced by the
inverse CDF applied to 53-bit uniforms offset to the midpoint of their
lattice cell (one uint64 per variate), which keeps the per-path draw
budget fixed and makes counter jumps exact.  Each path's draw budget is
padded to a multiple of four because the underlying generator advances
in four-word blocks.  Master seeds must lie in [0, 2**64); anything
else is rejected rather than wrapped onto another seed's stream.

Scheduling contract: a batch is split into chunk tasks whose boundaries
depend only on the per-path draw budget (``_chunk_size``), never on the
thread count.  ``_run_tasks`` is the package's one scheduler: it runs
all the tasks of a call on one thread pool, submitted in (group, chunk)
order, and hands each group back to the calling thread, in group order,
as soon as its chunks are done.  Every chunk writes its own slice of a
preallocated output, so the result is bit-identical for any thread
count.  ``estimate`` uses one group per level, so it reduces each level
while the pool simulates the next ones.

Only terminal values are retained by default; ``euler_terminal`` can
return the full grid path on request.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

__all__ = [
    "RngStreamKey",
    "CoupledTerminal",
    "EulerDivergedError",
    "eta",
    "euler_terminal",
    "simulate_single",
    "simulate_coupled",
    "single_terminals",
    "coupled_terminals",
]

# Stream domains keep unrelated consumers of the same master seed apart.
DOMAIN_SINGLE = 1
DOMAIN_COUPLED = 2
DOMAIN_LIMIT_W = 3
DOMAIN_LIMIT_B = 4
DOMAIN_PILOT = 5
DOMAIN_BRACKET = 6

_U64 = (1 << 64) - 1
# Midpoint offset puts 53-bit uniforms strictly inside (0, 1) so the
# inverse CDF never sees an endpoint.
_HALF_ULP = 2.0**-54


class EulerDivergedError(RuntimeError):
    """A path left the representable range (overflow or NaN).

    Attributes:
        step_index: first Euler step whose output is non-finite.
        path_index: key path index of the offending path.
        level: multilevel level the path belonged to, when known.
    """

    def __init__(self, step_index: int, path_index: int, level: Optional[int] = None):
        where = "" if level is None else " (level %d)" % level
        super().__init__(
            "Euler path %d diverged at step %d%s" % (path_index, step_index, where)
        )
        self.step_index = step_index
        self.path_index = path_index
        self.level = level


@dataclass(frozen=True)
class RngStreamKey:
    """Address of one simulated path's randomness.

    ``level`` doubles as a stream slot for callers that are not levelled
    (single-path simulation uses it to keep unrelated runs apart).
    Distinct keys yield statistically independent streams; an identical
    key always reproduces the identical increment sequence.
    """

    master_seed: int
    level: int = 0
    path_index: int = 0
    replication: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.level < 0:
            raise ValueError("master_seed and level must be >= 0")
        if self.path_index < 0 or self.replication < 0:
            raise ValueError("path_index and replication must be >= 0")


@dataclass(frozen=True)
class CoupledTerminal:
    """Terminal states of one fine/coarse Euler pair on a shared path.

    ``cost`` counts Euler sub-steps: m**level + m**(level-1).
    """

    fine: np.ndarray
    coarse: np.ndarray
    level: int
    cost: int


def _philox(master_seed: int, domain: int, slot: int, replication: int) -> np.random.Philox:
    # Every stream passes through here; masking a seed instead of rejecting
    # it would give -1 and 2**64 - 1 the same stream.
    if not 0 <= master_seed <= _U64:
        raise ValueError("master_seed must lie in [0, 2**64)")
    seq = np.random.SeedSequence(
        entropy=int(master_seed),
        spawn_key=(domain, slot, replication),
    )
    return np.random.Philox(seq)


def _padded(draws_per_path: int) -> int:
    return 4 * ((draws_per_path + 3) // 4)


def normal_block(
    master_seed: int,
    domain: int,
    slot: int,
    replication: int,
    first_path: int,
    n_paths: int,
    draws_per_path: int,
) -> np.ndarray:
    """Standard normals for paths [first_path, first_path + n_paths).

    Returns shape (n_paths, draws_per_path).  Path p always occupies the
    counter range [p * padded, (p + 1) * padded) of its stream, so any
    partition of a path range yields bit-identical numbers.
    """
    pad = _padded(draws_per_path)
    bg = _philox(master_seed, domain, slot, replication)
    # advance() moves the counter in four-word blocks.
    bg.advance(first_path * pad // 4)
    u = np.random.Generator(bg).random(n_paths * pad)
    u = u.reshape(n_paths, pad)[:, :draws_per_path]
    return ndtri(u + _HALF_ULP)


def eta(t: float, n_steps: int, horizon: float) -> float:
    """Last grid point of the n_steps-grid on [0, horizon] at or before t.

    Snaps within a few ulps of a grid point to that point (the grid is
    conceptually exact even when horizon / n_steps is not representable)
    and never returns a value above t.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    if not 0.0 <= t <= horizon:
        raise ValueError("t must lie in [0, horizon]")
    dt = horizon / n_steps
    k = int(math.floor(t / dt))
    if (k + 1) * dt <= t or math.isclose((k + 1) * dt, t, rel_tol=4e-16):
        k += 1
    k = min(max(k, 0), n_steps)
    if k * dt > t and not math.isclose(k * dt, t, rel_tol=4e-16):
        k -= 1
    return min(k * dt, t)


def _euler_batch(
    model,
    dt: float,
    dw: np.ndarray,
    first_path: int,
) -> np.ndarray:
    """Run the Euler recursion for a batch of paths.

    ``dw`` has shape (n, steps, q).  Returns terminal states (n, d).
    Raises EulerDivergedError (with the first offending step) if any
    path becomes non-finite.
    """
    n, steps, _ = dw.shape
    x = np.broadcast_to(model.initial, (n, model.dim_state)).copy()
    for k in range(steps):
        x = (
            x
            + model.drift(x) * dt
            + np.einsum("nij,nj->ni", model.diffusion(x), dw[:, k, :])
        )
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        _locate_divergence(model, dt, dw[bad], first_path + bad)
    return x


def _locate_divergence(model, dt: float, dw_path: np.ndarray, path_index: int):
    """Re-walk one diverged path step by step to report where it broke."""
    x = model.initial.copy()
    for k in range(dw_path.shape[0]):
        x = x + model.drift(x) * dt + model.diffusion(x) @ dw_path[k]
        if not np.isfinite(x).all():
            raise EulerDivergedError(step_index=k, path_index=path_index)
    raise EulerDivergedError(step_index=dw_path.shape[0] - 1, path_index=path_index)


def euler_terminal(
    model,
    n_steps: int,
    increments: np.ndarray,
    record_path: bool = False,
) -> np.ndarray:
    """Deterministic Euler map from given Brownian increments.

    ``increments`` has shape (n_steps, q).  Returns the terminal state
    (d,), or the whole grid path (n_steps + 1, d) when ``record_path``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    increments = np.asarray(increments, dtype=float)
    if increments.shape != (n_steps, model.dim_noise):
        raise ValueError(
            "increments must have shape (%d, %d)" % (n_steps, model.dim_noise)
        )
    dt = model.horizon / n_steps
    x = model.initial.copy()
    path = [x.copy()] if record_path else None
    for k in range(n_steps):
        x = x + model.drift(x) * dt + model.diffusion(x) @ increments[k]
        if not np.isfinite(x).all():
            raise EulerDivergedError(step_index=k, path_index=0)
        if record_path:
            path.append(x.copy())
    return np.array(path) if record_path else x


def _chunk_size(draws_per_path: int) -> int:
    # Bound transient memory around ~32 MB of increments per chunk.
    return max(64, min(1 << 16, (1 << 22) // max(draws_per_path, 1)))


Task = Callable[[], None]


def _chunk_tasks(n_paths: int, chunk: int, work) -> List[Task]:
    """``work(a, b)`` over [0, n_paths) as one task per fixed chunk."""
    return [partial(work, a, min(a + chunk, n_paths)) for a in range(0, n_paths, chunk)]


def _run_tasks(
    groups: List[Optional[Sequence[Task]]],
    threads: int,
    done: Optional[Callable[[int], None]] = None,
) -> None:
    """Run every task of ``groups`` on one pool; call ``done(i)`` per group.

    Tasks are submitted in (group, task) order to a single pool of
    ``threads`` workers (run inline when ``threads`` is 1 or there is at
    most one task).  The calling thread waits for the groups in order and
    calls ``done(i)`` as soon as group i has finished, while later groups
    keep running.  ``groups[i]`` is then set to None, which releases the
    outputs its tasks write to unless the caller still holds them.

    The first failing task in (group, task) order raises, whatever the
    thread count; the pool is shut down, with its pending tasks
    cancelled, before the exception propagates.
    """
    def finish(i):
        groups[i] = None
        if done is not None:
            done(i)

    if threads <= 1 or sum(len(group) for group in groups) <= 1:
        for i in range(len(groups)):
            for task in groups[i]:
                task()
            finish(i)
        return
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        futures = [[pool.submit(task) for task in group] for group in groups]
        for i, group_futures in enumerate(futures):
            for future in group_futures:
                future.result()
            finish(i)
    finally:
        pool.shutdown(cancel_futures=True)


def _run_chunked(n_paths: int, threads: int, chunk: int, work) -> None:
    """Apply ``work(a, b)`` over [0, n_paths) in fixed chunks on one pool.

    Chunk boundaries depend only on ``chunk``, never on ``threads``; each
    chunk writes to its own output slice, so the result is independent of
    scheduling.  The chunks run through ``_run_tasks`` as a single group.
    """
    _run_tasks([_chunk_tasks(n_paths, chunk, work)], threads)


def _single_tasks(
    model,
    n_steps: int,
    n_paths: int,
    master_seed: int,
    slot: int,
    replication: int,
    first_path: int,
    domain: int,
) -> Tuple[np.ndarray, List[Task]]:
    """Allocate ``single_terminals``' output and return it with its chunk tasks."""
    if n_steps < 1 or n_paths < 0:
        raise ValueError("n_steps must be >= 1 and n_paths >= 0")
    q = model.dim_noise
    dt = model.horizon / n_steps
    out = np.empty((n_paths, model.dim_state))
    draws = q * n_steps

    def work(a, b):
        z = normal_block(
            master_seed, domain, slot, replication, first_path + a, b - a, draws
        )
        dw = math.sqrt(dt) * z.reshape(b - a, n_steps, q)
        out[a:b] = _euler_batch(model, dt, dw, first_path + a)

    return out, _chunk_tasks(n_paths, _chunk_size(draws), work)


def single_terminals(
    model,
    n_steps: int,
    n_paths: int,
    master_seed: int,
    slot: int = 0,
    replication: int = 0,
    first_path: int = 0,
    threads: int = 1,
    domain: int = DOMAIN_SINGLE,
) -> np.ndarray:
    """Terminal states of n_paths independent n_steps Euler paths, shape (n, d)."""
    out, tasks = _single_tasks(
        model, n_steps, n_paths, master_seed, slot, replication, first_path, domain
    )
    _run_tasks([tasks], threads)
    return out


def _coupled_tasks(
    model,
    level: int,
    m: int,
    n_paths: int,
    master_seed: int,
    replication: int,
    first_path: int,
) -> Tuple[Tuple[np.ndarray, np.ndarray], List[Task]]:
    """Allocate ``coupled_terminals``' outputs and return them with their chunk tasks."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    q = model.dim_noise
    nf = m**level
    nc = m ** (level - 1)
    dtf = model.horizon / nf
    dtc = model.horizon / nc
    fine = np.empty((n_paths, model.dim_state))
    coarse = np.empty((n_paths, model.dim_state))
    draws = q * nf

    def work(a, b):
        z = normal_block(
            master_seed, DOMAIN_COUPLED, level, replication, first_path + a, b - a, draws
        )
        dw = math.sqrt(dtf) * z.reshape(b - a, nf, q)
        fine[a:b] = _euler_batch(model, dtf, dw, first_path + a)
        dw_c = dw.reshape(b - a, nc, m, q).sum(axis=2)
        coarse[a:b] = _euler_batch(model, dtc, dw_c, first_path + a)

    return (fine, coarse), _chunk_tasks(n_paths, _chunk_size(draws), work)


def coupled_terminals(
    model,
    level: int,
    m: int,
    n_paths: int,
    master_seed: int,
    replication: int = 0,
    first_path: int = 0,
    threads: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fine and coarse terminal states driven by the same Brownian paths.

    The fine scheme takes m**level steps; the coarse scheme takes
    m**(level-1) steps and consumes the exact block sums of the fine
    increments, which is what makes the pair a coupling rather than two
    independent runs.  Returns arrays (n, d), (n, d).
    """
    (fine, coarse), tasks = _coupled_tasks(
        model, level, m, n_paths, master_seed, replication, first_path
    )
    _run_tasks([tasks], threads)
    return fine, coarse


def simulate_single(model, n_steps: int, key: RngStreamKey) -> Tuple[np.ndarray, int]:
    """One keyed Euler path; returns (terminal state (d,), cost in sub-steps)."""
    term = single_terminals(
        model,
        n_steps,
        1,
        key.master_seed,
        slot=key.level,
        replication=key.replication,
        first_path=key.path_index,
    )
    return term[0], n_steps


def simulate_coupled(model, level: int, m: int, key: RngStreamKey) -> CoupledTerminal:
    """One keyed coupled fine/coarse pair at the given level."""
    if key.level != level:
        raise ValueError("key.level must match the requested level")
    fine, coarse = coupled_terminals(
        model,
        level,
        m,
        1,
        key.master_seed,
        replication=key.replication,
        first_path=key.path_index,
    )
    return CoupledTerminal(
        fine=fine[0],
        coarse=coarse[0],
        level=level,
        cost=m**level + m ** (level - 1),
    )
