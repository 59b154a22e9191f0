"""Euler path simulation with counter-addressed random streams.

Reproducibility contract: every simulated path is addressed by an
explicit key (master seed, level slot, path index, replication).  Keys
map to disjoint counter ranges of Philox streams, so the numbers a path
consumes depend only on its key, never on batch boundaries, worker
count, or evaluation order.  Gaussian increments are produced by the
inverse CDF applied to 53-bit uniforms offset to the midpoint of their
lattice cell (one uint64 per variate), which keeps the per-path draw
budget fixed and makes counter jumps exact.  Path p of a d-draw budget
owns words [p * d, (p + 1) * d) of its stream, with no padding.  The
generator advances in four-word blocks, so a call jumps to the block
that holds its first word and drops the words of that block that belong
to earlier paths.  Master seeds must lie in [0, 2**64); anything else is
rejected rather than wrapped onto another seed's stream.

Layout contract: ``normal_block`` returns step-major normals, shape
(steps, n, q), and every Euler kernel takes its Brownian increments in
that layout, so each step reads one contiguous (n, q) slice.  Callers
scale them by sqrt(dt) in place.  Only ``normal_block`` knows that the
stream is addressed per path.  A consumer with no time steps (the limit
law's second stream, the bracket check's whole paths) asks for one step
and takes its (n, width) slice ``[0]``.

Scheduling contract: a batch is split into chunk tasks whose boundaries
depend only on the per-path draw budget (``_chunk_size``), never on the
thread count.  ``_run_tasks`` is the package's one scheduler: it runs
all the tasks of a call on one thread pool, submitted in (group, chunk)
order, and hands each group back to the calling thread, in group order,
as soon as its chunks are done.  A chunk hands its terminals to a
consumer that writes them, or values computed from them, into its own
slice of a preallocated output, so the result is bit-identical for any
thread count.  ``single_terminals`` and ``coupled_terminals`` keep the
terminals.  ``estimate`` keeps only each level's payoff values, uses one
group per level, and reduces each level on the calling thread while the
pool simulates the next ones: in fixed blocks of 2**16 values, one pass
for the mean and one for the centred moments, so the reduction order
depends on neither the chunk size nor the thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

__all__ = [
    "EulerDivergedError",
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


def _philox(master_seed: int, domain: int, slot: int, replication: int) -> np.random.Philox:
    # Every stream passes through here; masking a seed instead of rejecting
    # it would give -1 and 2**64 - 1 the same stream.
    if not 0 <= master_seed <= _U64:
        raise ValueError("master_seed must lie in [0, 2**64)")
    if replication < 0:
        raise ValueError("replication must be >= 0")
    seq = np.random.SeedSequence(
        entropy=int(master_seed),
        spawn_key=(domain, slot, replication),
    )
    return np.random.Philox(seq)


# Paths per block of ``normal_block``: at least 256, and about 2**16
# elements per block, so a chunk of short paths is a single block.
_BLOCK_ELEMENTS = 1 << 16
_MIN_BLOCK_PATHS = 256


def normal_block(
    master_seed: int,
    domain: int,
    slot: int,
    replication: int,
    first_path: int,
    n_paths: int,
    n_steps: int,
    width: int,
) -> np.ndarray:
    """Standard normals for paths [first_path, first_path + n_paths), step-major.

    Returns a C-contiguous array of shape (n_steps, n_paths, width):
    step k of path p is ``out[k, p - first_path]``.  With d = n_steps *
    width, path p reads words [p * d, (p + 1) * d) of its stream, step by
    step, so any partition of a path range yields bit-identical numbers;
    only the four-word blocks that hold these words are generated.  The
    rows are drawn and transformed a block of paths at a time in one
    buffer, and each block is written step-major while it is in cache.
    """
    d = n_steps * width
    first_word = first_path * d
    bg = _philox(master_seed, domain, slot, replication)
    # advance() moves the counter in four-word blocks; the words of the
    # first block that precede first_word are drawn and dropped
    bg.advance(first_word // 4)
    bg.random_raw(first_word % 4)
    gen = np.random.Generator(bg)
    out = np.empty((n_steps, n_paths, width))
    block = max(_MIN_BLOCK_PATHS, _BLOCK_ELEMENTS // d)
    buf = np.empty(min(block, n_paths) * d)
    for a in range(0, n_paths, block):
        b = min(a + block, n_paths)
        rows = buf[: (b - a) * d]
        gen.random(out=rows)
        rows += _HALF_ULP
        ndtri(rows, out=rows)
        out[:, a:b] = rows.reshape(b - a, n_steps, width).transpose(1, 0, 2)
    return out


def _euler_step(model, x: np.ndarray, dt: float, dw: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """One Euler step x + b(x) dt + s(x) dW for increments (n, q).

    States are (n, d), or (1, d) for a start that all n paths share.
    ``diff`` is s(x), shape (n, d, q) or (1, d, q); the limit law
    evaluates it once per step for its transport as well.
    """
    return x + model.drift(x) * dt + np.einsum("nij,nj->ni", diff, dw)


def _euler_batch(
    model,
    dt: float,
    dw: np.ndarray,
    first_path: int,
) -> np.ndarray:
    """Run the Euler recursion for a batch of paths.

    ``dw`` is step-major, shape (steps, n, q): step k reads the
    contiguous slice ``dw[k]``.  Returns terminal states (n, d).
    Raises EulerDivergedError if any path ends non-finite; the first
    such path is then re-run alone to report its first non-finite step.
    """
    steps, n, _ = dw.shape
    # every path starts from the same state, so the first step evaluates
    # the coefficients on one row and broadcasts them over the batch
    x = model.initial[None, :]
    for k in range(steps):
        x = _euler_step(model, x, dt, dw[k], model.diffusion(x))
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        row = int(bad[0])
        x = model.initial[None, :]
        for k in range(steps):
            x = _euler_step(model, x, dt, dw[k, row : row + 1], model.diffusion(x))
            if not np.isfinite(x).all():
                break
        raise EulerDivergedError(step_index=k, path_index=first_path + row)
    return x


def _chunk_size(draws_per_path: int) -> int:
    # A chunk holds its increments once, so this bounds them at ~32 MB
    # (2**22 doubles) per chunk.
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
    most one task; ``threads`` below 1 is rejected).  The calling thread
    waits for the groups in order and calls ``done(i)`` as soon as group
    i has finished, while later groups keep running.  ``groups[i]`` is then set to None, which releases the
    outputs its tasks write to unless the caller still holds them.

    The first failing task in (group, task) order raises, whatever the
    thread count; the pool is shut down, with its pending tasks
    cancelled, before the exception propagates.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")

    def finish(i):
        groups[i] = None
        if done is not None:
            done(i)

    if threads == 1 or sum(len(group) for group in groups) <= 1:
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


def _single_tasks(
    model,
    n_steps: int,
    n_paths: int,
    master_seed: int,
    slot: int,
    replication: int,
    first_path: int,
    domain: int,
    consume: Callable[[int, int, np.ndarray], None],
) -> List[Task]:
    """Chunk tasks of ``single_terminals``: each calls ``consume(a, b, x)``.

    ``x`` holds the terminal states (b - a, d) of paths [a, b) of the
    batch, in a fresh array.
    """
    if n_steps < 1 or n_paths < 0:
        raise ValueError("n_steps must be >= 1 and n_paths >= 0")
    q = model.dim_noise
    dt = model.horizon / n_steps

    def work(a, b):
        dw = normal_block(
            master_seed, domain, slot, replication, first_path + a, b - a, n_steps, q
        )
        dw *= math.sqrt(dt)
        consume(a, b, _euler_batch(model, dt, dw, first_path + a))

    return _chunk_tasks(n_paths, _chunk_size(q * n_steps), work)


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

    def keep(a, b, x):
        out[a:b] = x

    tasks = _single_tasks(
        model, n_steps, n_paths, master_seed, slot, replication, first_path, domain, keep
    )
    out = np.empty((n_paths, model.dim_state))
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
    consume: Callable[[int, int, np.ndarray, np.ndarray], None],
) -> List[Task]:
    """Chunk tasks of ``coupled_terminals``: each calls ``consume(a, b, fine, coarse)``.

    ``fine`` and ``coarse`` hold the terminal states (b - a, d) of paths
    [a, b) of the batch, in fresh arrays.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    q = model.dim_noise
    nf = m**level
    nc = m ** (level - 1)
    dtf = model.horizon / nf
    dtc = model.horizon / nc

    def work(a, b):
        dw = normal_block(
            master_seed, DOMAIN_COUPLED, level, replication, first_path + a, b - a, nf, q
        )
        dw *= math.sqrt(dtf)
        fine = _euler_batch(model, dtf, dw, first_path + a)
        # Added left to right for any batch.  numpy's sum over the m axis
        # adds pairwise once m >= 8 if that axis is contiguous, which it is
        # for a one-path batch with q = 1, so a path's coarse leg would
        # depend on the batch it is simulated in.
        blocks = dw.reshape(nc, m, b - a, q)
        dw_c = blocks[:, 0] + blocks[:, 1]
        for i in range(2, m):
            dw_c += blocks[:, i]
        consume(a, b, fine, _euler_batch(model, dtc, dw_c, first_path + a))

    return _chunk_tasks(n_paths, _chunk_size(q * nf), work)


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

    def keep(a, b, f, c):
        fine[a:b] = f
        coarse[a:b] = c

    tasks = _coupled_tasks(
        model, level, m, n_paths, master_seed, replication, first_path, keep
    )
    fine = np.empty((n_paths, model.dim_state))
    coarse = np.empty((n_paths, model.dim_state))
    _run_tasks([tasks], threads)
    return fine, coarse
