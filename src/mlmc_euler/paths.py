"""Euler path simulation with counter-addressed random streams.

Reproducibility contract: every simulated path is addressed by an
explicit key (master seed, level slot, path index, replication).  Keys
map to disjoint counter ranges of Philox streams, so the numbers a path
consumes depend only on its key, never on batch boundaries, worker
count, or evaluation order.  Gaussian increments are produced by the
inverse CDF applied to 53-bit uniforms offset to the midpoint of their
lattice cell (one uint64 per variate), which keeps the per-path draw
budget fixed and makes counter jumps exact.

An Euler path's steps, the limit law's among them, are cut into step
blocks of 64 steps, or of m * ceil(64 / m) fine steps for a coupled
pair, so that a block holds whole coarse steps; the last block takes
what is left.  Step block j reads its own stream: the key's Philox
stream with counter word 2 set to j, so a path of at most one block
reads block 0, the key's stream as it starts.  Path p of an s-step block
of width q owns words [p * s * q, (p + 1) * s * q) of its stream, with
no padding.  The generator advances in four-word blocks, so a call
jumps to the block that holds its first word and drops the words of
that block that belong to earlier paths.  ``_step_blocks`` is the one
reader of multi-step increments; every other consumer asks for one
step.  Master seeds must lie in [0, 2**64); anything else is rejected
rather than wrapped onto another seed's stream, and so is a negative
path, a step block outside [0, 2**128) or a word past 2**130 of a step
block's stream.

Layout contract: ``normal_block`` returns step-major normals, shape
(steps, n, q), and every Euler kernel takes its Brownian increments in
that layout, so each step reads one contiguous (n, q) slice.  Callers
scale them by sqrt(dt) in place.  Only ``normal_block`` knows that the
stream is addressed per path.  The Euler chunks and the limit law's
engines draw one step block at a time and step through it before the
next is drawn, so they hold one block of increments, however many steps
their paths take.  A consumer with no time steps (the limit law's second
stream, the bracket check's whole paths) asks for one step and takes
its (n, width) slice ``[0]``.

Scheduling contract: a batch is split into chunk tasks (``_chunk_tasks``)
whose boundaries depend only on what a path draws and what a chunk holds
of it at once (``_chunk_size``), never on the thread count: a chunk does
at most 2**22 draws of work and holds at most 2**19 (4 MB), so an Euler
chunk of short paths, each one step block, holds no more than one of long
paths.  Boundaries never move a number.  ``_euler_tasks`` is the
one builder of Euler chunk tasks, for a fine leg alone or a coupled
fine/coarse pair, and ``_level_tasks`` is the one place that maps a
level of the multilevel telescope to its key, step count and legs.
``_run_tasks`` is the package's one scheduler: it runs all the tasks of
a call on one thread pool, submitted in (group, chunk) order, and hands
each group back to the calling thread, in group order, as soon as its
chunks are done.  A chunk hands its terminals to a consumer, which
writes them, or values computed from them, into its own slice of a
preallocated output, or files them under the chunk's first path for the
calling thread, so the result is bit-identical for any thread count.
``single_terminals`` and ``coupled_terminals`` keep the terminals.
``estimate`` keeps no terminals and no level-sized array: it uses one
group per chunk, and the calling thread feeds each chunk's payoff values,
in chunk order, into its level's fixed blocks of 2**16 values while the
pool simulates the next chunks, so the reduction order depends on
neither the chunk size nor the thread count.
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
    step_block: int = 0,
) -> np.ndarray:
    """Standard normals for paths [first_path, first_path + n_paths), step-major.

    Returns a C-contiguous array of shape (n_steps, n_paths, width):
    step k of path p is ``out[k, p - first_path]``.  The words come from
    the stream of step block ``step_block``, the key's Philox stream with
    counter word 2 set to ``step_block``; block 0 is the key's stream as
    it starts.  With d = n_steps * width, path p reads words
    [p * d, (p + 1) * d) of that stream, step by step, so any partition
    of a path range yields bit-identical numbers; only the four-word
    blocks that hold these words are generated.  The rows are drawn and
    transformed a block of paths at a time in one buffer, and each block
    is written step-major while it is in cache.
    """
    d = n_steps * width
    first_word = first_path * d
    # counter words 0-1 address a step block's 2**130 words and words 2-3
    # the step block; an address past either would wrap onto other words
    if first_path < 0:
        raise ValueError("first_path must be >= 0")
    if not 0 <= step_block < 1 << 128:
        raise ValueError("step_block must lie in [0, 2**128)")
    if first_word + n_paths * d > 1 << 130:
        raise ValueError("the paths run past word 2**130 of their step block's stream")
    bg = _philox(master_seed, domain, slot, replication)
    # advance() moves the 256-bit counter in four-word blocks, so 2**128
    # of them add one to counter word 2; the words of the first block that
    # precede first_word are drawn and dropped
    bg.advance((step_block << 128) + first_word // 4)
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


# Fine steps per step block of an Euler path (see the stream contract).
_STEP_BLOCK = 64


def _block_steps(m: int = 1) -> int:
    """Fine steps per step block: m * ceil(64 / m), so it holds whole coarse steps."""
    return m * -(-_STEP_BLOCK // m)


def _step_blocks(key: tuple, n_steps: int, width: int, dt: float, block: int, first: int, n: int):
    """The ``blocks`` of ``_euler_batch`` and the limit law for paths [first, first + n) of ``key``.

    ``key`` is (master_seed, domain, slot, replication).  Block j holds
    steps [j * block, (j + 1) * block) of the paths, scaled by sqrt(dt).
    Each block is released before the next is drawn, but the last one
    lives as long as ``blocks``: a chunk that freed it before its consumer
    ran would have glibc trim the heap and fault it back in on every small
    ``estimate`` call (about 120 more minor faults per call at n = 64).
    """
    last = []

    def blocks(row=None):
        a, count = (first, n) if row is None else (first + row, 1)
        for j, k in enumerate(range(0, n_steps, block)):
            last.clear()
            last.append(normal_block(*key, a, count, min(block, n_steps - k), width, step_block=j))
            last[0] *= math.sqrt(dt)
            yield last[0]

    return blocks


def _block_sums(dw: np.ndarray, m: int) -> np.ndarray:
    """Sums of m consecutive steps of ``dw`` (s, n, q), added left to right."""
    if m == 1:
        return dw
    # numpy's sum over the m axis adds pairwise once m >= 8 if that axis is
    # contiguous, which it is for a one-path batch with q = 1, so a path's
    # coarse leg would depend on the batch it is simulated in.
    parts = dw.reshape(-1, m, *dw.shape[1:])
    out = parts[:, 0] + parts[:, 1]
    for i in range(2, m):
        out += parts[:, i]
    return out


def _euler_steps(model, x: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
    """``x`` after one Euler step per increment slice ``dw[k]``, in order.

    A function of its own so that its loop's last view of a block dies
    with the call, before the next block is drawn.
    """
    for step in dw:
        x = _euler_step(model, x, dt, step, model.diffusion(x))
    return x


def _euler_batch(model, legs, blocks, first_path: int) -> List[np.ndarray]:
    """Run the Euler recursion for a batch of paths, one step block at a time.

    ``blocks()`` yields the batch's scaled fine increments a step block at
    a time, step-major (s, n, q), and ``blocks(row)`` the same blocks of
    that row alone, (s, 1, q).  Each leg (dt, m) steps with dt on the
    sums of m consecutive fine increments; m = 1 is the fine leg.  Every
    leg runs through a block before the next one is drawn.  Returns each
    leg's terminal states (n, d).

    Raises EulerDivergedError if any path ends non-finite: the lowest such
    path over all legs is re-run alone, its blocks drawn again, to report
    its first non-finite step on the first leg that ends non-finite there
    (the fine leg if it does).  Chunks raise in path order, so the report
    does not depend on where chunks are cut.
    """
    # every path starts from the same state, so the first step evaluates
    # the coefficients on one row and broadcasts them over the batch
    xs = [model.initial[None, :]] * len(legs)
    for dw in blocks():
        for i, (dt, m) in enumerate(legs):
            xs[i] = _euler_steps(model, xs[i], dt, _block_sums(dw, m))
        del dw  # so that the next block is drawn with this one freed
    bad = np.stack([~np.isfinite(x).all(axis=1) for x in xs])
    rows = np.flatnonzero(bad.any(axis=0))
    if rows.size:
        row = int(rows[0])
        dt, m = legs[int(np.argmax(bad[:, row]))]
        x = model.initial[None, :]
        steps = (step for dw in blocks(row) for step in _block_sums(dw, m))
        for k, step in enumerate(steps):
            x = _euler_step(model, x, dt, step, model.diffusion(x))
            if not np.isfinite(x).all():
                break
        raise EulerDivergedError(step_index=k, path_index=first_path + row)
    return xs


def _chunk_size(draws_per_path: int, held_per_path: int) -> int:
    # A chunk does about 2**22 draws of work, which sets the cost of one
    # task, and holds at most 2**19 of them (4 MB) at once: the Euler chunks
    # and the limit law hold one step block per path, the bracket check its
    # whole paths.  A chunk at the floor of 64 paths may exceed either budget.
    return max(
        64,
        min(1 << 16, (1 << 22) // max(draws_per_path, 1), (1 << 19) // max(held_per_path, 1)),
    )


Task = Callable[[], None]


def _chunk_tasks(n_paths: int, draws_per_path: int, held_per_path: int, work) -> List[Task]:
    """``work(a, b)`` over [0, n_paths) as one task per chunk of ``_chunk_size`` paths."""
    chunk = _chunk_size(draws_per_path, held_per_path)
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
    i has finished, while later groups keep running.  ``groups[i]`` is
    then set to None, which releases the outputs its tasks write to
    unless the caller still holds them.

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


def _euler_tasks(
    model, key: tuple, n_steps: int, m: int, n_paths: int, first_path: int, consume
) -> List[Task]:
    """Chunk tasks of paths [first_path, first_path + n_paths) of ``key``.

    Each task runs the fine leg of n_steps steps, and with m >= 2 the
    coarse leg of n_steps / m steps on the sums of m consecutive fine
    increments, then calls ``consume(a, b, *terminals)``: one fresh array
    (b - a, d) per leg, for paths [a, b) of the batch.
    """
    if n_steps < 1 or n_paths < 0:
        raise ValueError("n_steps must be >= 1 and n_paths >= 0")
    dt = model.horizon / n_steps
    legs = [(dt, 1)] if m == 1 else [(dt, 1), (model.horizon / (n_steps // m), m)]
    q = model.dim_noise
    block = _block_steps(m)

    def work(a, b):
        blocks = _step_blocks(key, n_steps, q, dt, block, first_path + a, b - a)
        consume(a, b, *_euler_batch(model, legs, blocks, first_path + a))

    return _chunk_tasks(n_paths, q * n_steps, q * min(n_steps, block), work)


def _level_tasks(
    model, level: int, m: int, n_paths: int, master_seed: int, replication: int,
    first_path: int, consume,
) -> List[Task]:
    """Chunk tasks of level ``level`` of the multilevel telescope.

    The one place that keys a level: level 0 is one-step paths on slot 0
    of ``DOMAIN_SINGLE``; level l >= 1 is coupled pairs of m**l and
    m**(l-1) steps on slot l of ``DOMAIN_COUPLED``.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if level == 0:
        key = (master_seed, DOMAIN_SINGLE, 0, replication)
        return _euler_tasks(model, key, 1, 1, n_paths, first_path, consume)
    key = (master_seed, DOMAIN_COUPLED, level, replication)
    return _euler_tasks(model, key, m**level, m, n_paths, first_path, consume)


def _terminals(model, n_paths: int, n_legs: int, threads: int, build) -> List[np.ndarray]:
    """Each leg's terminal states (n, d), from tasks built (and checked) before them."""
    outs = []

    def keep(a, b, *xs):
        for out, x in zip(outs, xs):
            out[a:b] = x

    tasks = build(keep)
    outs += [np.empty((n_paths, model.dim_state)) for _ in range(n_legs)]
    _run_tasks([tasks], threads)
    return outs


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
    key = (master_seed, domain, slot, replication)
    build = partial(_euler_tasks, model, key, n_steps, 1, n_paths, first_path)
    (out,) = _terminals(model, n_paths, 1, threads, build)
    return out


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
    m**(level-1) steps and consumes the exact sums of each m consecutive
    fine increments, which is what makes the pair a coupling rather than two
    independent runs.  Returns arrays (n, d), (n, d).
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    build = partial(_level_tasks, model, level, m, n_paths, master_seed, replication, first_path)
    fine, coarse = _terminals(model, n_paths, 2, threads, build)
    return fine, coarse
