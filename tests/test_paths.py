"""Path engine: keyed streams, the Euler kernel, couplings."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri as scipy_ndtri

import mlmc_euler as me
from mlmc_euler import paths
from mlmc_euler.paths import (
    DOMAIN_COUPLED,
    DOMAIN_SINGLE,
    EulerDivergedError,
    _euler_batch,
    _step_blocks,
)

# sha256 of normal_block(0, DOMAIN_SINGLE, 0, 0, 3, 5, 1, d).tobytes() for
# d = 8 and 512.  A budget that is a multiple of four words starts every
# path on a Philox block boundary; the crude n = 512 paths and the limit
# law's 2 * 1024 draws are such budgets, and these digests pin their layout
BLOCK_ALIGNED_SHA256 = {
    8: "f1befeb42d158bc234600522ecf0560daab3728c1b9bc112f094b386e710fea2",
    512: "60ebf66dded65541f0a8ce7ab14a26612afc3a74d7df7c68f90c195e7eb34460",
}

# sha256 of the terminals of GBM(1, 0.05, 0.2, 1) at seed 7, replication 2,
# paths 5..1004, recorded before paths were cut into step blocks: a path of
# at most one block (64 steps, and level 6 at m = 2) keeps its bytes
ONE_BLOCK_SHA256 = {
    "single 64 steps, slot 1": "bcc50d7b60cc6008f8fda041d52446e9d293639c859791d4800db1d6e17a2c9f",
    "coupled level 6, m = 2": "5d18cd4b225c8c6c7b098af8d634b90506d30421280d2a95ba79bf7c79bdfac9",
}


def block_normals(seed, domain, slot, rep, first, n, n_steps, width, block):
    """(n_steps, n, width) normals of paths cut into ``block``-step blocks.

    Block j is ``normal_block(..., step_block=j)`` of its own steps; the
    last block takes what is left.
    """
    return np.concatenate(
        [
            me.normal_block(
                seed, domain, slot, rep, first, n, min(block, n_steps - k), width, step_block=j
            )
            for j, k in enumerate(range(0, n_steps, block))
        ]
    )


def euler(model, dt, dw, first_path=0, cuts=()):
    """The fine leg of ``_euler_batch`` fed ``dw`` (steps, n, q).

    The steps come as one block, or cut into blocks before each step
    index in ``cuts``.
    """
    parts = np.split(dw, list(cuts))
    blocks = lambda row=None: [p if row is None else p[:, row : row + 1] for p in parts]
    (x,) = _euler_batch(model, [(dt, 1)], blocks, first_path)
    return x


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


def threshold_model(level):
    """dX = b(X) dt + dW from 0, with b = +inf above ``level``.

    The Euler path equals W on the grid until it first exceeds ``level``.
    """

    def drift(x):
        return np.where(x > level, np.inf, 0.0)

    return me.SdeModel(
        dim_state=1,
        dim_noise=1,
        initial=np.array([0.0]),
        horizon=1.0,
        drift=drift,
        diffusion=lambda x: np.ones((x.shape[0], 1, 1)),
        drift_jacobian=lambda x: np.zeros((x.shape[0], 1, 1)),
        diffusion_jacobians=(lambda x: np.zeros((x.shape[0], 1, 1)),),
    )


# ------------------------------------------------------- normal blocks


def test_normal_block_reproducible_and_keyed():
    a = me.normal_block(42, DOMAIN_SINGLE, 3, 0, 0, 5, 1, 7)
    b = me.normal_block(42, DOMAIN_SINGLE, 3, 0, 0, 5, 1, 7)
    assert a.shape == (1, 5, 7)
    np.testing.assert_array_equal(a, b)
    for other in (
        me.normal_block(43, DOMAIN_SINGLE, 3, 0, 0, 5, 1, 7),
        me.normal_block(42, DOMAIN_COUPLED, 3, 0, 0, 5, 1, 7),
        me.normal_block(42, DOMAIN_SINGLE, 4, 0, 0, 5, 1, 7),
        me.normal_block(42, DOMAIN_SINGLE, 3, 1, 0, 5, 1, 7),
    ):
        assert not np.array_equal(a, other)


@settings(max_examples=50, deadline=None)
@given(
    n_paths=st.integers(1, 40),
    split=st.integers(0, 40),
    n_steps=st.integers(1, 6),
    width=st.integers(1, 3),
)
def test_normal_block_partition_is_bit_identical(n_paths, split, n_steps, width):
    split = min(split, n_paths)
    whole = me.normal_block(7, DOMAIN_SINGLE, 2, 1, 0, n_paths, n_steps, width)
    head = me.normal_block(7, DOMAIN_SINGLE, 2, 1, 0, split, n_steps, width)
    tail = me.normal_block(7, DOMAIN_SINGLE, 2, 1, split, n_paths - split, n_steps, width)
    np.testing.assert_array_equal(np.concatenate([head, tail], axis=1), whole)


@pytest.mark.parametrize("draws", [1, 2, 3, 5, 6, 7])
def test_paths_own_consecutive_word_ranges(draws):
    # path p reads words [p * d, (p + 1) * d) of one stream: any block
    # equals the matching run of words drawn as a single long path
    n = 9
    z = me.normal_block(5, DOMAIN_SINGLE, 2, 1, 0, n, 1, draws)[0]
    one = me.normal_block(5, DOMAIN_SINGLE, 2, 1, 0, 1, 1, n * draws)[0]
    np.testing.assert_array_equal(z.ravel(), one.ravel())
    for first in (1, 2, 3, 5):
        tail = me.normal_block(5, DOMAIN_SINGLE, 2, 1, first, n - first, 1, draws)[0]
        assert tail.shape == (n - first, draws) and tail.flags.c_contiguous
        np.testing.assert_array_equal(tail.ravel(), one[0, first * draws :])


def _counter(bit_generator):
    words = bit_generator.state["state"]["counter"]
    return sum(int(w) << (64 * i) for i, w in enumerate(words))


@pytest.mark.parametrize(
    "first, n, draws",
    [(0, 4, 1), (3, 5, 1), (7, 3, 3), (5, 2, 6), (2, 0, 3), (1, 1, 8), (3, 601, 299)],
)
def test_normal_block_generates_only_the_blocks_it_reads(monkeypatch, first, n, draws):
    # after the jump to block floor(p d / 4), a call reads the blocks that
    # hold its first word's offset in that block plus its n d words; a
    # call of n_steps steps of width d / n_steps builds one Philox and
    # reads the same blocks, however many path blocks it is drawn in
    # (601 paths of 299 words are three)
    made = []
    plain = paths._philox

    def keep(*args):
        bg = plain(*args)
        made.append((bg, _counter(bg)))
        return bg

    monkeypatch.setattr(paths, "_philox", keep)
    skip, offset = divmod(first * draws, 4)
    for n_steps in (s for s in (1, 3, draws) if draws % s == 0):
        made.clear()
        me.normal_block(0, DOMAIN_SINGLE, 0, 0, first, n, n_steps, draws // n_steps)
        (bg, start), = made
        assert _counter(bg) - start == skip + -(-(offset + n * draws) // 4)


@pytest.mark.parametrize("draws", sorted(BLOCK_ALIGNED_SHA256))
def test_block_aligned_budgets_keep_their_stream(draws):
    z = me.normal_block(0, DOMAIN_SINGLE, 0, 0, 3, 5, 1, draws)[0]
    assert hashlib.sha256(z.tobytes()).hexdigest() == BLOCK_ALIGNED_SHA256[draws]


def test_master_seed_outside_64_bits_is_rejected():
    # a masked seed would alias: -1 onto 2**64 - 1 and 2**64 onto 0
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="master_seed"):
            me.normal_block(seed, DOMAIN_SINGLE, 0, 0, 0, 4, 1, 2)
        with pytest.raises(ValueError, match="master_seed"):
            me.single_terminals(model, 2, 4, seed)
        with pytest.raises(ValueError, match="master_seed"):
            me.estimate(model, me.identity_payoff(), me.plan_bak(4, 2, 1.0), seed, bias_pilot=0)
    low = me.normal_block(0, DOMAIN_SINGLE, 0, 0, 0, 4, 1, 2)
    high = me.normal_block(2**64 - 1, DOMAIN_SINGLE, 0, 0, 0, 4, 1, 2)
    assert np.isfinite(low).all() and np.isfinite(high).all()
    assert not np.array_equal(low, high)


def test_negative_replication_is_rejected():
    # SeedSequence would reject it too, but with a message naming no key
    with pytest.raises(ValueError, match="replication"):
        me.normal_block(0, DOMAIN_SINGLE, 0, -1, 0, 4, 1, 2)
    with pytest.raises(ValueError, match="replication"):
        me.single_terminals(me.make_gbm(1.0, 0.05, 0.2, 1.0), 2, 4, 0, replication=-1)


def test_addresses_outside_a_step_block_stream_are_rejected():
    # each would wrap onto words of another path or step block: paths 2**126
    # and 2**126 + 1 of 64 words start at word 2**132, which is step block 4
    # of paths 0 and 1
    with pytest.raises(ValueError, match="first_path"):
        me.normal_block(0, DOMAIN_SINGLE, 0, 0, -1, 2, 64, 1)
    for step_block in (-1, 2**128):
        with pytest.raises(ValueError, match="step_block"):
            me.normal_block(0, DOMAIN_SINGLE, 0, 0, 0, 2, 64, 1, step_block=step_block)
    for first, n in ((2**126, 2), (2**124 - 1, 2), (0, 2**130 + 1)):
        with pytest.raises(ValueError, match="2\\*\\*130"):
            me.normal_block(0, DOMAIN_SINGLE, 0, 0, first, n, 64, 1)
    with pytest.raises(ValueError, match="2\\*\\*130"):
        me.single_terminals(me.make_gbm(1.0, 0.05, 0.2, 1.0), 64, 2, 0, first_path=2**126)
    # the last path and step block of the stream are still addressable
    last = me.normal_block(0, DOMAIN_SINGLE, 0, 0, 2**124 - 1, 1, 64, 1, step_block=2**128 - 1)
    assert np.isfinite(last).all()


def test_negative_path_counts_are_rejected():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    with pytest.raises(ValueError, match="n_paths >= 0"):
        me.single_terminals(model, 4, -1, 0)
    with pytest.raises(ValueError, match="n_paths >= 0"):
        me.coupled_terminals(model, 2, 2, -1, 0)


def test_normal_block_moments_are_sane():
    z = me.normal_block(0, DOMAIN_SINGLE, 0, 0, 0, 2000, 16, 1)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02
    assert np.isfinite(z).all()


@pytest.mark.parametrize("first", [0, 3])
def test_normal_block_is_step_major_across_blocks(first):
    # 1000 paths of 512 steps span three full 256-path blocks and a short
    # one; a first path off a block boundary shifts every block edge.
    # Step k of path p is the k-th width of p's one-step row, bitwise, and
    # a path drawn alone (one block) gives the same numbers.
    for n_steps, width in ((512, 1), (299, 1), (300, 2), (1, 1)):
        z = me.normal_block(3, DOMAIN_SINGLE, 0, 0, first, 1000, n_steps, width)
        assert z.shape == (n_steps, 1000, width) and z.flags.c_contiguous
        rows = me.normal_block(3, DOMAIN_SINGLE, 0, 0, first, 1000, 1, n_steps * width)[0]
        expect = rows.reshape(1000, n_steps, width).transpose(1, 0, 2)
        np.testing.assert_array_equal(z, expect)
        for p in (0, 255, 256, 999):
            alone = me.normal_block(3, DOMAIN_SINGLE, 0, 0, first + p, 1, n_steps, width)
            np.testing.assert_array_equal(alone[:, 0], z[:, p])


# ------------------------------------------------------------- euler


def test_euler_terminal_hand_computed_values():
    # two steps of 1 + x dW from x0=1: (1 + 0.5)(1 - 0.25)
    gbm = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    out = euler(gbm, 0.5, np.array([[[0.5]], [[-0.25]]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 1.125
    # pure drift, four steps of rate 1: (1 + 1/4)**4
    ode = me.make_gbm(1.0, 1.0, 0.0, 1.0)
    out = euler(ode, 0.25, np.zeros((4, 1, 1)))
    assert out[0, 0] == 2.44140625
    # four steps of 1 + x dW, as one block and cut into blocks three ways
    dw = np.array([[[0.5]], [[-0.25]], [[0.125]], [[1.0]]])
    for cuts in ((), (1, 2, 3), (3,), (2,)):
        assert euler(gbm, 0.25, dw, cuts=cuts)[0, 0] == 1.5 * 0.75 * 1.125 * 2.0


def test_euler_terminal_shape_validation():
    gbm = me.make_gbm(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        me.single_terminals(gbm, 0, 4, 0)
    with pytest.raises(ValueError):
        me.single_terminals(gbm, 2, -1, 0)
    assert me.single_terminals(gbm, 2, 0, 0).shape == (0, 1)


@pytest.mark.filterwarnings("ignore:overflow")
def test_euler_divergence_reports_step_and_path():
    with pytest.raises(EulerDivergedError) as err:
        euler(explosive_model(), 0.5, np.zeros((2, 3, 1)), 5)
    assert err.value.step_index == 1
    assert err.value.path_index == 5
    assert err.value.level is None
    assert "step 1" in str(err.value)
    # the same (path, step) as the per-row recursion gives
    row, step = reference_divergence(explosive_model(), 0.5, np.zeros((2, 3, 1)))
    assert (err.value.path_index, err.value.step_index) == (5 + row, step)
    # fed one step per block, the locator counts steps across blocks
    with pytest.raises(EulerDivergedError) as err:
        euler(explosive_model(), 0.5, np.zeros((2, 3, 1)), 5, cuts=(1,))
    assert (err.value.path_index, err.value.step_index) == (5, 1)


def reference_euler(model, dt, dw):
    """The Euler recursion with per-row coefficients from the first step on."""
    x = np.broadcast_to(model.initial, (dw.shape[1], model.dim_state)).copy()
    for k in range(dw.shape[0]):
        x = x + model.drift(x) * dt + np.einsum("nij,nj->ni", model.diffusion(x), dw[k])
    return x


def reference_divergence(model, dt, dw):
    """(row, step): the first row non-finite at the end, and its first non-finite step."""
    with np.errstate(all="ignore"):
        bad = ~np.isfinite(reference_euler(model, dt, dw)).all(axis=1)
        row = int(np.flatnonzero(bad)[0])
        for step in range(dw.shape[0]):
            if not np.isfinite(reference_euler(model, dt, dw[: step + 1, row : row + 1])).all():
                return row, step


def linear_2d_model():
    """d = q = 2: dX = A X dt + (S + diag(X) C) dW, every coefficient mixing."""
    a = np.array([[0.05, -0.3], [0.2, -0.1]])
    s = np.array([[0.1, 0.02], [-0.03, 0.15]])
    c = np.array([[0.2, 0.05], [0.1, 0.25]])
    return me.SdeModel(
        dim_state=2,
        dim_noise=2,
        initial=np.array([1.0, -0.5]),
        horizon=1.0,
        drift=lambda x: x @ a.T,
        diffusion=lambda x: s + x[..., :, None] * c,
        drift_jacobian=lambda x: np.broadcast_to(a, x.shape[:-1] + (2, 2)),
        diffusion_jacobians=tuple(
            (lambda x, j=j: np.broadcast_to(np.diag(c[:, j]), x.shape[:-1] + (2, 2)))
            for j in range(2)
        ),
    )


def test_euler_batch_matches_per_row_reference(split_noise_gbm):
    # the shared start evaluates the coefficients once; bitwise the same,
    # whether the steps come as one block or as blocks of 4
    gbm = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    cases = ((gbm, 1), (gbm, 7), (split_noise_gbm, 5), (linear_2d_model(), 6), (gbm, 10))
    for model, n_steps in cases:
        q = model.dim_noise
        dt = model.horizon / n_steps
        dw = me.normal_block(11, DOMAIN_SINGLE, 0, 0, 0, 300, n_steps, q)
        dw *= math.sqrt(dt)
        out = euler(model, dt, dw)
        assert out.shape == (300, model.dim_state)
        np.testing.assert_array_equal(out, reference_euler(model, dt, dw))
        key = (11, DOMAIN_SINGLE, 0, 0)
        (x,) = _euler_batch(model, [(dt, 1)], _step_blocks(key, n_steps, q, dt, 4, 0, 300), 0)
        dw = math.sqrt(dt) * block_normals(*key, 0, 300, n_steps, q, 4)
        np.testing.assert_array_equal(x, reference_euler(model, dt, dw))


def test_batch_divergence_locates_offending_path():
    # X^n_k = W_{t_k} until it first exceeds the level; the step after
    # that is the first non-finite one.  The error names the lowest
    # diverged row, offset by first_path, and that row's first bad step.
    # The last two cases diverge past the first step block (64 steps, and
    # 66 for the fine leg of a coupled pair at m = 3), so the locator draws
    # the row again block by block.
    level, n_paths, first_path = 1.5, 64, 3
    for n_steps, m in ((8, None), (200, None), (243, 3)):
        if m is None:
            key, block = (0, DOMAIN_SINGLE, 0, 0), 64
        else:
            key, block = (0, DOMAIN_COUPLED, round(math.log(n_steps, m)), 0), 66
        z = block_normals(*key, first_path, n_paths, n_steps, 1, block)[:, :, 0].T
        w = np.cumsum(math.sqrt(1.0 / n_steps) * z, axis=1)[:, :-1]
        row = int(np.flatnonzero((w > level).any(axis=1))[0])
        step = int(np.flatnonzero(w[row] > level)[0]) + 1
        assert row > 0 and step > 0
        assert (step >= block) == (n_steps > block)
        with pytest.raises(EulerDivergedError) as err:
            if m is None:
                me.single_terminals(
                    threshold_model(level), n_steps, n_paths, 0, first_path=first_path, threads=2
                )
            else:
                me.coupled_terminals(
                    threshold_model(level), key[2], m, n_paths, 0, first_path=first_path,
                    threads=2,
                )
        assert err.value.path_index == first_path + row
        assert err.value.step_index == step


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


@pytest.mark.parametrize("threads", [0, -2])
def test_every_scheduled_call_rejects_threads_below_one(threads):
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    calls = [
        lambda: me.estimate(
            model, me.identity_payoff(), me.plan_bak(4, 2, 1.0), 0, threads=threads
        ),
        lambda: me.single_terminals(model, 2, 4, 0, threads=threads),
        lambda: me.coupled_terminals(model, 2, 2, 4, 0, threads=threads),
        lambda: me.limit_draws(model, 4, 4, 0, threads=threads),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="threads must be >= 1"):
            call()


def assert_coupling_reconstructs(model, level, m, paths):
    """Rebuild both legs from step-block-addressed normals, bitwise.

    The fine steps come in blocks of m * ceil(64 / m), block j from
    ``normal_block(..., step_block=j)``.  Step k holds every path's q
    increments of that step; the fine leg takes them scaled by sqrt(dt),
    and the coarse leg the sums of m fine steps.
    """
    q = model.dim_noise
    nf, nc = m**level, m ** (level - 1)
    dtf = model.horizon / nf
    fine, coarse = me.coupled_terminals(model, level, m, paths, 7, replication=3)
    block = m * math.ceil(64 / m)
    dw = math.sqrt(dtf) * block_normals(7, DOMAIN_COUPLED, level, 3, 0, paths, nf, q, block)
    dw_coarse = dw.reshape(nc, m, paths, q).sum(axis=1)
    np.testing.assert_array_equal(euler(model, dtf, dw), fine)
    np.testing.assert_array_equal(euler(model, model.horizon / nc, dw_coarse), coarse)


def test_coupling_consumes_block_sums_of_fine_increments():
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    for m in (2, 3, 4, 7):
        assert_coupling_reconstructs(model, 3, m, 16)


def test_split_noise_coupling_consumes_block_sums(split_noise_gbm):
    # q = 2: each step reads two consecutive draws of the path's row
    for level, m in ((1, 2), (3, 2), (2, 3), (7, 2)):
        assert_coupling_reconstructs(split_noise_gbm, level, m, 16)


# --------------------------------------------------------- step blocks


def test_step_block_is_counter_word_two():
    # block j is the key's Philox stream with its counter at (0, 0, j, 0);
    # path p of an s-step block reads words [p s q, (p + 1) s q) of it
    n, s, q, first = 7, 5, 2, 3
    for j in (0, 1, 6):
        bg = paths._philox(9, DOMAIN_SINGLE, 4, 1)
        state = bg.state
        state["state"]["counter"] = np.array([0, 0, j, 0], dtype=np.uint64)
        bg.state = state
        words = bg.random_raw((first + n) * s * q)[first * s * q :]
        u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
        expect = scipy_ndtri(u).reshape(n, s, q).transpose(1, 0, 2)
        z = me.normal_block(9, DOMAIN_SINGLE, 4, 1, first, n, s, q, step_block=j)
        np.testing.assert_array_equal(z, expect)


@pytest.mark.parametrize("n_steps", [65, 128, 512])
def test_single_paths_read_their_step_blocks(n_steps):
    # blocks of 64 steps, the last one short at 65 steps
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    dt = model.horizon / n_steps
    x = me.single_terminals(model, n_steps, 40, 7, slot=2, replication=3, first_path=5)
    dw = math.sqrt(dt) * block_normals(7, DOMAIN_SINGLE, 2, 3, 5, 40, n_steps, 1, 64)
    np.testing.assert_array_equal(x, reference_euler(model, dt, dw))


@pytest.mark.parametrize("level, m", [(7, 2), (9, 2), (4, 3), (3, 7)])
def test_coupled_paths_read_their_step_blocks(level, m):
    # fine blocks of 64 at m = 2, of 66 at m = 3 (81 = 66 + 15 steps) and
    # of 70 at m = 7 (343 = 4 * 70 + 63), each holding whole coarse steps
    assert_coupling_reconstructs(me.make_gbm(1.0, 0.05, 0.2, 1.0), level, m, 16)


@pytest.mark.parametrize("name", sorted(ONE_BLOCK_SHA256))
def test_paths_of_one_block_keep_their_bytes(name):
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    if name.startswith("single"):
        out = me.single_terminals(model, 64, 1000, 7, slot=1, replication=2, first_path=5)
    else:
        fine, coarse = me.coupled_terminals(model, 6, 2, 1000, 7, replication=2, first_path=5)
        out = np.concatenate([fine, coarse])
    assert hashlib.sha256(out.tobytes()).hexdigest() == ONE_BLOCK_SHA256[name]


def test_step_blocks_are_thread_and_partition_invariant():
    # 8500 paths of 513 steps are two chunks (8176 paths each) of nine
    # step blocks; level 6 at m = 3 is 729 = 11 * 66 + 3 fine steps in two
    # chunks (5753 paths each).  Any thread count, and any split of the
    # paths into calls, gives the same bytes.
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    one = me.single_terminals(model, 513, 8500, 4, threads=1)
    for threads in (2, 8):
        np.testing.assert_array_equal(me.single_terminals(model, 513, 8500, 4, threads=threads), one)
    head = me.single_terminals(model, 513, 8177, 4)
    tail = me.single_terminals(model, 513, 323, 4, first_path=8177)
    np.testing.assert_array_equal(np.concatenate([head, tail]), one)

    fine, coarse = me.coupled_terminals(model, 6, 3, 6000, 4, threads=1)
    for threads in (2, 8):
        f, c = me.coupled_terminals(model, 6, 3, 6000, 4, threads=threads)
        np.testing.assert_array_equal(f, fine)
        np.testing.assert_array_equal(c, coarse)
    for first, n in ((0, 1), (1, 5752), (5753, 247)):
        f, c = me.coupled_terminals(model, 6, 3, n, 4, first_path=first)
        np.testing.assert_array_equal(f, fine[first : first + n])
        np.testing.assert_array_equal(c, coarse[first : first + n])


@pytest.mark.parametrize("coupled", [False, True])
def test_euler_chunk_memory_does_not_grow_with_the_steps(coupled):
    # one 8192-path chunk of 512 fine steps holds one 64-step block of
    # increments (4 MiB), not all 512 steps (32 MiB); the coupled pair
    # adds the block's coarse sums
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    tracemalloc.start()
    try:
        if coupled:
            me.coupled_terminals(model, 9, 2, 8192, 0, threads=1)
        else:
            me.single_terminals(model, 512, 8192, 0, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_split_noise_weak_mean_is_exact_binomial(split_noise_gbm):
    # the drift alone sets E X^n = x0 (1 + mu T / n)^n, whatever the noise
    n = 8
    terms = me.single_terminals(split_noise_gbm, n, 100_000, 0, threads=2)
    expect = (1.0 + 0.05 / n) ** n
    se = terms.std(ddof=1) / math.sqrt(terms.shape[0])
    assert abs(terms.mean() - expect) < 5.0 * se


def test_block_sums_do_not_depend_on_the_batch():
    # m >= 8 is where numpy's own sum picks its order by array shape
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    fine, coarse = me.coupled_terminals(model, 2, 9, 3, 5)
    for p in range(3):
        f, c = me.coupled_terminals(model, 2, 9, 1, 5, first_path=p)
        np.testing.assert_array_equal(f[0], fine[p])
        np.testing.assert_array_equal(c[0], coarse[p])


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


def test_batch_rows_match_single_path_calls():
    # keyed reproducibility: path p depends on its key only, whatever
    # batch it is simulated in
    model = me.make_gbm(1.0, 0.05, 0.2, 1.0)
    batch = me.single_terminals(model, 8, 6, 5, slot=2, replication=1)
    for p in range(6):
        one = me.single_terminals(model, 8, 1, 5, slot=2, replication=1, first_path=p)
        np.testing.assert_array_equal(one[0], batch[p])

    fine, coarse = me.coupled_terminals(model, 3, 2, 6, 5, replication=1)
    for p in range(6):
        f, c = me.coupled_terminals(model, 3, 2, 1, 5, replication=1, first_path=p)
        np.testing.assert_array_equal(f[0], fine[p])
        np.testing.assert_array_equal(c[0], coarse[p])
