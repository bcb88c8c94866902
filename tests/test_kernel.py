"""Tests for the shared recursion kernel ``detectors.absorb``.

Every batch element must be rounded exactly as it would be alone: the batched
kernel, the unbatched kernel (what ``run_chain`` runs) and the single-step
functions give the same bytes for every K, batch size and skip pattern.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daisymimo import detectors
from daisymimo.detectors import (
    AsgdParams,
    AsgdState,
    ChainState,
    EstimateVector,
    SgdParams,
    absorb,
    rls_preprocess,
)

ALGORITHMS = ("rls", "sgd", "asgd")


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _params(algorithm, rows):
    if algorithm == "rls":
        return rls_preprocess(rows)
    if algorithm == "sgd":
        return SgdParams(mu=0.05)
    return AsgdParams(mu=0.05, n0=3)


def _rows_params(algorithm, params, idx):
    """The gains of the rows ``idx`` (RLS), or the unchanged step-size params."""
    if algorithm != "rls":
        return params
    return detectors.RlsPrecomp(alphas=params.alphas[idx], zs=params.zs[idx], gamma_final=params.gamma_final)


def _same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _by_steps(algorithm, rows, ys, params, s0):
    """Replay through the single-step functions; returns ``(estimate, iterate, count)``."""
    if algorithm == "asgd":
        state = AsgdState(x=s0.copy(), s_avg=s0.copy(), n=0, n0=params.n0)
        for row, y in zip(rows, ys):
            state = detectors.asgd_step(state, row, y, params.mu)
        return state.s_avg, state.x, state.n
    estimate = EstimateVector(s0.copy(), 0)
    for i, (row, y) in enumerate(zip(rows, ys)):
        if algorithm == "rls":
            record = detectors.rls_step(estimate, row, y, params.alphas[i], params.zs[i])
        else:
            record = detectors.sgd_step(estimate, row, y, params.step_size(estimate.antenna_index + 1))
        estimate = record.estimate_after
    return estimate.values, None, estimate.antenna_index


class TestStepFunctionsMatchKernel:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16, 64])
    def test_unbatched_kernel_equals_step_functions(self, algorithm, k):
        rng = np.random.default_rng(k)
        m = k + 9
        rows, ys, s0 = _complex(rng, m, k), _complex(rng, m), _complex(rng, k)
        params = _params(algorithm, rows)
        trajectory = []
        out = absorb(algorithm, ChainState.start(algorithm, s0), rows, ys, params, trajectory=trajectory)
        estimate, iterate, count = _by_steps(algorithm, rows, ys, params, s0)
        assert out.n == count == m
        assert _same_bytes(out.s, estimate)
        assert _same_bytes(trajectory[-1], estimate)
        if algorithm == "asgd":
            assert _same_bytes(out.x, iterate)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_blocks_chain_like_one_call(self, algorithm):
        rng = np.random.default_rng(7)
        rows, ys = _complex(rng, 12, 4), _complex(rng, 5, 12)
        params = _params(algorithm, rows)
        whole = absorb(algorithm, ChainState.start(algorithm, np.zeros(4), (5,)), rows, ys, params)
        split = ChainState.start(algorithm, np.zeros(4), (5,))
        for lo, hi in ((0, 5), (5, 6), (6, 12)):
            idx = np.arange(lo, hi)
            split = absorb(algorithm, split, rows[lo:hi], ys[:, lo:hi], _rows_params(algorithm, params, idx))
        assert _same_bytes(whole.s, split.s)
        np.testing.assert_array_equal(split.n, 12)

    def test_state_arrays_are_not_written(self):
        rng = np.random.default_rng(8)
        rows, ys = _complex(rng, 6, 3), _complex(rng, 4, 6)
        state = ChainState.start("asgd", _complex(rng, 3), (4,))
        before = (state.s.copy(), state.x.copy(), state.n.copy())
        absorb("asgd", state, rows, ys, AsgdParams(mu=0.1, n0=2))
        for kept, now in zip(before, (state.s, state.x, state.n)):
            np.testing.assert_array_equal(kept, now)

    def test_rejects_mismatched_inputs(self):
        state = ChainState.start("sgd", np.zeros(3), (4,))
        rows = np.ones((5, 3), complex)
        with pytest.raises(ValueError):
            absorb("sgd", state, rows, np.ones((4, 6)), SgdParams(mu=0.1))
        with pytest.raises(ValueError):
            absorb("sgd", state, np.ones((5, 2)), np.ones((4, 5)), SgdParams(mu=0.1))
        with pytest.raises(ValueError):
            absorb("sgd", state, rows, np.ones((4, 5)), AsgdParams(mu=0.1, n0=2))
        with pytest.raises(ValueError):
            absorb("rls", state, rows, np.ones((4, 5)), rls_preprocess(rows[:4]))
        with pytest.raises(ValueError):
            absorb("mmse", state, rows, np.ones((4, 5)))


class TestBatchInvariance:
    @given(
        k=st.integers(1, 64),
        n_re=st.integers(1, 50),
        b=st.integers(1, 6),
        c=st.integers(1, 5),
        algorithm=st.sampled_from(ALGORITHMS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_skip_masks_match_unbatched_replay(self, k, n_re, b, c, algorithm, seed):
        """Cluster-major batched absorption under random skip masks equals, RE
        by RE, the unbatched kernel and the step functions over the rows that
        RE absorbed; counts and the ASGD onset are per RE."""
        rng = np.random.default_rng(seed)
        rows, ys, s0 = _complex(rng, b * c, k), _complex(rng, n_re, b * c), _complex(rng, k)
        params = _params(algorithm, rows)
        work = rng.random((c, n_re)) < 0.6
        work[0] = True  # the first cluster always processes
        state = ChainState.start(algorithm, s0, (n_re,))
        for cl in range(c):
            block = np.arange(cl * b, (cl + 1) * b)
            idx = np.flatnonzero(work[cl])
            if idx.size == 0:
                continue
            part = absorb(
                algorithm,
                ChainState(state.s[idx], state.n[idx], None if state.x is None else state.x[idx]),
                rows[block],
                ys[idx][:, block],
                _rows_params(algorithm, params, block),
            )
            state = ChainState(state.s.copy(), state.n.copy(), None if state.x is None else state.x.copy())
            state.s[idx], state.n[idx] = part.s, part.n
            if state.x is not None:
                state.x[idx] = part.x
        for r in range(n_re):
            kept = np.concatenate([np.arange(cl * b, (cl + 1) * b) for cl in range(c) if work[cl, r]])
            alone = absorb(algorithm, ChainState.start(algorithm, s0), rows[kept], ys[r, kept],
                           _rows_params(algorithm, params, kept))
            estimate, _, count = _by_steps(algorithm, rows[kept], ys[r, kept], _rows_params(algorithm, params, kept), s0)
            assert state.n[r] == alone.n == count == kept.size
            assert _same_bytes(state.s[r], alone.s)
            assert _same_bytes(state.s[r], estimate)

    @given(
        k=st.integers(1, 64),
        n_re=st.integers(2, 50),
        algorithm=st.sampled_from(ALGORITHMS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_result_does_not_depend_on_batch_companions(self, k, n_re, algorithm, seed):
        rng = np.random.default_rng(seed)
        rows, ys, s0 = _complex(rng, 7, k), _complex(rng, n_re, 7), _complex(rng, k)
        params = _params(algorithm, rows)
        full = absorb(algorithm, ChainState.start(algorithm, s0, (n_re,)), rows, ys, params)
        subset = np.flatnonzero(rng.random(n_re) < 0.5)[::-1]
        part = absorb(algorithm, ChainState.start(algorithm, s0, (subset.size,)), rows, ys[subset], params)
        assert _same_bytes(full.s[subset], part.s)
        for r in range(n_re):
            alone = absorb(algorithm, ChainState.start(algorithm, s0), rows, ys[r], params)
            assert _same_bytes(full.s[r], alone.s)


class TestPerElementRows:
    """Rows with a batch axis (one channel per trial, antenna-major ``(M, T, K)``)."""

    @given(
        k=st.integers(1, 16),
        t=st.integers(1, 6),
        extra=st.integers(0, 6),
        algorithm=st.sampled_from(ALGORITHMS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_channels_match_one_channel_at_a_time(self, k, t, extra, algorithm, seed):
        rng = np.random.default_rng(seed)
        m = k + extra
        rows, ys, s0 = _complex(rng, m, t, k), _complex(rng, t, m), _complex(rng, t, k)
        params = rls_preprocess(rows) if algorithm == "rls" else _params(algorithm, rows[:, 0])
        trajectory = []
        out = absorb(algorithm, ChainState.start(algorithm, s0), rows, ys, params, trajectory=trajectory)
        assert out.n == m
        for i in range(t):
            own = np.ascontiguousarray(rows[:, i])
            own_params = rls_preprocess(own) if algorithm == "rls" else params
            if algorithm == "rls":
                assert _same_bytes(params.alphas[:, i], own_params.alphas)
                assert _same_bytes(params.zs[:, i], own_params.zs)
                assert _same_bytes(params.gamma_final[i], own_params.gamma_final)
            alone = []
            absorb(algorithm, ChainState.start(algorithm, s0[i]), own, ys[i], own_params, trajectory=alone)
            assert all(_same_bytes(a[i], b) for a, b in zip(trajectory, alone))

    def test_rejects_rows_of_another_batch_shape(self):
        state = ChainState.start("sgd", np.zeros((4, 3)))
        with pytest.raises(ValueError):
            absorb("sgd", state, np.ones((5, 2, 3), complex), np.ones((4, 5)), SgdParams(mu=0.1))
        absorb("sgd", state, np.ones((5, 4, 3), complex), np.ones((4, 5)), SgdParams(mu=0.1))

    def test_gamma_update_batch_equals_single(self):
        rng = np.random.default_rng(3)
        gamma = np.stack([np.eye(5, dtype=complex) + 0.1 * np.diag(_complex(rng, 5).real) for _ in range(4)])
        rows = _complex(rng, 4, 5)
        alpha, z, nxt = detectors.gamma_update(gamma, rows)
        for i in range(4):
            a1, z1, g1 = detectors.gamma_update(gamma[i], rows[i])
            assert alpha[i] == a1 and _same_bytes(z[i], z1) and _same_bytes(nxt[i], g1)
