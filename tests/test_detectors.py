"""Tests for the ZF baseline and the recursive detectors against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daisymimo import detectors
from daisymimo.detectors import (
    AsgdParams,
    AsgdState,
    EstimateVector,
    IllConditionedChannel,
    SgdParams,
    asgd_step,
    gamma_update,
    rls_preprocess,
    rls_step,
    run_chain,
    sgd_step,
    zf_detect,
)
from daisymimo.signal_model import ChannelMatrix, generate_rayleigh_channel


def _random_instance(m, k, seed):
    rng = np.random.default_rng(seed)
    h = generate_rayleigh_channel(m, k, seed)
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return h, y


def _gaussian_elimination_solve(a, b):
    """Plain complex Gaussian elimination with partial pivoting (test oracle)."""
    a = np.array(a, dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    n = a.shape[0]
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n, dtype=np.complex128)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def _gamma_history(rows):
    """Gamma after each row, rebuilt from the identity with gamma_update."""
    gamma, history = np.eye(rows.shape[1], dtype=complex), []
    for row in rows:
        _, _, gamma = gamma_update(gamma, row)
        history.append(gamma)
    return history


def _rls_step_direct(gamma, s, row, y_n):
    """Textbook unsplit RLS update, gamma and estimate together (oracle of the split form)."""
    eps = y_n - row @ s
    z = gamma @ row.conj()
    alpha = 1.0 / (1.0 + (row @ z).real)
    return gamma - alpha * np.outer(z, z.conj()), s + (alpha * eps) * z


def _ridge_oracle(h_entries, y):
    k = h_entries.shape[1]
    gram = np.eye(k) + h_entries.conj().T @ h_entries
    return np.linalg.solve(gram, h_entries.conj().T @ y)


class TestZfDetect:
    def test_identity_channel_recovers_symbols(self):
        k = 4
        h = ChannelMatrix(np.eye(k, dtype=complex))
        s = np.arange(1, k + 1) * (1 + 1j)
        est = zf_detect(h, s.astype(complex))
        np.testing.assert_allclose(est.values, s, rtol=0, atol=1e-12)

    def test_zero_observation_gives_zero_estimate(self):
        h, _ = _random_instance(8, 3, seed=0)
        est = zf_detect(h, np.zeros(8, dtype=complex))
        np.testing.assert_allclose(est.values, 0, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_gaussian_elimination_oracle(self, seed):
        h, y = _random_instance(8, 2, seed)
        est = zf_detect(h, y).values
        gram = h.entries.conj().T @ h.entries
        rhs = h.entries.conj().T @ y
        oracle = _gaussian_elimination_solve(gram, rhs)
        assert np.linalg.norm(est - oracle) / np.linalg.norm(oracle) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_normal_equation_residual_small(self, seed):
        h, y = _random_instance(24, 6, seed)
        est = zf_detect(h, y).values
        residual = h.entries.conj().T @ (y - h.entries @ est)
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(h.entries.conj().T @ y)

    def test_rank_deficient_channel_rejected(self):
        col = np.arange(1, 7).astype(complex)
        h = ChannelMatrix(np.column_stack([col, 2.0 * col]))
        with pytest.raises(IllConditionedChannel):
            zf_detect(h, col)

    def test_all_zero_channel_rejected(self):
        with pytest.raises(ValueError):
            # All-zero H fails the finite/rank contract at construction or solve.
            zf_detect(ChannelMatrix(np.zeros((4, 2), dtype=complex)), np.zeros(4, dtype=complex))

    def test_near_singular_gramian_rejected(self):
        col = np.arange(1, 9).astype(complex)
        h = ChannelMatrix(np.column_stack([col, col * (1 + 1e-9)]))
        with pytest.raises(IllConditionedChannel):
            zf_detect(h, col)

    def test_observation_shape_checked(self):
        h, _ = _random_instance(8, 3, seed=0)
        with pytest.raises(ValueError):
            zf_detect(h, np.zeros(7, dtype=complex))

    def test_antenna_order_irrelevant(self):
        h, y = _random_instance(16, 4, seed=9)
        perm = np.random.default_rng(1).permutation(16)
        est = zf_detect(h, y).values
        est_perm = zf_detect(ChannelMatrix(h.entries[perm]), y[perm]).values
        np.testing.assert_allclose(est_perm, est, rtol=1e-10)


class TestRlsPreprocess:
    def test_scalar_hand_computation(self):
        pre = rls_preprocess(np.array([[1.0 + 0j]]))
        assert pre.zs[0, 0] == pytest.approx(1.0)
        assert pre.alphas[0] == pytest.approx(0.5)
        assert pre.gamma_final[0, 0] == pytest.approx(0.5)

    def test_zero_row_is_a_no_op(self):
        rows = np.array([[1.0 + 1j, 0.5 - 0.25j], [0.0, 0.0], [0.25j, 1.0 + 0j]])
        pre, history = rls_preprocess(rows), _gamma_history(rows)
        assert pre.alphas[1] == 1.0
        np.testing.assert_array_equal(pre.zs[1], 0)
        np.testing.assert_array_equal(history[1], history[0])

    def test_gamma_matches_direct_solve_oracle(self):
        h, _ = _random_instance(64, 8, seed=42)
        pre = rls_preprocess(h.entries)
        oracle = np.linalg.solve(np.eye(8) + h.entries.conj().T @ h.entries, np.eye(8))
        rel = np.linalg.norm(pre.gamma_final - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-9

    def test_gamma_history_matches_partial_gramians(self):
        h, _ = _random_instance(32, 4, seed=3)
        history = _gamma_history(h.entries)
        for n, gamma_n in enumerate(history, start=1):
            partial = h.entries[:n]
            oracle = np.linalg.solve(np.eye(4) + partial.conj().T @ partial, np.eye(4))
            rel = np.linalg.norm(gamma_n - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-9

    def test_alphas_real_in_unit_interval(self):
        h, _ = _random_instance(128, 8, seed=7)
        pre = rls_preprocess(h.entries)
        assert pre.alphas.dtype == np.float64
        assert np.all(pre.alphas > 0) and np.all(pre.alphas <= 1)

    def test_gamma_stays_hermitian(self):
        h, _ = _random_instance(256, 16, seed=8)
        pre = rls_preprocess(h.entries)
        gap = np.abs(pre.gamma_final - pre.gamma_final.conj().T).max()
        assert gap <= 1e-10

    def test_quadratic_form_imaginary_part_negligible(self):
        # alpha is real because h^T Gamma h* is real for Hermitian Gamma;
        # check the discarded imaginary part really is float noise.
        h, _ = _random_instance(64, 8, seed=12)
        gamma = np.eye(8, dtype=complex)
        for row in h.entries:
            z = gamma @ row.conj()
            quad = row @ z
            assert abs(quad.imag) <= 1e-12 * (1.0 + abs(quad))
            _, _, gamma = gamma_update(gamma, row)

    def test_non_finite_rows_rejected(self):
        rows = np.array([[1.0 + 0j], [np.inf + 0j]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            rls_preprocess(rows)

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rls_preprocess(np.ones((4, 3), dtype=complex), k=2)

    def test_gamma_positive_definite_validation(self):
        h, _ = _random_instance(32, 4, seed=1)
        gamma = rls_preprocess(h.entries).gamma_final
        np.testing.assert_array_equal(gamma, gamma.conj().T)
        assert np.linalg.eigvalsh(gamma).min() > 0


class TestRlsStep:
    def test_scalar_hand_computation(self):
        prev = EstimateVector(np.zeros(1, dtype=complex), 0)
        rec = rls_step(prev, np.array([1.0 + 0j]), 1.0 + 0j, alpha=0.5, z=np.array([1.0 + 0j]))
        assert rec.epsilon == pytest.approx(1.0)
        assert rec.estimate_after.values[0] == pytest.approx(0.5)
        assert rec.estimate_after.antenna_index == 1

    def test_zero_prediction_error_keeps_estimate(self):
        prev = EstimateVector(np.array([2.0 + 0j, -1.0 + 0j]), 3)
        row = np.array([1.0 + 0j, 1.0 + 0j])
        rec = rls_step(prev, row, y_n=row @ prev.values, alpha=0.7, z=row)
        assert rec.epsilon == 0
        np.testing.assert_array_equal(rec.estimate_after.values, prev.values)

    @pytest.mark.parametrize("m,k,seed", [(64, 8, 0), (128, 4, 1), (96, 16, 2)])
    def test_full_chain_matches_ridge_oracle(self, m, k, seed):
        h, y = _random_instance(m, k, seed)
        traj = run_chain("rls", h, y)
        oracle = _ridge_oracle(h.entries, y)
        rel = np.linalg.norm(traj[-1].values - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-9

    def test_split_form_matches_direct_form(self):
        h, y = _random_instance(48, 6, seed=11)
        pre = rls_preprocess(h.entries)
        split = EstimateVector(np.zeros(6, dtype=complex), 0)
        gamma, direct = np.eye(6, dtype=complex), np.zeros(6, dtype=complex)
        for n in range(48):
            split = rls_step(split, h.entries[n], y[n], pre.alphas[n], pre.zs[n]).estimate_after
            gamma, direct = _rls_step_direct(gamma, direct, h.entries[n], y[n])
        assert np.linalg.norm(split.values - direct) <= 1e-12 * np.linalg.norm(direct)


class TestSgdStep:
    def test_zero_step_size_is_null_step(self):
        prev = EstimateVector(np.array([1.0 + 1j]), 0)
        rec = sgd_step(prev, np.array([0.3 + 0.1j]), 2.0 + 0j, mu_n=0.0)
        np.testing.assert_array_equal(rec.estimate_after.values, prev.values)

    def test_scalar_hand_computation(self):
        prev = EstimateVector(np.zeros(1, dtype=complex), 0)
        rec = sgd_step(prev, np.array([1.0 + 0j]), 1.0 + 0j, mu_n=0.5)
        assert rec.estimate_after.values[0] == pytest.approx(0.5)

    def test_negative_step_size_rejected(self):
        prev = EstimateVector(np.zeros(1, dtype=complex), 0)
        with pytest.raises(ValueError):
            sgd_step(prev, np.array([1.0 + 0j]), 1.0 + 0j, mu_n=-0.1)

    def test_step_directions_assemble_full_gradient(self):
        # Summing h_n* eps_n at a frozen estimate must equal H^H (y - H s),
        # the (negated) gradient of the least-squares objective.
        h, y = _random_instance(32, 5, seed=21)
        rng = np.random.default_rng(22)
        fixed = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        frozen = EstimateVector(fixed, 0)
        acc = np.zeros(5, dtype=complex)
        for n in range(32):
            rec = sgd_step(frozen, h.entries[n], y[n], mu_n=1.0)
            acc += h.entries[n].conj() * rec.epsilon
        oracle = h.entries.conj().T @ (y - h.entries @ fixed)
        assert np.linalg.norm(acc - oracle) <= 1e-12 * np.linalg.norm(oracle)


class TestSgdParams:
    def test_positive_mu_enforced(self):
        with pytest.raises(ValueError):
            SgdParams(mu=0.0)


class TestAsgdStep:
    def _random_walk(self, m, k, n0, seed):
        rng = np.random.default_rng(seed)
        rows = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
        ys = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        return rows, ys

    def test_before_onset_output_tracks_raw_iterate(self):
        rows, ys = self._random_walk(10, 3, n0=8, seed=0)
        state = AsgdState(np.zeros(3, complex), np.zeros(3, complex), 0, n0=8)
        for n in range(6):
            state = asgd_step(state, rows[n], ys[n], mu_n=0.1)
            np.testing.assert_array_equal(state.s_avg, state.x)

    def test_at_onset_average_collapses_to_iterate(self):
        rows, ys = self._random_walk(5, 2, n0=5, seed=1)
        state = AsgdState(np.zeros(2, complex), np.zeros(2, complex), 0, n0=5)
        for n in range(5):
            state = asgd_step(state, rows[n], ys[n], mu_n=0.2)
        assert state.n == state.n0
        np.testing.assert_array_equal(state.s_avg, state.x)

    def test_recursive_average_matches_batch_mean(self):
        m, k, n0 = 200, 4, 50
        rows, ys = self._random_walk(m, k, n0, seed=2)
        state = AsgdState(np.zeros(k, complex), np.zeros(k, complex), 0, n0=n0)
        iterates = []
        for n in range(m):
            state = asgd_step(state, rows[n], ys[n], mu_n=0.05)
            iterates.append(state.x.copy())
            if state.n >= n0:
                batch = np.mean(iterates[n0 - 1 :], axis=0)
                assert np.abs(state.s_avg - batch).max() <= 1e-12

    @given(
        n0=st.integers(min_value=1, max_value=30),
        steps=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_dual_form_equivalence_property(self, n0, steps, seed):
        rows, ys = self._random_walk(steps, 2, n0, seed)
        state = AsgdState(np.zeros(2, complex), np.zeros(2, complex), 0, n0=n0)
        iterates = []
        for n in range(steps):
            state = asgd_step(state, rows[n], ys[n], mu_n=0.1)
            iterates.append(state.x.copy())
        expected = iterates[-1] if steps < n0 else np.mean(iterates[n0 - 1 :], axis=0)
        assert np.abs(state.s_avg - expected).max() <= 1e-12

    def test_invalid_onset_rejected(self):
        with pytest.raises(ValueError):
            AsgdParams(mu=0.1, n0=0)
        state = AsgdState(np.zeros(1, complex), np.zeros(1, complex), 0, n0=0)
        with pytest.raises(ValueError):
            asgd_step(state, np.ones(1, complex), 1.0 + 0j, 0.1)


class TestRunChain:
    def test_single_antenna_trajectory(self):
        h = ChannelMatrix(np.array([[1.0 + 0j]]))
        traj = run_chain("sgd", h, np.array([1.0 + 0j]), SgdParams(mu=0.5))
        assert len(traj) == 1
        assert traj[0].values[0] == pytest.approx(0.5)

    def test_antenna_indices_count_up(self):
        h, y = _random_instance(10, 2, seed=4)
        traj = run_chain("sgd", h, y, SgdParams(mu=0.01))
        assert [e.antenna_index for e in traj] == list(range(1, 11))

    def test_rls_accepts_external_precomp(self):
        h, y = _random_instance(16, 4, seed=5)
        pre = rls_preprocess(h.entries)
        a = run_chain("rls", h, y, pre)
        b = run_chain("rls", h, y)
        np.testing.assert_array_equal(a[-1].values, b[-1].values)

    def test_precomp_length_checked(self):
        h, y = _random_instance(16, 4, seed=5)
        short = rls_preprocess(h.entries[:8])
        with pytest.raises(ValueError):
            run_chain("rls", h, y, short)

    def test_unknown_algorithm_rejected(self):
        h, y = _random_instance(4, 2, seed=0)
        with pytest.raises(ValueError):
            run_chain("mmse", h, y)

    def test_missing_params_rejected(self):
        h, y = _random_instance(4, 2, seed=0)
        with pytest.raises(ValueError):
            run_chain("sgd", h, y)
        with pytest.raises(ValueError):
            run_chain("asgd", h, y)

    def test_custom_initial_estimate(self):
        h, y = _random_instance(6, 2, seed=6)
        s0 = np.array([1.0 + 1j, -2.0 + 0j])
        traj = run_chain("sgd", h, y, SgdParams(mu=0.1), s0=s0)
        manual = EstimateVector(s0.copy(), 0)
        for n in range(6):
            manual = sgd_step(manual, h.entries[n], y[n], 0.1).estimate_after
        np.testing.assert_array_equal(traj[-1].values, manual.values)

    def test_asgd_initial_state_seeds_both_sequences(self):
        h, y = _random_instance(6, 2, seed=7)
        s0 = np.array([0.5 + 0j, 0.5j])
        traj = run_chain("asgd", h, y, AsgdParams(mu=0.1, n0=3), s0=s0)
        state = AsgdState(s0.copy(), s0.copy(), 0, n0=3)
        for n in range(6):
            state = asgd_step(state, h.entries[n], y[n], 0.1)
        np.testing.assert_array_equal(traj[-1].values, state.s_avg)

    def test_deterministic(self):
        h, y = _random_instance(20, 4, seed=8)
        a = run_chain("rls", h, y)
        b = run_chain("rls", h, y)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.values, eb.values)
