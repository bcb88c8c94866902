"""Complexity accounting: counting on the production kernels must leave their
outputs bit for bit, and the complex-multiplication tallies must scale as O(K)
per step and O(K^2) per preprocessing antenna."""

import numpy as np
import pytest

from daisymimo import detectors
from daisymimo.detectors import AsgdParams, AsgdState, ChainState, EstimateVector, SgdParams
from daisymimo.opcount import (
    OpCounter,
    _counted,
    counted_asgd_step,
    counted_gamma_update,
    counted_rls_step,
    counted_sgd_step,
)


def _row(k, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2)


@pytest.mark.parametrize("k", [8, 16, 32])
class TestCountsScale:
    def test_sgd_step_is_linear_in_k(self, k):
        prev = EstimateVector(_row(k, 1), 0)
        counter = OpCounter()
        counted_sgd_step(prev, _row(k, 2), 0.3 + 0.1j, 0.05, counter)
        assert counter.complex_mults == 2 * k

    def test_rls_step_is_linear_in_k(self, k):
        prev = EstimateVector(_row(k, 3), 0)
        counter = OpCounter()
        counted_rls_step(prev, _row(k, 4), 0.3 + 0.1j, 0.5, _row(k, 5), counter)
        assert counter.complex_mults == 2 * k

    def test_asgd_step_is_linear_in_k(self, k):
        state = AsgdState(_row(k, 6), _row(k, 6), 4, n0=2)
        counter = OpCounter()
        counted_asgd_step(state, _row(k, 7), 0.3 + 0.1j, 0.05, counter)
        assert counter.complex_mults == 2 * k

    def test_preprocess_antenna_is_quadratic_in_k(self, k):
        counter = OpCounter()
        counted_gamma_update(np.eye(k, dtype=complex), _row(k, 8), counter)
        assert counter.complex_mults == 2 * k * k + k

    def test_batched_preprocess_counts_every_channel(self, k):
        t = 5
        rng = np.random.default_rng(k)
        rows = (rng.standard_normal((4, t, k)) + 1j * rng.standard_normal((4, t, k))) / np.sqrt(2)
        gamma = detectors.rls_preprocess(rows[:3]).gamma_final  # (t, K, K): one per channel
        rows = rows[3]
        counter = OpCounter()
        counted = counted_gamma_update(gamma, rows, counter)
        assert counter.complex_mults == t * (2 * k * k + k)
        for c, p in zip(counted, detectors.gamma_update(gamma, rows)):
            assert type(c) is np.ndarray
            np.testing.assert_array_equal(c, p)

    def test_step_cost_independent_of_more_context(self, k):
        # The per-RE budget depends on K alone; running twice doubles exactly.
        prev = EstimateVector(_row(k, 9), 0)
        counter = OpCounter()
        rec = counted_sgd_step(prev, _row(k, 10), 0.1 + 0j, 0.05, counter)
        counted_sgd_step(rec.estimate_after, _row(k, 11), 0.1 + 0j, 0.05, counter)
        assert counter.complex_mults == 4 * k


@pytest.mark.parametrize("t", [1, 5])
@pytest.mark.parametrize("k", [8, 16])
class TestBatchedKernelsCount:
    """The batched kernels the sweeps and the slot simulator run count on tallying views too."""

    B = 6  # antennas per call

    def _rows(self, k, t):
        rng = np.random.default_rng(10 * k + t)
        return (rng.standard_normal((self.B, t, k)) + 1j * rng.standard_normal((self.B, t, k))) / np.sqrt(2)

    @pytest.mark.parametrize("algorithm", ["rls", "sgd", "asgd"])
    def test_absorb_reads_2k_per_antenna_and_element(self, algorithm, k, t):
        rows, priors = self._rows(k, t), self._rows(k, t + 1)[0, :t]
        ys = rows.sum(axis=-1).T  # (t, B) observations
        params = {
            "rls": detectors.rls_preprocess(rows), "sgd": SgdParams(mu=0.05), "asgd": AsgdParams(mu=0.05, n0=3),
        }[algorithm]
        state = ChainState.start(algorithm, priors)
        counter = OpCounter()
        counted = _counted(detectors.absorb, counter, algorithm, state, rows, ys, params)
        plain = detectors.absorb(algorithm, state, rows, ys, params)
        assert counter.complex_mults == self.B * t * 2 * k
        assert type(counted.s) is np.ndarray
        np.testing.assert_array_equal(counted.s, plain.s)
        np.testing.assert_array_equal(counted.x, plain.x)

    def test_rls_preprocess_reads_2k2_plus_k_per_antenna_and_channel(self, k, t):
        rows = self._rows(k, t)
        counter = OpCounter()
        counted = _counted(detectors.rls_preprocess, counter, rows)
        plain = detectors.rls_preprocess(rows)
        assert counter.complex_mults == self.B * t * (2 * k * k + k)
        for c, p in zip((counted.alphas, counted.zs, counted.gamma_final), (plain.alphas, plain.zs, plain.gamma_final)):
            assert type(c) is np.ndarray
            np.testing.assert_array_equal(c, p)


class TestCountedMirrorsProduction:
    def test_sgd_outputs_identical(self):
        prev = EstimateVector(_row(12, 1), 0)
        row, y = _row(12, 2), 0.7 - 0.2j
        counted = counted_sgd_step(prev, row, y, 0.04, OpCounter())
        plain = detectors.sgd_step(prev, row, y, 0.04)
        assert counted.epsilon == plain.epsilon
        np.testing.assert_array_equal(counted.estimate_after.values, plain.estimate_after.values)

    def test_rls_outputs_identical(self):
        prev = EstimateVector(_row(12, 3), 0)
        row, y, z = _row(12, 4), 0.7 - 0.2j, _row(12, 5)
        counted = counted_rls_step(prev, row, y, 0.5, z, OpCounter())
        plain = detectors.rls_step(prev, row, y, 0.5, z)
        assert counted.epsilon == plain.epsilon
        np.testing.assert_array_equal(counted.estimate_after.values, plain.estimate_after.values)

    def test_asgd_outputs_identical(self):
        state = AsgdState(_row(12, 6), _row(12, 6).copy(), 4, n0=3)
        row, y = _row(12, 7), 0.7 - 0.2j
        counted = counted_asgd_step(state, row, y, 0.04, OpCounter())
        plain = detectors.asgd_step(state, row, y, 0.04)
        np.testing.assert_array_equal(counted.x, plain.x)
        np.testing.assert_array_equal(counted.s_avg, plain.s_avg)

    def test_gamma_update_outputs_identical(self):
        gamma = np.eye(9, dtype=complex)
        row = _row(9, 8)
        a_c, z_c, g_c = counted_gamma_update(gamma, row, OpCounter())
        a_p, z_p, g_p = detectors.gamma_update(gamma, row)
        assert a_c == a_p
        np.testing.assert_array_equal(z_c, z_p)
        np.testing.assert_array_equal(g_c, g_p)
