"""Tests for channel generation, QAM mapping, and the transmit model."""

import numpy as np
import pytest

from daisymimo import signal_model
from daisymimo.signal_model import (
    ChannelMatrix,
    Constellation,
    demodulate_hard,
    generate_rayleigh_channel,
    modulate,
    noise_variance_for_snr,
    transmit,
)


class TestRayleighChannel:
    def test_deterministic_for_fixed_seed(self):
        a = generate_rayleigh_channel(2, 2, rng_seed=7)
        b = generate_rayleigh_channel(2, 2, rng_seed=7)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_different_seeds_differ(self):
        a = generate_rayleigh_channel(4, 2, rng_seed=1)
        b = generate_rayleigh_channel(4, 2, rng_seed=2)
        assert not np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize("m,k", [(0, 1), (1, 0), (0, 0)])
    def test_zero_dimensions_rejected(self, m, k):
        with pytest.raises(ValueError):
            generate_rayleigh_channel(m, k, rng_seed=0)

    def test_unit_gain_power_law_of_large_numbers(self):
        h = generate_rayleigh_channel(10_000, 1, rng_seed=3)
        power = np.mean(np.abs(h.entries) ** 2)
        assert 0.95 <= power <= 1.05

    def test_unit_gain_power_three_stderr(self):
        # |h|^2 is Exp(1); check the empirical mean at n = 1e5 within 3 SE.
        h = generate_rayleigh_channel(100_000, 1, rng_seed=11)
        power = np.abs(h.entries.ravel()) ** 2
        stderr = power.std(ddof=1) / np.sqrt(power.size)
        assert abs(power.mean() - 1.0) <= 3 * stderr

    def test_real_imag_balance(self):
        h = generate_rayleigh_channel(200, 200, rng_seed=5).entries.ravel()
        assert np.var(h.real) == pytest.approx(0.5, rel=0.05)
        assert np.var(h.imag) == pytest.approx(0.5, rel=0.05)

    def test_shape(self):
        h = generate_rayleigh_channel(6, 3, rng_seed=0)
        assert (h.m_antennas, h.k_users) == (6, 3)

    def test_channel_matrix_rejects_m_below_k(self):
        with pytest.raises(ValueError):
            ChannelMatrix(np.ones((2, 3), dtype=complex))

    def test_channel_matrix_rejects_non_finite(self):
        bad = np.ones((3, 2), dtype=complex)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            ChannelMatrix(bad)


class TestConstellation:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        c = Constellation.qam(order)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_point_count_and_unique_labels(self, order):
        c = Constellation.qam(order)
        assert len(c.points) == order
        assert len(set(c.bit_labels)) == order
        assert all(len(lbl) == c.bits_per_symbol for lbl in c.bit_labels)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_property(self, order):
        # Euclidean nearest neighbours must differ in exactly one bit.
        c = Constellation.qam(order)
        dist = np.abs(c.points[:, None] - c.points[None, :])
        d_min = dist[dist > 0].min()
        for i in range(order):
            for j in range(i + 1, order):
                if abs(dist[i, j] - d_min) < 1e-9 * d_min:
                    hamming = sum(a != b for a, b in zip(c.bit_labels[i], c.bit_labels[j]))
                    assert hamming == 1, (c.bit_labels[i], c.bit_labels[j])

    @pytest.mark.parametrize("order", [2, 8, 32, 256, 0])
    def test_unsupported_order_rejected(self, order):
        with pytest.raises(ValueError):
            Constellation.qam(order)


class TestModulate:
    def test_qpsk_single_symbol(self):
        c = Constellation.qam(4)
        s = modulate("00", c, k=1)
        idx = c.bit_labels.index("00")
        assert s.symbols[0] == c.points[idx]
        assert abs(abs(s.symbols[0]) - 1.0) <= 1e-12

    def test_16qam_all_labels(self):
        c = Constellation.qam(16)
        symbols = [modulate(lbl, c, k=1).symbols[0] for lbl in c.bit_labels]
        assert len(set(symbols)) == 16
        assert abs(np.mean(np.abs(symbols) ** 2) - 1.0) <= 1e-12

    def test_length_mismatch_rejected(self):
        c = Constellation.qam(4)
        with pytest.raises(ValueError):
            modulate("000", c, k=1)

    def test_non_binary_rejected(self):
        c = Constellation.qam(4)
        with pytest.raises(ValueError):
            modulate("0x", c, k=1)


class TestDemodulateHard:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_exact_points_return_their_labels(self, order):
        c = Constellation.qam(order)
        assert demodulate_hard(c.points, c) == "".join(c.bit_labels)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_roundtrip_identity(self, order):
        c = Constellation.qam(order)
        rng = np.random.default_rng(9)
        k = 5
        bits = "".join("01"[b] for b in rng.integers(0, 2, k * c.bits_per_symbol))
        assert demodulate_hard(modulate(bits, c, k).symbols, c) == bits

    def test_midpoint_tie_goes_to_lower_index(self):
        c = Constellation.qam(4)
        midpoint = 0.5 * (c.points[0] + c.points[1])
        assert demodulate_hard(np.array([midpoint]), c) == c.bit_labels[0]

    def test_accepts_estimate_with_values_attribute(self):
        from daisymimo.detectors import EstimateVector

        c = Constellation.qam(4)
        est = EstimateVector(values=np.array([c.points[2]]), antenna_index=1)
        assert demodulate_hard(est, c) == c.bit_labels[2]


class TestIndexForms:
    """The array forms the sweeps use agree with the string API."""

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_point_indices_match_modulate(self, order):
        c = Constellation.qam(order)
        bits = np.random.default_rng(order).integers(0, 2, (6, 5 * c.bits_per_symbol))
        idx = c.point_indices(bits)
        assert idx.shape == (6, 5)
        for row, sent in zip(bits, idx):
            string = "".join("01"[b] for b in row)
            np.testing.assert_array_equal(c.points[sent], modulate(string, c, 5).symbols)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_batched_decisions_and_bit_distances_match_strings(self, order):
        c = Constellation.qam(order)
        rng = np.random.default_rng(order + 1)
        est = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        sent = rng.integers(0, order, (7, 4))
        decided = signal_model.hard_decisions(est, c)
        table = c.bit_distances()
        for t in range(7):
            string = demodulate_hard(est[t], c)
            assert string == "".join(c.bit_labels[d] for d in decided[t])
            sent_bits = "".join(c.bit_labels[i] for i in sent[t])
            assert table[sent[t], decided[t]].sum() == sum(a != b for a, b in zip(sent_bits, string))

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            Constellation.qam(16).bit_distances()[0, 0] = 1


class TestTransmit:
    def test_noiseless_identity_channel(self):
        h = ChannelMatrix(np.eye(2, dtype=complex))
        y = transmit(h, np.array([1.0 + 0j, -1.0 + 0j]), snr_db=np.inf, rng_seed=0)
        np.testing.assert_array_equal(y.samples, np.array([1.0 + 0j, -1.0 + 0j]))
        assert y.noise_variance == 0.0

    def test_noise_variance_formula(self):
        sigma2 = noise_variance_for_snr(k=16, snr_db=12.0)
        assert sigma2 == pytest.approx(16 * 10 ** (-1.2), rel=1e-12)
        assert sigma2 == pytest.approx(1.0095, abs=2e-4)

    def test_deterministic_per_seed(self):
        h = generate_rayleigh_channel(8, 2, rng_seed=1)
        s = np.array([1.0 + 0j, 1j])
        a = transmit(h, s, snr_db=10.0, rng_seed=77)
        b = transmit(h, s, snr_db=10.0, rng_seed=77)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_dimension_mismatch_rejected(self):
        h = generate_rayleigh_channel(4, 2, rng_seed=0)
        with pytest.raises(ValueError):
            transmit(h, np.ones(3, dtype=complex), snr_db=10.0, rng_seed=0)

    def test_receive_power_matches_snr_calibration(self):
        # Per-antenna receive power should average K, the premise of the
        # sigma^2 = K / SNR calibration.
        k, m, trials = 4, 64, 500
        c = Constellation.qam(16)
        rng = np.random.default_rng(123)
        acc = 0.0
        for t in range(trials):
            h = generate_rayleigh_channel(m, k, rng_seed=1000 + t)
            bits = "".join("01"[b] for b in rng.integers(0, 2, k * 4))
            s = modulate(bits, c, k)
            clean = h.entries @ s.symbols
            acc += np.sum(np.abs(clean) ** 2) / m
        assert acc / trials == pytest.approx(k, rel=0.05)

    def test_noise_power_matches_sigma2(self):
        k, m = 2, 2000
        h = ChannelMatrix(np.zeros((m, k), dtype=complex) + 1.0)
        s = np.zeros(k, dtype=complex)
        y = transmit(h, s, snr_db=3.0, rng_seed=5)
        sigma2 = noise_variance_for_snr(k, 3.0)
        assert np.mean(np.abs(y.samples) ** 2) == pytest.approx(sigma2, rel=0.1)
