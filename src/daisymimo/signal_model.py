"""Uplink signal model: block-Rayleigh channels, Gray-mapped QAM, noisy receive vectors.

The model is the narrowband per-resource-element relation ``y = H s + v`` with
``H`` an M x K matrix of i.i.d. unit-variance circularly-symmetric complex
Gaussian gains, ``s`` a K-vector of unit-power constellation symbols and ``v``
complex white noise.

SNR convention: the quoted SNR is the average receive power at one antenna
divided by the noise variance. With unit-variance channel entries and
unit-power symbols the per-antenna receive power equals K, so a target of
``snr_db`` gives a noise variance of ``K * 10**(-snr_db / 10)``.

Randomness comes from NumPy's PCG64 ``Generator`` seeded explicitly per call;
Gaussians use ``standard_normal``. Identical seeds give identical outputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelMatrix",
    "Constellation",
    "ReceivedVector",
    "demodulate_hard",
    "generate_rayleigh_channel",
    "hard_decisions",
    "modulate",
    "noise_variance_for_snr",
    "transmit",
]

QAM_ORDERS = (4, 16, 64)


@dataclass(frozen=True)
class ChannelMatrix:
    """M x K matrix of complex channel gains; row ``n`` is antenna n's local CSI."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2:
            raise ValueError(f"channel matrix must be 2-D, got shape {entries.shape}")
        m, k = entries.shape
        if k < 1 or m < k:
            raise ValueError(f"need M >= K >= 1, got M={m}, K={k}")
        if not np.isfinite(entries).all():
            raise ValueError("channel matrix contains non-finite entries")
        object.__setattr__(self, "entries", entries)

    @property
    def m_antennas(self) -> int:
        return self.entries.shape[0]

    @property
    def k_users(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Constellation:
    """Square QAM constellation with unit average energy and per-axis Gray labels.

    ``points[i]`` carries the bit string ``bit_labels[i]``; the first half of a
    label Gray-codes the in-phase level, the second half the quadrature level.
    Point order is the (I, Q) grid enumerated row-major, which fixes the
    tie-break rule for hard decisions.
    """

    order: int
    points: np.ndarray = field(repr=False)
    bit_labels: tuple = field(repr=False)

    @property
    def bits_per_symbol(self) -> int:
        return int(round(math.log2(self.order)))

    @classmethod
    def qam(cls, order: int) -> "Constellation":
        if order not in QAM_ORDERS:
            raise ValueError(f"unsupported constellation order {order}; pick one of {QAM_ORDERS}")
        levels_per_axis = int(round(math.sqrt(order)))
        bits_per_axis = int(round(math.log2(levels_per_axis)))
        # Unit average energy: E|s|^2 = 2 a^2 (L^2 - 1) / 3 = 1.
        amp = math.sqrt(3.0 / (2.0 * (order - 1)))
        levels = amp * (2.0 * np.arange(levels_per_axis) - (levels_per_axis - 1))

        def gray_bits(index: int) -> str:
            return format(index ^ (index >> 1), f"0{bits_per_axis}b")

        points = []
        labels = []
        for i_idx in range(levels_per_axis):
            for q_idx in range(levels_per_axis):
                points.append(levels[i_idx] + 1j * levels[q_idx])
                labels.append(gray_bits(i_idx) + gray_bits(q_idx))
        return cls(order=order, points=np.array(points), bit_labels=tuple(labels))

    def point_indices(self, bits) -> np.ndarray:
        """Point carrying each ``bits_per_symbol`` group of a 0/1 array ``(..., n * bits_per_symbol)``.

        Returns the point indices, shape ``(..., n)``.
        """
        b = self.bits_per_symbol
        bits = np.asarray(bits)
        groups = bits.reshape(bits.shape[:-1] + (-1, b))
        return _label_tables(self.bit_labels)[0][groups @ (1 << np.arange(b - 1, -1, -1))]

    def bit_distances(self) -> np.ndarray:
        """``(order, order)`` table of bit errors (label Hamming distances) between points."""
        return _label_tables(self.bit_labels)[1]


@functools.cache
def _label_tables(bit_labels: tuple) -> tuple:
    """Read-only ``(point index of each label value, bit-error table)`` for a labelling."""
    values = [int(label, 2) for label in bit_labels]
    index_of_value = np.argsort(values)
    distances = np.array([[(a ^ b).bit_count() for b in values] for a in values])
    for table in (index_of_value, distances):
        table.setflags(write=False)
    return index_of_value, distances


@dataclass(frozen=True)
class ReceivedVector:
    """M received samples plus the noise variance they were generated with."""

    samples: np.ndarray
    noise_variance: float

    def __post_init__(self):
        if self.noise_variance < 0:
            raise ValueError("noise variance must be >= 0")


def generate_rayleigh_channel(m: int, k: int, rng_seed: int) -> ChannelMatrix:
    """Draw an M x K block-fading Rayleigh channel, CN(0, 1) per entry.

    Real and imaginary parts are independent N(0, 1/2), so E|h|^2 = 1.
    Deterministic for a fixed seed.
    """
    if m < 1 or k < 1:
        raise ValueError(f"channel dimensions must be positive, got M={m}, K={k}")
    rng = np.random.default_rng(rng_seed)
    scale = math.sqrt(0.5)
    entries = scale * (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
    return ChannelMatrix(entries)


def modulate(bits: str, constellation: Constellation, k: int) -> np.ndarray:
    """Map a bit string onto K constellation symbols, ``bits_per_symbol`` bits each.

    Symbol ``i`` carries ``bits[i*b:(i+1)*b]`` where ``b`` is the constellation's
    bits per symbol.
    """
    b = constellation.bits_per_symbol
    if len(bits) != k * b:
        raise ValueError(f"expected {k * b} bits for {k} users at order {constellation.order}, got {len(bits)}")
    if set(bits) - {"0", "1"}:
        raise ValueError("bit string may contain only '0' and '1'")
    bit_values = np.frombuffer(bits.encode(), np.uint8) - ord("0")
    return constellation.points[constellation.point_indices(bit_values)]


def demodulate_hard(estimate, constellation: Constellation) -> str:
    """Per-user minimum-distance hard decision; returns the concatenated bit labels.

    Ties go to the lowest point index (``argmin`` keeps the first minimum).
    Accepts a bare complex vector or anything exposing ``.values``.
    """
    decisions = hard_decisions(estimate, constellation)
    return "".join(constellation.bit_labels[d] for d in decisions)


def hard_decisions(estimate, constellation: Constellation) -> np.ndarray:
    """Index of the nearest constellation point for every entry of ``estimate``.

    Works on any shape (a whole batch of K-vectors at once); ties go to the
    lowest point index (``argmin`` keeps the first minimum).
    """
    values = np.asarray(getattr(estimate, "values", estimate))
    distances = np.abs(values[..., None] - constellation.points) ** 2
    return np.argmin(distances, axis=-1)


def noise_variance_for_snr(k: int, snr_db: float) -> float:
    """Noise variance giving the requested per-antenna receive SNR for K users."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return k * 10.0 ** (-snr_db / 10.0)


def transmit(h: ChannelMatrix, s, snr_db: float, rng_seed: int) -> ReceivedVector:
    """Propagate symbols through the channel and add calibrated complex noise.

    ``snr_db = inf`` selects the noiseless mode (zero noise variance, no draw).
    Deterministic for a fixed seed.
    """
    symbols = np.asarray(s)
    if symbols.shape != (h.k_users,):
        raise ValueError(f"symbol vector shape {symbols.shape} does not match K={h.k_users}")
    clean = h.entries @ symbols
    sigma2 = noise_variance_for_snr(h.k_users, snr_db)
    if sigma2 == 0.0:
        return ReceivedVector(samples=clean, noise_variance=0.0)
    rng = np.random.default_rng(rng_seed)
    m = h.m_antennas
    noise = math.sqrt(sigma2 / 2.0) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return ReceivedVector(samples=clean + noise, noise_variance=sigma2)
