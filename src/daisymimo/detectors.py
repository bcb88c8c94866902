"""Uplink detectors: zero-forcing baseline and the recursive per-antenna methods.

All recursive detectors share the same shape: an estimate of the K transmitted
symbols is threaded through the antennas in order, and antenna ``n`` refines it
using only its own channel row ``h_n`` and observation ``y_n``::

    s_hat[n] = f(s_hat[n-1], h_n, y_n)

Three update rules are provided.

``rls``
    Recursive least squares. A K x K matrix ``gamma`` (initialized to the
    identity) tracks the inverse of ``I + sum h_i* h_i^T`` through rank-one
    downdates. Because ``gamma`` depends only on the channel, its recursion is
    hoisted into a per-coherence-block preprocessing pass that stores, per
    antenna, the gain pair ``(alpha_n, z_n)``; each resource element then costs
    O(K):

        eps_n   = y_n - h_n^T s_hat[n-1]
        s_hat[n] = s_hat[n-1] + alpha_n * z_n * eps_n

    With a zero initial estimate the final output equals the ridge-regularized
    least-squares solution ``(I + H^H H)^-1 H^H y``, which approaches the
    zero-forcing solution as M grows.

``sgd``
    Stochastic gradient descent on ``min_s ||y - H s||^2``, one antenna's
    residual per step: ``s_hat[n] = s_hat[n-1] + mu_n * conj(h_n) * eps_n``.

``asgd``
    SGD on an internal iterate ``x``, with the reported estimate switching to
    the running average of ``x`` once the step index reaches the onset ``n0``.
    The average is maintained recursively; no iterate history is stored.

All three run through one kernel, :func:`absorb`, which absorbs a block of
antenna rows into a :class:`ChainState` whose arrays may carry any leading
batch shape (one entry per received vector): :func:`run_chain` calls it once
without a batch axis, the chain simulator once per cluster over a coherence
block's resource elements, the Monte Carlo sweeps once per chunk of trials.
The single-step functions (``rls_step``, ``sgd_step``, ``asgd_step``) apply
its helpers to one row; :mod:`daisymimo.opcount` counts complex
multiplications by running them and :func:`gamma_update`. Every operation is
chosen so that a batch element is rounded exactly as it would be alone: the
state arrays are C-contiguous, each inner product is one BLAS dot over a
contiguous K-vector (:func:`numpy.vecdot`), real scalings of complex vectors
are exact in every loop, and complex products run as loops over the K axis
(spelled out in real arithmetic when K = 1).

No matrix is ever inverted explicitly: zero forcing goes through a
least-squares factorization and RLS through the rank-one recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .signal_model import ChannelMatrix, ReceivedVector

__all__ = [
    "AsgdParams",
    "AsgdState",
    "ChainState",
    "EstimateVector",
    "IllConditionedChannel",
    "RlsPrecomp",
    "SgdParams",
    "StepRecord",
    "absorb",
    "asgd_step",
    "gamma_update",
    "rls_preprocess",
    "rls_step",
    "run_chain",
    "sgd_step",
    "zf_detect",
]

ALGORITHMS = ("rls", "sgd", "asgd")

# Gramian condition estimates above this raise instead of returning garbage.
GRAMIAN_COND_LIMIT = 1e12


class IllConditionedChannel(ValueError):
    """Raised when the Gramian H^H H is too ill-conditioned to invert reliably."""


@dataclass
class EstimateVector:
    """K-vector symbol estimate; ``antenna_index`` counts absorbed antennas (0 = prior)."""

    values: np.ndarray
    antenna_index: int = 0


@dataclass
class StepRecord:
    """One recursive update: the scalar prediction error and the refreshed estimate."""

    epsilon: complex
    estimate_after: EstimateVector


@dataclass
class RlsPrecomp:
    """Per-antenna RLS gains for one coherence block.

    ``alphas[n]`` is the real scalar gain and ``zs[n]`` the K-vector direction
    for antenna ``n`` (one of each per channel when :func:`rls_preprocess`
    ran over a batch of channels); ``gamma_final`` is the surrogate matrix
    after absorbing every row, kept for diagnostics and for chaining blocks of
    antennas.
    """

    alphas: np.ndarray
    zs: np.ndarray
    gamma_final: np.ndarray

    def __len__(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class SgdParams:
    """SGD configuration: the constant step size ``mu`` (> 0) of every antenna."""

    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"step size must be positive, got {self.mu}")

    def step_size(self, n: int) -> float:
        return self.mu


@dataclass(frozen=True)
class AsgdParams:
    """Averaged-SGD configuration: step size plus the averaging onset ``n0`` (>= 1)."""

    mu: float
    n0: int

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"step size must be positive, got {self.mu}")
        if self.n0 < 1:
            raise ValueError(f"averaging onset must be >= 1, got {self.n0}")

    def step_size(self, n: int) -> float:
        return self.mu


@dataclass
class AsgdState:
    """Averaged-SGD state: raw iterate ``x``, averaged output ``s_avg``, step count ``n``."""

    x: np.ndarray
    s_avg: np.ndarray
    n: int
    n0: int


@dataclass
class ChainState:
    """State of one recursive detector over a batch of received vectors.

    ``s`` is the estimate, shape ``(..., K)``; ``n`` counts the antennas each
    batch element has absorbed (an ``int`` when it is the same for all of
    them, else an integer array of the batch shape); ``x`` is the ASGD raw
    iterate, shaped like ``s`` (``None`` for RLS and SGD). :func:`absorb`
    never writes into these arrays.
    """

    s: np.ndarray
    n: Union[int, np.ndarray] = 0
    x: Optional[np.ndarray] = None

    @classmethod
    def start(cls, algorithm: str, s0: np.ndarray, batch_shape: tuple = ()) -> "ChainState":
        """Every batch element at the prior ``s0``, nothing absorbed.

        ``s0`` is a K-vector shared by the ``batch_shape`` elements, or already
        carries its batch axes, ``(..., K)``, one prior per element; with an
        empty ``batch_shape`` the count ``n`` is then one ``int`` for all of
        them.
        """
        s = np.empty(tuple(batch_shape) + np.shape(s0), dtype=np.complex128)
        s[...] = s0
        n = np.zeros(batch_shape, dtype=np.int64) if batch_shape else 0
        return cls(s=s, n=n, x=s.copy() if algorithm == "asgd" else None)


def zf_detect(h: ChannelMatrix, y: Union[ReceivedVector, np.ndarray]) -> EstimateVector:
    """Zero-forcing detection via a least-squares factorization (no explicit inverse).

    Solves ``min_s ||y - H s||`` with a rank-revealing solver and refuses
    channels whose Gramian condition estimate exceeds ``GRAMIAN_COND_LIMIT``.
    """
    samples = np.asarray(getattr(y, "samples", y))
    if samples.shape != (h.m_antennas,):
        raise ValueError(f"received vector shape {samples.shape} does not match M={h.m_antennas}")
    solution, _, rank, sing = np.linalg.lstsq(h.entries, samples, rcond=None)
    if rank < h.k_users:
        raise IllConditionedChannel(f"channel is rank deficient (rank {rank} < K={h.k_users})")
    gram_cond = (sing[0] / sing[-1]) ** 2
    if gram_cond > GRAMIAN_COND_LIMIT:
        raise IllConditionedChannel(
            f"Gramian condition estimate {gram_cond:.3e} exceeds limit {GRAMIAN_COND_LIMIT:.1e}"
        )
    return EstimateVector(values=solution, antenna_index=h.m_antennas)


def gamma_update(gamma: np.ndarray, row: np.ndarray):
    """Absorb one channel row into the inverse-Gramian surrogate.

    Returns ``(alpha, z, gamma_next)`` with ``z = gamma @ conj(row)`` and
    ``alpha = 1 / (1 + row @ z)``. For Hermitian positive-definite ``gamma``
    the quadratic form ``row @ z`` is real positive, so ``alpha`` lies in
    (0, 1]; the (float-noise) imaginary part is dropped. ``gamma_next`` is
    re-symmetrized to keep drift over many rank-one updates bounded.

    ``gamma`` may carry leading batch axes, ``(..., K, K)``, with ``row`` of
    shape ``(..., K)``: one independent recursion per batch element. Each
    element is rounded as it would be alone (one BLAS matrix-vector product
    and one BLAS dot per element, elementwise products otherwise).
    """
    conj_row = row.conj()
    z = np.matvec(gamma, conj_row)
    alpha = 1.0 / (1.0 + np.vecdot(conj_row, z).real)
    gamma_next = gamma - (alpha[..., None] * z)[..., :, None] * z.conj()[..., None, :]
    gamma_next = 0.5 * (gamma_next + gamma_next.conj().mT)
    # A non-finite alpha needs z != 0 and then spreads into gamma_next (at
    # least its diagonal entry for a nonzero z_i), so one check covers both.
    if not np.isfinite(gamma_next).all():
        raise ValueError("non-finite values in gamma recursion")
    return alpha, z, gamma_next


def rls_preprocess(rows, k: Optional[int] = None, gamma0: Optional[np.ndarray] = None) -> RlsPrecomp:
    """Run the channel-only half of RLS over the given rows (one coherence block).

    Starting from the identity (or ``gamma0`` when chaining partial blocks),
    absorbs each row via :func:`gamma_update` and records the per-antenna
    ``(alpha, z)`` pairs. Cost is O(K^2) per antenna; afterwards every resource
    element of the block reuses the stored gains at O(K) per antenna.

    ``rows`` is ``(M, K)``, or ``(M, ..., K)`` for a batch of independent
    channels stored antenna-major (``rows[n]`` holds antenna ``n``'s row of
    every channel); the gains then carry the same batch axes after the
    antenna axis (``alphas`` ``(M, ...)``, ``zs`` ``(M, ..., K)``, and
    ``gamma_final`` ``(..., K, K)``).
    """
    rows = np.asanyarray(getattr(rows, "entries", rows), dtype=np.complex128)
    if rows.ndim < 2:
        raise ValueError(f"rows must have an antenna axis and a K axis, got shape {rows.shape}")
    if k is not None and rows.shape[-1] != k:
        raise ValueError(f"rows have length {rows.shape[-1]}, expected K={k}")
    m, batch, k = rows.shape[0], rows.shape[1:-1], rows.shape[-1]
    if gamma0 is None:
        gamma = np.empty(batch + (k, k), dtype=np.complex128)
        gamma[...] = np.eye(k)
    else:
        gamma = np.asarray(gamma0, dtype=np.complex128)
    alphas = np.empty((m,) + batch)
    zs = np.empty(rows.shape, dtype=np.complex128)
    for n in range(m):
        alpha, z, gamma = gamma_update(gamma, rows[n])
        alphas[n] = alpha
        zs[n] = z
    return RlsPrecomp(alphas=alphas, zs=zs, gamma_final=gamma)


def _k1_product(a, b: np.ndarray) -> np.ndarray:
    """Complex product ``a * b`` spelled out in real arithmetic, for K = 1.

    With K > 1 NumPy runs every product of the kernel as a loop over the K
    axis, whatever the batch shape. With K = 1 that loop would run over the
    batch instead, and NumPy's vectorised complex multiply fuses a
    multiply-add where its scalar fallback does not, so the rounding would
    follow the batch size. Real products and sums round the same in every
    loop.
    """
    a = np.asarray(a)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _residual(v: np.ndarray, conj_rows: np.ndarray, y):
    """Prediction errors ``y - rows^T v`` over the trailing K axis.

    One BLAS dot product per element (:func:`numpy.vecdot` conjugates its
    first argument, hence ``conj_rows``). On contiguous K-vectors its rounding
    depends only on the two vectors, not on the batch around them.
    """
    return y - np.vecdot(conj_rows, v)


def _correct(v: np.ndarray, coef, direction: np.ndarray) -> np.ndarray:
    """``v + coef * direction``: one complex ``coef`` per batch element.

    ``direction`` is one K-vector for the whole batch, or one per element.
    """
    coef = coef[..., None] if coef.ndim else coef
    return v + (coef * direction if direction.shape[-1] > 1 else _k1_product(coef, direction))


def _average(s: np.ndarray, x: np.ndarray, count, n0: int) -> np.ndarray:
    """ASGD output after ``count`` absorbed antennas.

    The iterate ``x`` itself before the onset ``n0``, afterwards the running
    mean of the iterates since ``n0``: ``s + (x - s) / (count - n0 + 1)``,
    with the division done as a product with the real reciprocal.
    """
    if isinstance(count, int):
        return x if count < n0 else s + (x - s) * (1.0 / (count - n0 + 1))
    before = count < n0
    if before.all():
        return x
    mean = s + (x - s) * (1.0 / np.maximum(count - n0 + 1, 1))[..., None]
    return np.where(before[..., None], x, mean) if before.any() else mean


_PARAM_TYPES = {"rls": RlsPrecomp, "sgd": SgdParams, "asgd": AsgdParams}


def absorb(
    algorithm: str,
    state: ChainState,
    rows,
    ys,
    params=None,
    *,
    trajectory: Optional[list] = None,
) -> ChainState:
    """Absorb a block of antenna rows, in chain order, into a detector state.

    ``rows`` is ``(B, K)`` when every batch element sees the same channel
    (the REs of a coherence block), or ``(B,) + state.s.shape`` when each
    has its own (independent trials), stored antenna-major so that
    ``rows[i]`` is one contiguous block. ``ys`` holds every batch element's
    observations at those antennas: the batch shape of ``state`` plus
    ``(B,)``. ``params`` is an :class:`RlsPrecomp` whose gains cover exactly
    these rows, batched like them (rls), :class:`SgdParams` or
    :class:`AsgdParams`. The ASGD onset follows each element's own
    absorbed count ``n``.

    With ``trajectory`` (a list), the estimate after each antenna is appended
    to it. Returns the new state.
    """
    s, x, n = np.require(state.s, requirements="C"), state.x, state.n
    rows = np.require(rows, np.complex128, "C")
    if rows.ndim < 2 or rows.shape[1:] not in (s.shape[-1:], s.shape):
        raise ValueError(f"rows have shape {rows.shape}, expected (B, {s.shape[-1]}) or (B,) + {s.shape}")
    b = rows.shape[0]
    ys = np.asarray(ys)
    if ys.shape != s.shape[:-1] + (b,):
        raise ValueError(f"observations have shape {ys.shape}, expected {s.shape[:-1] + (b,)}")
    needs = _PARAM_TYPES.get(algorithm)
    if needs is None:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if not isinstance(params, needs):
        raise ValueError(f"{algorithm} needs {needs.__name__}")
    if algorithm == "rls" and len(params) != b:
        raise ValueError(f"precomp covers {len(params)} antennas, block has {b}")
    # Per-antenna operands, split once: ys[i] holds the batch's observations at antenna i.
    ys, conj_rows = list(np.moveaxis(ys, -1, 0)), list(rows.conj())
    if algorithm == "rls":
        alphas = list(np.asarray(params.alphas, dtype=float))
        zs = list(np.ascontiguousarray(params.zs, dtype=np.complex128))
    elif algorithm == "asgd":
        x = np.require(x, requirements="C")
    for i, (conj_row, y) in enumerate(zip(conj_rows, ys)):
        if algorithm == "rls":
            s = _correct(s, alphas[i] * _residual(s, conj_row, y), zs[i])
        elif algorithm == "sgd":
            s = _correct(s, params.mu * _residual(s, conj_row, y), conj_row)
        else:
            x = _correct(x, params.mu * _residual(x, conj_row, y), conj_row)
            s = _average(s, x, n + i + 1, params.n0)
        if trajectory is not None:
            trajectory.append(s)
    return ChainState(s, n + b, x)


def rls_step(prev: EstimateVector, row: np.ndarray, y_n: complex, alpha: float, z: np.ndarray) -> StepRecord:
    """One O(K) RLS update using a precomputed ``(alpha, z)`` gain pair."""
    eps = _residual(prev.values, row.conj(), y_n)
    after = _correct(prev.values, alpha * eps, z)
    return StepRecord(epsilon=eps, estimate_after=EstimateVector(after, prev.antenna_index + 1))


def sgd_step(prev: EstimateVector, row: np.ndarray, y_n: complex, mu_n: float) -> StepRecord:
    """One SGD update: move along the conjugate row by the prediction error.

    ``mu_n = 0`` is tolerated (null step) so boundary behavior stays testable;
    production step sizes must be positive.
    """
    if mu_n < 0:
        raise ValueError(f"step size must be >= 0, got {mu_n}")
    conj_row = row.conj()
    eps = _residual(prev.values, conj_row, y_n)
    after = _correct(prev.values, mu_n * eps, conj_row)
    return StepRecord(epsilon=eps, estimate_after=EstimateVector(after, prev.antenna_index + 1))


def asgd_step(state: AsgdState, row: np.ndarray, y_n: complex, mu_n: float) -> AsgdState:
    """One averaged-SGD update.

    The raw iterate follows the SGD rule; the reported estimate equals the raw
    iterate before the onset and afterwards the running average over steps
    ``n0..n``, maintained recursively as
    ``s_avg += (x - s_avg) / (n - n0 + 1)``.
    """
    if state.n0 < 1:
        raise ValueError(f"averaging onset must be >= 1, got {state.n0}")
    conj_row = row.conj()
    x_next = _correct(state.x, mu_n * _residual(state.x, conj_row, y_n), conj_row)
    s_next = _average(state.s_avg, x_next, state.n + 1, state.n0)
    if s_next is x_next:
        s_next = x_next.copy()
    return AsgdState(x=x_next, s_avg=s_next, n=state.n + 1, n0=state.n0)


def _initial_estimate(k: int, s0) -> np.ndarray:
    if s0 is None:
        return np.zeros(k, dtype=np.complex128)
    values = np.asarray(getattr(s0, "values", s0), dtype=np.complex128)
    if values.shape != (k,):
        raise ValueError(f"initial estimate shape {values.shape} does not match K={k}")
    return values.copy()


def run_chain(
    algorithm: str,
    h: ChannelMatrix,
    y: Union[ReceivedVector, np.ndarray],
    params=None,
    s0=None,
) -> list:
    """Run one detector over all antennas in order; return the full trajectory.

    The trajectory holds one :class:`EstimateVector` per antenna index (the
    last entry is the detector output), which is what the MSE-vs-antenna-index
    experiments consume. Clustering plays no role here: the update sequence is
    the same however the antennas are later grouped.

    ``params`` is an :class:`RlsPrecomp` (optional, recomputed if omitted),
    :class:`SgdParams`, or :class:`AsgdParams` depending on ``algorithm``.
    """
    samples = np.asarray(getattr(y, "samples", y))
    m, k = h.m_antennas, h.k_users
    if samples.shape != (m,):
        raise ValueError(f"received vector shape {samples.shape} does not match M={m}")
    if algorithm == "rls" and params is None:
        params = rls_preprocess(h.entries)
    state = ChainState.start(algorithm, _initial_estimate(k, s0))
    trajectory = []
    absorb(algorithm, state, h.entries, samples, params, trajectory=trajectory)
    return [EstimateVector(values, n) for n, values in enumerate(trajectory, start=1)]
