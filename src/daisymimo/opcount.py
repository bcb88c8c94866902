"""Instrumented twins of the detector kernels that tally complex multiplications.

Complexity is accounted in complex-by-complex multiplications only: real-scalar
scalings, additions and divisions are free. The counted steps call the same
arithmetic helpers as :func:`daisymimo.detectors.absorb`, and the counted
gamma update repeats :func:`daisymimo.detectors.gamma_update` expression for
expression, so outputs are bit-identical to the uncounted versions; tests rely
on that to know the counts describe the real code path.

Per step the budget is 2K (prediction error K, estimate correction K); per
preprocessing antenna it is 2K^2 + K (surrogate matvec K^2, quadratic form K,
rank-one outer product K^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors import AsgdState, EstimateVector, StepRecord, _average, _correct, _residual

__all__ = [
    "OpCounter",
    "counted_asgd_step",
    "counted_gamma_update",
    "counted_rls_step",
    "counted_sgd_step",
]


@dataclass
class OpCounter:
    complex_mults: int = 0

    def add(self, n: int) -> None:
        self.complex_mults += int(n)


def counted_sgd_step(prev: EstimateVector, row, y_n, mu_n, counter: OpCounter) -> StepRecord:
    conj_row = row.conj()
    counter.add(row.size)  # h^T s
    eps = _residual(prev.values, conj_row, y_n)
    counter.add(row.size)  # (mu eps) conj(h); mu eps itself is a real scaling
    after = _correct(prev.values, mu_n * eps, conj_row)
    return StepRecord(epsilon=eps, estimate_after=EstimateVector(after, prev.antenna_index + 1))


def counted_rls_step(prev: EstimateVector, row, y_n, alpha, z, counter: OpCounter) -> StepRecord:
    counter.add(row.size)  # h^T s
    eps = _residual(prev.values, row.conj(), y_n)
    counter.add(z.size)  # (alpha eps) z; alpha is real
    after = _correct(prev.values, alpha * eps, z)
    return StepRecord(epsilon=eps, estimate_after=EstimateVector(after, prev.antenna_index + 1))


def counted_asgd_step(state: AsgdState, row, y_n, mu_n, counter: OpCounter) -> AsgdState:
    conj_row = row.conj()
    counter.add(row.size)  # h^T x
    eps = _residual(state.x, conj_row, y_n)
    counter.add(row.size)  # (mu eps) conj(h)
    x_next = _correct(state.x, mu_n * eps, conj_row)
    s_next = _average(state.s_avg, x_next, state.n + 1, state.n0)  # real scalings only
    if s_next is x_next:
        s_next = x_next.copy()
    return AsgdState(x=x_next, s_avg=s_next, n=state.n + 1, n0=state.n0)


def counted_gamma_update(gamma, row, counter: OpCounter):
    k = row.size
    counter.add(k * k)  # gamma @ conj(h)
    z = gamma @ row.conj()
    counter.add(k)  # h^T z
    quad = row @ z
    alpha = 1.0 / (1.0 + quad.real)
    counter.add(k * k)  # (alpha z) z^H outer product; alpha z is a real scaling
    gamma_next = gamma - (alpha * z)[:, None] * z.conj()[None, :]
    gamma_next = 0.5 * (gamma_next + gamma_next.conj().T)
    if not (np.isfinite(alpha) and np.isfinite(gamma_next).all()):
        raise ValueError("non-finite values in gamma recursion")
    return alpha, z, gamma_next
