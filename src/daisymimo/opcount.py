"""Complex-multiplication tallies measured on the production detector kernels.

Complexity is accounted in complex-by-complex multiplications only: real-scalar
scalings, additions and divisions are free. Each counted function calls the
real :mod:`daisymimo.detectors` function with its arrays viewed as a
:class:`_Tally`, which runs every ufunc on the plain arrays (so each output bit
is that of the uncounted call) and tallies complex ``multiply`` by output
element and complex ``matvec``/``vecdot``/``matmul`` by output element times
contracted length. Per step that reads 2K (prediction error, correction); per
preprocessing antenna 2K^2 + K (surrogate matvec, quadratic form, rank-one
outer product), once per channel of a batched ``gamma_update``. At K = 1 the
correction is written in real arithmetic (``detectors._k1_product``), so a
step reads 1. The batched ``absorb`` and ``rls_preprocess`` keep the view, so
they read these counts once per batch element.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import detectors
from .detectors import AsgdState, EstimateVector, StepRecord

__all__ = [
    "OpCounter",
    "counted_asgd_step",
    "counted_gamma_update",
    "counted_rls_step",
    "counted_sgd_step",
]


@dataclasses.dataclass
class OpCounter:
    complex_mults: int = 0

    def add(self, n: int) -> None:
        self.complex_mults += int(n)


class _Tally(np.ndarray):
    """Array view that adds the complex products it takes part in to ``counter``."""

    counter: OpCounter  # set on the subclass that :func:`_counted` makes per call

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = _convert(inputs, np.asarray)
        kwargs = {key: _convert(value, np.asarray) for key, value in kwargs.items()}  # out= too
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if method == "__call__" and all(np.iscomplexobj(x) for x in inputs):
            if ufunc is np.multiply:
                self.counter.add(np.size(result))
            elif ufunc in (np.matvec, np.vecdot, np.matmul):  # contract inputs[0]'s last axis
                self.counter.add(np.size(result) * np.shape(inputs[0])[-1])
        return _convert(result, lambda array: array.view(type(self)))


def _convert(obj, view):
    """``obj`` with ``view`` applied to every array in it, in tuples and dataclass fields too."""
    if isinstance(obj, np.ndarray):
        return view(obj)
    if isinstance(obj, tuple):
        return tuple(_convert(x, view) for x in obj)
    if dataclasses.is_dataclass(obj):
        fields = {f.name: _convert(getattr(obj, f.name), view) for f in dataclasses.fields(obj)}
        return dataclasses.replace(obj, **fields)
    return obj


def _counted(kernel, counter: OpCounter, *args):
    """``kernel(*args)`` on tallying views of the arrays in ``args``; plain outputs."""
    tally = type("_Tally", (_Tally,), {"counter": counter})
    return _convert(kernel(*_convert(args, lambda array: array.view(tally))), np.asarray)


def counted_sgd_step(prev: EstimateVector, row, y_n, mu_n, counter: OpCounter) -> StepRecord:
    return _counted(detectors.sgd_step, counter, prev, row, y_n, mu_n)


def counted_rls_step(prev: EstimateVector, row, y_n, alpha, z, counter: OpCounter) -> StepRecord:
    return _counted(detectors.rls_step, counter, prev, row, y_n, alpha, z)


def counted_asgd_step(state: AsgdState, row, y_n, mu_n, counter: OpCounter) -> AsgdState:
    return _counted(detectors.asgd_step, counter, state, row, y_n, mu_n)


def counted_gamma_update(gamma, row, counter: OpCounter):
    return _counted(detectors.gamma_update, counter, gamma, row)
