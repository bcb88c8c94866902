"""Spans and kernel counters recorded from outside the library.

While a :class:`Tracer` is active it replaces the public functions of the
traced modules (their ``__all__``) with wrappers. Library code calls these
functions through module attributes or module globals, so nested calls are
seen too. Kernel functions (the per-antenna steps) are called hundreds of
times per trial, so they only add to per-kernel counters; every other
function records a span. Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter_ns


class _Frame:
    __slots__ = ("sid", "child_ns", "kernel_ns")

    def __init__(self, sid: int):
        self.sid = sid
        self.child_ns = 0  # time covered by child spans
        self.kernel_ns = 0  # time in kernels called directly, not inside a child span


class Tracer:
    def __init__(self, modules, kernels):
        self.modules = modules
        self.kernels = set(kernels)
        self.spans = []  # dicts, appended when a span closes
        self.kernel_calls = defaultdict(int)
        self.kernel_ns = defaultdict(int)
        self.call_id = 0  # the benchmark call the spans belong to
        self._stack = []
        self._next_sid = 0
        self._saved = []

    def __enter__(self):
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                wrapped = self._kernel(name, fn) if name in self.kernels else self._span(f"{short}.{name}", fn)
                self._saved.append((module, name, fn))
                setattr(module, name, wrapped)
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False

    def _span(self, qualname, fn):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(self._next_sid)
            self._next_sid += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent.child_ns += end - start
                spans.append({
                    "call": self.call_id,
                    "id": frame.sid,
                    "parent": None if parent is None else parent.sid,
                    "name": qualname,
                    "start_ns": start,
                    "end_ns": end,
                    "child_ns": frame.child_ns,
                    "kernel_ns": frame.kernel_ns,
                    "tag": _tag(qualname, args, kwargs),
                })

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, name, fn):
        stack, calls, total = self._stack, self.kernel_calls, self.kernel_ns

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            out = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - start
            calls[name] += 1
            total[name] += elapsed
            if stack:
                stack[-1].kernel_ns += elapsed
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, extra: dict) -> None:
        """Write every span and counter, plus ``extra``, as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "kernel_calls": dict(self.kernel_calls),
                    "kernel_ns": dict(self.kernel_ns),
                    "spans": self.spans,
                },
                fh,
            )
            fh.write("\n")


def _tag(qualname, args, kwargs):
    """The argument facts the per-layer metrics need: algorithm and rows."""
    if qualname == "detectors.run_chain":
        h = args[1] if len(args) > 1 else kwargs["h"]
        return {"algorithm": args[0] if args else kwargs["algorithm"], "rows": h.m_antennas}
    if qualname == "detectors.rls_preprocess":
        rows = args[0] if args else kwargs["rows"]
        return {"rows": len(getattr(rows, "entries", rows))}
    return None
