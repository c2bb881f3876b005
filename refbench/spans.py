"""In-memory span tracer for retrodyn's layers, installed from outside the package.

The tracer replaces each function in ``TRACED`` with a wrapper, in every
``retrodyn`` module that binds it by name, so calls made inside the package
(``pipeline`` calling its own ``from .dynamics import simulate_batch``
binding, ``estimation`` calling ``solve_conditional_variance``, ...) are
recorded too. Each call becomes a span: name, start, end, parent span and
the operation it belongs to. Nothing in the package is edited; leaving the
``installed`` block restores every original attribute.

Wrappers return exactly what the wrapped function returns, except that
``trajectory_rng`` hands back a thin generator proxy whose
``standard_normal`` draws are spans of their own (``dynamics.philox_draw``).
The proxy calls the same Philox generator, so every bit of output is
unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np

#: (module, function) pairs wrapped; spans are named "module.function".
TRACED = (
    ("dynamics", "solve_conditional_variance"),
    ("dynamics", "trajectory_rng"),
    ("dynamics", "simulate_batch"),
    ("dynamics", "simulate_trajectory"),
    ("dynamics", "verify_photocurrent_identity"),
    ("dynamics", "write_trajectory_csv"),
    ("dynamics", "read_trajectory_csv"),
    ("estimation", "forward_filter"),
    ("estimation", "backward_filter"),
    ("estimation", "filter_record"),
    ("estimation", "difference_variance"),
    ("estimation", "reconstruct_conditional_variance"),
    ("estimation", "write_reconstruction_csv"),
    ("thermo", "theta_rates"),
    ("thermo", "ensemble_average_rates"),
    ("fullmodel", "adiabatic_consistency_check"),
    ("pipeline", "collect_ensemble"),
    ("pipeline", "emit_reconstruction"),
    ("pipeline", "emit_figure_data"),
    ("pipeline", "run_experiment"),
)

PHILOX_DRAW = "dynamics.philox_draw"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # operation the span belongs to
    out_bytes: int = 0  # bytes of the ndarrays the call returned


@dataclass
class LayerStats:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    out_bytes: int = 0  # summed over calls


def _nbytes(obj) -> int:
    """Bytes held by the ndarrays a call returned (top level and one field deep)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_nbytes(x) for x in obj)
    fields = getattr(obj, "__dict__", None)
    if fields:
        return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))
    return 0


class _TimedGenerator:
    """Generator proxy that records each standard_normal draw as a span."""

    def __init__(self, gen, tracer: "Tracer"):
        self._draw = tracer.wrap(PHILOX_DRAW, gen.standard_normal)

    def standard_normal(self, *args, **kwargs):
        return self._draw(*args, **kwargs)


class Tracer:
    """Records spans of retrodyn's layer functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._paused = False

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            span.out_bytes = _nbytes(out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self, package: str = "retrodyn"):
        """Wrap every TRACED function wherever a package module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        undo = []
        try:
            for modname, fname in TRACED:
                orig = getattr(importlib.import_module(f"{package}.{modname}"), fname)
                wrapper = self.wrap(f"{modname}.{fname}", orig)
                if fname == "trajectory_rng":
                    wrapper = self._rng_wrapper(wrapper)
                for mod in modules:
                    if vars(mod).get(fname) is orig:
                        undo.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)
            yield self
        finally:
            for mod, fname, orig in reversed(undo):
                setattr(mod, fname, orig)

    def _rng_wrapper(self, make_rng):
        @functools.wraps(make_rng)
        def rng(*args, **kwargs):
            gen = make_rng(*args, **kwargs)
            return gen if self._paused else _TimedGenerator(gen, self)
        return rng

    @contextlib.contextmanager
    def paused(self):
        """Let calls through unrecorded (for the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def first(self, name: str) -> Span | None:
        return next((s for s in self.spans if s.name == name), None)

    def summary(self) -> dict[str, LayerStats]:
        """Total seconds, self seconds, calls and returned bytes per span name.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] += s.end - s.start
        out: dict[str, LayerStats] = {}
        for s, children in zip(self.spans, child_s):
            st = out.setdefault(s.name, LayerStats())
            st.total_s += s.end - s.start
            st.self_s += s.end - s.start - children
            st.calls += 1
            st.out_bytes += s.out_bytes
        return out
