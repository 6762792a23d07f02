"""Benchmark-side span shims around the public callables of each layer.

The traced pass measures the layers *from outside*: nothing under
``src/`` is edited.  :class:`Recorder` swaps a layer's public callable
for a wrapper that records one span per call (name, start, end, parent
span) into per-thread in-memory lists, and :meth:`Recorder.remove` puts
the originals back.  Spans reach every thread of the process (the
service's thread-pool workers included) but not spawned ranks/workers —
those are measured by the counters they already publish.

A layer's *self time* is its spans' duration minus the part covered by
their child spans, so the self times of all spans sum to the wall time
covered by the top-level spans exactly.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

# (span name, module, owner attribute or None for a module global, callable)
TARGETS = (
    ("dirac.hopping", "repro.dirac.wilson", "WilsonOperator", "hopping"),
    ("dirac.apply", "repro.dirac.wilson", "WilsonOperator", "apply"),
    ("dirac.apply_dagger", "repro.dirac.wilson", "WilsonOperator", "apply_dagger"),
    ("solvers.solve", "repro.solvers.cg", "ConjugateGradient", "solve"),
    ("solvers.solve", "repro.solvers.cg", "ConjugateGradient", "solve_batched"),
    # GAPipeline binds these names at import, the campaign executors
    # import them from the package at call time: shim both bindings.
    ("contractions.pion", "repro.core.pipeline", None, "pion_correlator"),
    ("contractions.proton", "repro.core.pipeline", None, "proton_correlator"),
    ("contractions.fh", "repro.core.pipeline", None, "fh_correlator"),
    ("contractions.fh", "repro.core.pipeline", None, "effective_coupling"),
    ("contractions.pion", "repro.contractions", None, "pion_correlator"),
    ("contractions.proton", "repro.contractions", None, "proton_correlator"),
    ("contractions.fh", "repro.contractions", None, "pion_three_point"),
    ("contractions.pion", "repro.contractions", None, "pion_two_point_matrix"),
    ("io.write", "repro.io.container", "FieldFile", "save"),
    ("io.read", "repro.io.container", "FieldFile", "load"),
)


class Recorder:
    """In-memory span recorder; one instance per traced unit."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []  # per-thread span lists
        self._installed: list[tuple[object, str, object]] = []
        self.results: list[tuple[str, object]] = []  # (span name, return value)

    # -- recording -----------------------------------------------------------
    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], [])  # (spans, open-span stack)
            with self._lock:
                self._threads.append(st[0])
        return st

    def wrap(self, name: str, fn, keep_result: bool = False):
        def shim(*args, **kwargs):
            spans, stack = self._state()
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep_result:
                self.results.append((name, out))
            return out

        shim.__wrapped__ = fn
        return shim

    # -- install / remove ----------------------------------------------------
    def install(self) -> "Recorder":
        for name, *target in TARGETS:
            holder, attr, raw = _resolve(*target)
            keep = name == "solvers.solve"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, keep))
            else:
                new = self.wrap(name, raw, keep)
            self._installed.append((holder, attr, raw))
            setattr(holder, attr, new)
        return self

    def remove(self) -> None:
        while self._installed:
            holder, attr, raw = self._installed.pop()
            setattr(holder, attr, raw)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- aggregation ---------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s``; plus
        ``"top"``: the wall time covered by parentless spans."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        top = 0.0
        for spans in self._threads:
            child = [0.0] * len(spans)
            for name, t0, t1, parent in spans:
                if parent >= 0:
                    child[parent] += t1 - t0
                else:
                    top += t1 - t0
            for (name, t0, t1, _), covered in zip(spans, child):
                row = out[name]
                row["calls"] += 1
                row["s"] += t1 - t0
                row["self_s"] += (t1 - t0) - covered
        out["top"] = {"calls": 0, "s": top, "self_s": top}
        return out


def _resolve(module: str, owner: str | None, attr: str):
    """(object holding the callable, attribute name, the raw attribute)."""
    holder = importlib.import_module(module)
    if owner is None:
        return holder, attr, getattr(holder, attr)
    holder = getattr(holder, owner)
    return holder, attr, holder.__dict__[attr]  # __dict__: keep classmethod objects intact


def installed() -> list[str]:
    """Targets currently shimmed (empty after a clean removal)."""
    live = []
    for _, module, owner, attr in TARGETS:
        raw = _resolve(module, owner, attr)[2]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if getattr(fn, "__name__", "") == "shim" and hasattr(fn, "__wrapped__"):
            live.append(".".join(filter(None, (module, owner, attr))))
    return live
