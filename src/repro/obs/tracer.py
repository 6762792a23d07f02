"""Span-based tracer with flop/byte attribution and JSONL shards.

The measured half of the paper's performance accounting.  Section VI
reports sustained GFlop/s from explicit flop counts divided by measured
kernel time; this module is the plumbing that makes the same statement
possible here: instrumented code opens *spans* (nestable, named, with
per-span flop/byte attribution), and every completed span becomes one
JSON line in a shard file.

Sharding follows a one-writer-per-file discipline: each
``(process, thread)`` pair appends to its own
``trace-p<pid>-t<tid>.jsonl``, so no lock is held on the hot path and a
killed worker can at worst tear the final line of its own shard (which
the reader tolerates).  The merge across shards happens at
read time (:mod:`repro.obs.readers`).

Tracing is **disabled by default** and zero-cost when disabled: the
module-level :func:`span` performs one global load and returns a shared
no-op singleton, so instrumented hot loops (the dslash stencil) pay
nanoseconds, not file I/O — the end-to-end benchmark's ``--trace 1``
pass reports it as ``obs.trace_overhead_frac``.

Enabling exports :data:`ENV_TRACE_DIR` into ``os.environ``, and the
module re-enables itself from that variable at import, so workers
started through the ``spawn`` multiprocessing context (the campaign
runtime's process pool, the shared-memory rank fabric) inherit tracing
automatically and write their own shards into the same directory.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any

__all__ = [
    "ENV_TRACE_DIR",
    "NullSpan",
    "Span",
    "Tracer",
    "current",
    "disable",
    "enable",
    "enabled",
    "span",
]

#: Environment variable carrying the shard directory to child processes.
ENV_TRACE_DIR = "REPRO_TRACE_DIR"


class NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add_flops(self, n: float) -> None:
        pass

    def add_bytes(self, n: float) -> None:
        pass

    def set(self, **args: Any) -> None:
        pass


NULL_SPAN = NullSpan()


class Span:
    """One timed region with flop/byte attribution.

    Use as a context manager; the record is written on exit (including
    exceptional exit, with ``ok: false``), never on entry, so a span
    costs one JSONL line regardless of nesting depth.
    """

    __slots__ = (
        "name", "cat", "flops", "nbytes", "args",
        "t0", "dur", "_tracer", "_p0", "_depth",
    )

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 flops: float, nbytes: float, args: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.flops = float(flops)
        self.nbytes = float(nbytes)
        self.args = args
        self.t0 = 0.0
        self.dur = 0.0
        self._p0 = 0.0
        self._depth = 0

    def add_flops(self, n: float) -> None:
        """Attribute additional flops discovered mid-span (e.g. from a
        solver result whose iteration count was unknown at entry)."""
        self.flops += float(n)

    def add_bytes(self, n: float) -> None:
        self.nbytes += float(n)

    def set(self, **args: Any) -> None:
        """Attach or override free-form span arguments."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._depth = self._tracer._push()
        self.t0 = time.time()
        self._p0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur = time.perf_counter() - self._p0
        self._tracer._pop()
        if exc_type is not None:
            self.args["ok"] = False
        self._tracer._write(self)
        return False


class Tracer:
    """Shard-writing tracer: one JSONL file per ``(process, thread)``.

    The schema of one span record::

        {"name": "dslash.halfspinor", "cat": "kernel",
         "t0": <epoch s>, "dur": <s>, "pid": ..., "tid": ...,
         "depth": ..., "flops": ..., "bytes": ..., "args": {...}}

    ``t0`` is wall-clock (mergeable across processes); ``dur`` is
    measured with ``perf_counter`` (monotonic, sub-microsecond).
    """

    def __init__(self, trace_dir: str | Path, prefix: str = "trace"):
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self._local = threading.local()
        self._files: list[Any] = []
        self._files_lock = threading.Lock()
        self.spans_written = 0

    # -- per-thread state ----------------------------------------------------
    def _push(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _pop(self) -> None:
        self._local.depth = max(0, getattr(self._local, "depth", 1) - 1)

    def _file(self):
        f = getattr(self._local, "file", None)
        if f is None or f.closed:
            tid = threading.get_native_id()
            path = self.trace_dir / f"{self.prefix}-p{os.getpid()}-t{tid}.jsonl"
            f = path.open("a", encoding="utf-8")
            self._local.file = f
            with self._files_lock:
                self._files.append(f)
        return f

    # -- span lifecycle ------------------------------------------------------
    def span(self, name: str, cat: str = "kernel", flops: float = 0.0,
             nbytes: float = 0.0, **args: Any) -> Span:
        return Span(self, name, cat, flops, nbytes, args)

    def _write(self, sp: Span) -> None:
        rec = {
            "name": sp.name,
            "cat": sp.cat,
            "t0": sp.t0,
            "dur": sp.dur,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "depth": sp._depth,
            "flops": sp.flops,
            "bytes": sp.nbytes,
        }
        if sp.args:
            rec["args"] = sp.args
        f = self._file()
        f.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
        f.flush()
        self.spans_written += 1

    def close(self) -> None:
        """Close every shard this process opened (idempotent)."""
        with self._files_lock:
            for f in self._files:
                if not f.closed:
                    f.close()
            self._files.clear()
        self._local = threading.local()


#: The active tracer, or ``None`` when disabled (the common case).
_TRACER: Tracer | None = None


def span(name: str, cat: str = "kernel", flops: float = 0.0,
         nbytes: float = 0.0, **args: Any):
    """Open a span on the active tracer, or a shared no-op if disabled.

    This is the only call instrumented code makes; when tracing is off
    it is one global load plus the return of a singleton.
    """
    t = _TRACER
    if t is None:
        return NULL_SPAN
    return t.span(name, cat=cat, flops=flops, nbytes=nbytes, **args)


def enabled() -> bool:
    return _TRACER is not None


def current() -> Tracer | None:
    return _TRACER


def enable(trace_dir: str | Path, *, export_env: bool = True) -> Tracer:
    """Switch tracing on, writing shards into ``trace_dir``.

    With ``export_env`` (default) the directory is exported as
    :data:`ENV_TRACE_DIR` so spawned worker processes re-enable
    themselves at import and shard into the same directory.
    """
    global _TRACER
    if _TRACER is not None:
        disable()
    _TRACER = Tracer(trace_dir)
    if export_env:
        os.environ[ENV_TRACE_DIR] = str(_TRACER.trace_dir)
    return _TRACER


def disable() -> None:
    """Switch tracing off, flush and close this process's shards."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None
    os.environ.pop(ENV_TRACE_DIR, None)


def _maybe_enable_from_env() -> None:
    """Auto-enable in spawned children (called once at import)."""
    trace_dir = os.environ.get(ENV_TRACE_DIR)
    if trace_dir and _TRACER is None:
        enable(trace_dir, export_env=False)


_maybe_enable_from_env()
