"""The one start path of every process this package starts: campaign
workers and shared-memory ranks, neither importing the other's package.

A child carries only its task.  Under ``spawn`` the stdlib re-runs the
caller's ``__main__`` script in every child; :func:`start_process` sets
it aside while the child's preparation data is built, so a child imports
the package and its ``repro`` target only, and a script needs no
``if __name__ == "__main__"`` guard to start a pool.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import threading
import types

__all__ = ["spawn_context", "start_process"]

_CONTEXT = mp.get_context("spawn")
_NO_MAIN = types.ModuleType("__main__")  # no __file__, no __spec__: nothing to re-run
_MAIN_SET_ASIDE = threading.Lock()


def spawn_context():
    """The context of the children's queues, pipes and barriers.  ``spawn``,
    not fork: a child re-imports the package and attaches to the arena by
    name, and the driver's NumPy state (threads, caches) stays out of it."""
    return _CONTEXT


def start_process(target, args: tuple):
    """Start ``target(*args)`` in a spawned daemon child; its handle."""
    proc = _CONTEXT.Process(target=target, args=args, daemon=True)
    with _MAIN_SET_ASIDE:
        main, sys.modules["__main__"] = sys.modules["__main__"], _NO_MAIN
        try:
            proc.start()
        finally:
            sys.modules["__main__"] = main
    return proc
