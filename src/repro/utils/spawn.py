"""The multiprocessing start method of every process this package starts.

A leaf module: the campaign worker pool and the shared-memory rank
fabric both start their children through it, and neither has to import
the other's package to do so.
"""

from __future__ import annotations

import multiprocessing as mp

__all__ = ["spawn_context"]


def spawn_context():
    """The multiprocessing context used for worker ranks and campaign workers.

    ``spawn`` (not fork): workers re-import the package and attach to the
    arena by name, which is portable and keeps the driver's NumPy state
    (threads, caches) out of the children.
    """
    return mp.get_context("spawn")
