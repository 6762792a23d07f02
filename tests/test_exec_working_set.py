"""A campaign executor holds only what is live.

Heap ceilings, by ``tracemalloc``, of one task of the Fig. 2 chain at
4^3x8 (``campaign_w2``'s lattice, seed, tolerance and checkpoint
interval), re-run after an untraced pass of the whole chain wrote every
artifact it reads.  Counted in fields of the 12-column stack (1.125
MiB).  Each docstring gives the reading before the executors were
trimmed and after; each ceiling sits at the reading after, so the peak a
worker's RSS is set by cannot silently come back.  The artifacts' bits
are pinned elsewhere (``test_runtime_faults.py``, the e2e benchmark's
sha256 parity).
"""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from repro.io.container import ArtifactStore
from repro.runtime import build_ga_campaign
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.exec_tasks import ExecContext, execute_task

DIMS = (4, 4, 4, 8)
#: bytes of the 12 spin-colour columns of one 4^3x8 propagator
STACK_BYTES = 12 * 4 * 4 * 4 * 8 * 4 * 3 * 16
#: Before Python 3.11 a caller keeps its call's arguments until the call
#: returns, so an executor cannot free a field it passed in as a temporary
#: (the loaded propagator of ``seq_solve``, the unsmeared sources).
ARG_HELD = 1.0 if sys.version_info < (3, 11) else 0.0


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Every task of a one-mass campaign run once, in dependency order."""
    graph, _ = build_ga_campaign(
        dims=DIMS, masses=(0.35,), seed=2026, tol=1e-4, checkpoint_every=20
    )
    root = tmp_path_factory.mktemp("chain")
    store, ckpt = ArtifactStore(root / "artifacts"), CheckpointManager(root / "checkpoints")
    tasks = {}
    for tid in graph.topo_order():
        task = graph[tid]
        execute_task(task.kind, task.params, ExecContext(tid, 1, store, ckpt))
        tasks.setdefault(task.kind, (tid, task.params))
    return tasks, store, ckpt


def _peak_fields(chain, kind: str) -> float:
    tasks, store, ckpt = chain
    tid, params = tasks[kind]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        execute_task(kind, params, ExecContext(tid, 1, store, ckpt))
        return (tracemalloc.get_traced_memory()[1] - base) / STACK_BYTES
    finally:
        tracemalloc.stop()


def test_propagator(chain):
    """The checkpointed percolumn solve: 6.69 fields before (the sources
    and a zeroed solution stack side by side, the loaded gauge field
    beside the operator's own links, each finished stack's reconstructed
    columns held through the next stack's solve), 4.94 after (the
    solutions are collected over their sources)."""
    assert _peak_fields(chain, "propagator") <= 5.0


def test_seq_solve(chain):
    """The sequential sink solve: 7.69 fields before (the loaded
    propagator held through both stacks), 4.94 after."""
    assert _peak_fields(chain, "seq_solve") <= 5.0 + ARG_HELD


def test_smear_sources(chain):
    """Smearing the 12 point sources: 6.33 fields before (the unsmeared
    stack held by the executor, a forward neighbour field alive through
    the backward hop), 4.32 after."""
    assert _peak_fields(chain, "smear_sources") <= 4.4 + ARG_HELD
