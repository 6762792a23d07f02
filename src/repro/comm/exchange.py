"""Halo exchange over an executed fabric, under three real policies.

This is the executed counterpart of the *modeled* policy space in
:mod:`repro.comm.policies` (one enum serves both; see
``HaloGranularity``).  The stencil drives the exchanger through a
split-phase API so the policies differ only in *when* rounds happen:

* ``blocking`` (``HaloGranularity.FUSED``): one round carries every
  face of every partitioned direction — fewest synchronizations, no
  compute/communication overlap.
* ``pairwise`` (``HaloGranularity.FINE_GRAINED``): one round per
  direction, both senses paired — the per-dimension update of QUDA's
  fine-grained dslash policies.
* ``overlap`` (``HaloGranularity.OVERLAP``): one fused round is begun,
  the *interior* is computed while the faces are in flight, and the
  boundary slabs are fixed up after :meth:`HaloExchanger.complete` —
  the paper's interior/boundary ``dslash-policy`` split.

Face tags are ``("f", mu)`` — the low face of the forward-projected
half-spinor, consumed by the ``-mu`` neighbour as its ``psi(x + mu)``
ghost — and ``("b", mu)`` — the high face of ``U^H psi``, consumed by
the ``+mu`` neighbour as its ``psi(x - mu)`` ghost.  Gauge links never
travel: the backward hop's color multiply happens on the owning rank.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.comm.decomp import RankGrid
from repro.comm.shm import Fabric, FaceTag

__all__ = ["HaloExchanger", "face_index", "EXECUTED_POLICIES", "feasible_policies"]

#: Executed schedule names, in the order benchmarks report them.
EXECUTED_POLICIES = ("blocking", "pairwise", "overlap")


def feasible_policies(grid: RankGrid) -> tuple[str, ...]:
    """The executed schedules ``grid`` can run: ``overlap`` needs local
    extent >= 2 along every partitioned direction (the precondition
    :meth:`RankGrid.check_overlap_feasible` raises on) — what a policy
    race skips instead of failing."""
    thin = bool(grid.partitioned) and grid.min_partitioned_extent() < 2
    return tuple(p for p in EXECUTED_POLICIES if not (thin and p == "overlap"))


def face_index(mu: int, side: int, lead: int = 1) -> tuple:
    """Index tuple selecting one face slab, keeping the unit axis.

    ``side`` 0 is the low face, 1 the high face; ``lead`` counts leading
    (non-site) axes before the site axes.
    """
    sl = slice(0, 1) if side == 0 else slice(-1, None)
    return (slice(None),) * (lead + mu) + (sl,)


class HaloExchanger:
    """Split-phase, double-buffered halo exchange for one rank.

    Rounds are collective: every rank must call :meth:`begin` /
    :meth:`complete` in the same order with the same tags (the uniform
    rank program guarantees this).  ``messages``/``bytes_sent`` count
    actual off-rank traffic for the benchmark reports.
    """

    def __init__(self, fabric: Fabric, grid: RankGrid, rank: int):
        self.fabric = fabric
        self.grid = grid
        self.rank = rank
        self.partitioned = grid.partitioned
        self._dst = {
            ("f", mu): grid.neighbor(rank, mu, -1) for mu in self.partitioned
        } | {("b", mu): grid.neighbor(rank, mu, +1) for mu in self.partitioned}
        self._round = 0
        self._pending: dict[FaceTag, tuple[tuple[int, ...], np.dtype]] = {}
        self.rounds = 0
        self.messages = 0
        self.bytes_sent = 0
        #: cumulative seconds spent inside :meth:`complete` — the halo
        #: wait the overlap schedule tries to hide behind interior
        #: compute (benchmarks report the hidden fraction from this).
        self.wait_seconds = 0.0

    def begin(self, faces: dict[FaceTag, np.ndarray]) -> None:
        """Post faces for the current round (they are 'in flight' until
        :meth:`complete`).

        The posting pass runs inside a ``halo.begin`` observability
        span attributed with the off-rank bytes of this round.
        """
        slot = self._round % 2
        with obs.span("halo.begin", cat="comm", rank=self.rank,
                      n_faces=len(faces)) as sp:
            for tag, arr in faces.items():
                dst = self._dst[tag]
                self.fabric.post(dst, slot, tag, arr)
                self._pending[tag] = (arr.shape, arr.dtype)
                if dst != self.rank:
                    self.messages += 1
                    self.bytes_sent += arr.nbytes
                    sp.add_bytes(arr.nbytes)

    def complete(self) -> dict[FaceTag, np.ndarray]:
        """Synchronize the round and return the received ghost faces.

        The returned arrays live in transport-owned storage valid until
        the same slot's round two exchanges later — consume (copy or
        inject) before then, which every stencil here does immediately.
        """
        slot = self._round % 2
        self._round += 1
        self.rounds += 1
        t0 = time.perf_counter()
        with obs.span("halo.complete", cat="comm", rank=self.rank,
                      round=self.rounds) as sp:
            self.fabric.barrier()
            got = {tag: self.fabric.fetch(slot, tag, shape, dtype)
                   for tag, (shape, dtype) in self._pending.items()}
            sp.add_bytes(sum(int(np.prod(sh)) * np.dtype(dt).itemsize
                             for sh, dt in self._pending.values()))
        self.wait_seconds += time.perf_counter() - t0
        self._pending = {}
        return got

    def exchange(self, faces: dict[FaceTag, np.ndarray]) -> dict[FaceTag, np.ndarray]:
        """One blocking round: :meth:`begin` then :meth:`complete`."""
        self.begin(faces)
        return self.complete()

    def exchange_field(self, local: np.ndarray, lead: int = 1) -> dict[FaceTag, np.ndarray]:
        """Exchange whole-field ghost faces of ``local`` in one round.

        Convenience for tests and ghost-cell fills: for each partitioned
        ``mu`` the returned ``("f", mu)`` slab holds the ``+mu``
        neighbour's low face (this rank's ``x + mu`` ghost) and
        ``("b", mu)`` the ``-mu`` neighbour's high face (the ``x - mu``
        ghost) — exactly what ``np.roll`` of the global field places in
        the ghost slots.
        """
        faces = {}
        for mu in self.partitioned:
            faces[("f", mu)] = local[face_index(mu, 0, lead)]
            faces[("b", mu)] = local[face_index(mu, 1, lead)]
        return self.exchange(faces)
