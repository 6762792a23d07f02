"""Halo exchange over an executed fabric: one blocking round per hopping.

The executed counterpart of the *modeled* ``HaloGranularity.FUSED``
policy of :mod:`repro.comm.policies`: :meth:`HaloExchanger.exchange`
posts the faces of every partitioned direction, synchronises once and
returns the received ghosts — the fewest synchronisations per hopping.
The modeled ranking keeps the other granularities; executed on threads
and shared memory, none of them ever ran faster.

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

__all__ = ["HaloExchanger", "face_index"]


def face_index(mu: int, side: int, lead: int = 1) -> tuple:
    """Index tuple selecting one face slab, keeping the unit axis.

    ``side`` 0 is the low face, 1 the high face; ``lead`` counts leading
    (non-site) axes before the site axes.
    """
    sl = slice(0, 1) if side == 0 else slice(-1, None)
    return (slice(None),) * (lead + mu) + (sl,)


class HaloExchanger:
    """Double-buffered halo exchange for one rank.

    Rounds are collective: every rank must call :meth:`exchange` in the
    same order with the same tags (the uniform rank program guarantees
    this).  ``messages``/``bytes_sent`` count actual off-rank traffic for
    the benchmark reports.
    """

    def __init__(self, fabric: Fabric, grid: RankGrid, rank: int):
        self.fabric = fabric
        self.rank = rank
        self.partitioned = grid.partitioned
        self._dst = {
            ("f", mu): grid.neighbor(rank, mu, -1) for mu in self.partitioned
        } | {("b", mu): grid.neighbor(rank, mu, +1) for mu in self.partitioned}
        self.rounds = 0
        self.messages = 0
        self.bytes_sent = 0
        #: cumulative seconds spent synchronising rounds — the halo wait
        self.wait_seconds = 0.0

    def exchange(self, faces: dict[FaceTag, np.ndarray]) -> dict[FaceTag, np.ndarray]:
        """One blocking round: post ``faces``, synchronise, return the
        received ghost faces.

        Posting runs inside a ``halo.begin`` observability span attributed
        with the round's off-rank bytes, the synchronisation and fetch
        inside ``halo.complete``.  The returned arrays live in
        transport-owned storage valid until the same slot's round two
        exchanges later — consume (copy or inject) before then, which
        every stencil here does immediately.
        """
        slot = self.rounds % 2
        self.rounds += 1
        with obs.span("halo.begin", cat="comm", rank=self.rank,
                      n_faces=len(faces)) as sp:
            for tag, arr in faces.items():
                dst = self._dst[tag]
                self.fabric.post(dst, slot, tag, arr)
                if dst != self.rank:
                    self.messages += 1
                    self.bytes_sent += arr.nbytes
                    sp.add_bytes(arr.nbytes)
        t0 = time.perf_counter()
        with obs.span("halo.complete", cat="comm", rank=self.rank,
                      round=self.rounds) as sp:
            self.fabric.barrier()
            got = {tag: self.fabric.fetch(slot, tag, arr.shape, arr.dtype)
                   for tag, arr in faces.items()}
            sp.add_bytes(sum(arr.nbytes for arr in faces.values()))
        self.wait_seconds += time.perf_counter() - t0
        return got

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
