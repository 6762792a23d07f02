"""Executed transports for the domain-decomposition runtime.

The paper's dense-node communication (Section V) has two physical
flavours we emulate on one host:

* **zero-copy / CUDA-IPC**: peers map each other's memory and read halo
  buffers directly.  Here: worker *threads* sharing one address space
  (:class:`ThreadFabric`) — a post is a pointer-sized hand-off.
* **staged through host memory**: halo bytes are copied into a shared
  staging region the peer then reads.  Here: worker *processes* over
  ``multiprocessing.shared_memory`` (:class:`ShmFabric`/:class:`ShmArena`)
  — a post memcpys the face into a preallocated mailbox segment.

Both fabrics expose the same tiny contract to the rank program:

``post(dst, tag, arr)`` / ``fetch(tag, shape)``
    Double-buffered mailboxes.  Posts within one *exchange round* go to
    the slot ``round % 2``; :class:`repro.comm.exchange.HaloExchanger`
    advances the round, and one barrier per round makes slot reuse safe
    (a rank reads round ``n`` before it can write round ``n + 2``).
``barrier(timeout)``
    Collective rendezvous; raises :class:`CommTimeoutError` instead of
    deadlocking, so a wedged exchange fails fast (CI relies on this).
``allreduce_rows(row0, partials)``
    Deterministic global sum: every rank deposits per-slice partial
    reductions at its global row offset, and after a barrier *every*
    rank sums the identical ``(rows, k)`` table in the identical order.
    The result is therefore invariant under the rank count — the
    property the distributed CG's bitwise reproducibility rests on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "CommTimeoutError",
    "FabricSpec",
    "Fabric",
    "ThreadFabric",
    "ThreadShared",
    "ShmArena",
    "ShmFabric",
]

_ALIGN = 128  # cache-line-friendly region alignment

FaceTag = tuple[str, int]  # ("f"|"b", mu)


class CommTimeoutError(RuntimeError):
    """A collective did not complete within the fabric timeout."""


@dataclass(frozen=True)
class FabricSpec:
    """Shapes every rank (and the driver) derives the wire layout from.

    The layout is a pure function of this spec, so worker processes
    recompute it instead of shipping offsets around.
    """

    n_ranks: int
    local_dims: tuple[int, int, int, int]
    partitioned: tuple[int, ...]
    n_max: int  # widest supported leading (multi-RHS) axis
    reduce_rows: int  # global slice count of the reduction table
    timeout: float = 60.0

    @property
    def local_volume(self) -> int:
        v = 1
        for L in self.local_dims:
            v *= L
        return v

    def face_tags(self) -> tuple[FaceTag, ...]:
        return tuple((d, mu) for mu in self.partitioned for d in ("f", "b"))

    def face_nbytes(self, mu: int) -> int:
        # full-spinor worst case (12 complex per site) so the same
        # mailbox serves half-spinor stencil faces and whole-field tests
        sites = self.local_volume // self.local_dims[mu]
        return self.n_max * sites * 12 * 16

    @property
    def field_nbytes(self) -> int:
        return self.n_max * self.local_volume * 12 * 16

    @property
    def reduce_nbytes(self) -> int:
        return 2 * self.reduce_rows * self.n_max * 8  # double-buffered f8


class Fabric:
    """Per-rank transport handle (see module docstring for the contract)."""

    def __init__(self, spec: FabricSpec, rank: int):
        self.spec = spec
        self.rank = rank
        self.n_ranks = spec.n_ranks
        self._reduce_round = 0

    # -- collective rendezvous -------------------------------------------
    def barrier(self) -> None:
        raise NotImplementedError

    # -- mailboxes --------------------------------------------------------
    def post(self, dst: int, slot: int, tag: FaceTag, arr: np.ndarray) -> None:
        raise NotImplementedError

    def fetch(
        self, slot: int, tag: FaceTag, shape: tuple[int, ...], dtype=np.complex128
    ) -> np.ndarray:
        raise NotImplementedError

    # -- deterministic reductions ------------------------------------------
    def _reduce_table(self, slot: int) -> np.ndarray:
        """The shared ``(reduce_rows, n_max)`` float64 table of one slot."""
        raise NotImplementedError

    def allreduce_rows(self, row0: int, partials: np.ndarray) -> np.ndarray:
        """Sum per-slice partials over all ranks, identically everywhere.

        ``partials`` has shape ``(local_rows, k)``; rank rows land at
        global offset ``row0``.  Returns the length-``k`` global sums,
        computed as one column-wise ``np.sum`` over the full table — the
        same array in the same order on every rank and for every rank
        count, hence decomposition-invariant.
        """
        rows, k = partials.shape
        slot = self._reduce_round % 2
        self._reduce_round += 1
        table = self._reduce_table(slot)
        table[row0 : row0 + rows, :k] = partials
        self.barrier()
        return np.sum(table[: self.spec.reduce_rows, :k], axis=0)


# ---------------------------------------------------------------------------
# threads: shared address space (the zero-copy / CUDA-IPC analogue)
# ---------------------------------------------------------------------------


class ThreadShared:
    """State shared by all :class:`ThreadFabric` handles of one runtime."""

    def __init__(self, spec: FabricSpec):
        self.spec = spec
        self.barrier = threading.Barrier(spec.n_ranks)
        self.mailbox: dict[tuple, np.ndarray] = {}
        self.reduce = np.zeros((2, spec.reduce_rows, spec.n_max), dtype=np.float64)

    def make_fabric(self, rank: int) -> "ThreadFabric":
        return ThreadFabric(self.spec, rank, self)


class ThreadFabric(Fabric):
    def __init__(self, spec: FabricSpec, rank: int, shared: ThreadShared):
        super().__init__(spec, rank)
        self._shared = shared

    def barrier(self) -> None:
        try:
            self._shared.barrier.wait(timeout=self.spec.timeout)
        except threading.BrokenBarrierError as e:
            raise CommTimeoutError(
                f"rank {self.rank}: barrier broken/timed out after "
                f"{self.spec.timeout}s"
            ) from e

    def post(self, dst: int, slot: int, tag: FaceTag, arr: np.ndarray) -> None:
        # Always a real snapshot: faces can alias workspace buffers the
        # poster overwrites later in the same stencil application (an
        # extent-1 face IS the whole buffer, where a mere
        # ascontiguousarray would alias instead of copy).
        self._shared.mailbox[(dst, slot, tag)] = np.array(arr, order="C", copy=True)

    def fetch(
        self, slot: int, tag: FaceTag, shape: tuple[int, ...], dtype=np.complex128
    ) -> np.ndarray:
        arr = self._shared.mailbox[(self.rank, slot, tag)]
        if arr.shape != tuple(shape):
            raise ValueError(f"mailbox {tag}: got {arr.shape}, expected {shape}")
        if arr.dtype != np.dtype(dtype):
            raise ValueError(f"mailbox {tag}: got {arr.dtype}, expected {dtype}")
        return arr

    def _reduce_table(self, slot: int) -> np.ndarray:
        return self._shared.reduce[slot]


# ---------------------------------------------------------------------------
# processes: multiprocessing.shared_memory (the staged-CPU analogue)
# ---------------------------------------------------------------------------


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _plan_layout(spec: FabricSpec) -> tuple[dict[tuple, tuple[int, int]], int]:
    """Deterministic region map ``key -> (offset, nbytes)`` plus total size.

    Keys: ``("reduce",)``, ``("field", r)`` — both legs of rank ``r``'s
    channel, its reply overwriting the consumed command — and
    ``("mbox", dst, slot, d, mu)``.
    """
    regions: dict[tuple, tuple[int, int]] = {}
    off = 0

    def add(key: tuple, nbytes: int) -> None:
        nonlocal off
        regions[key] = (off, nbytes)
        off += _align(nbytes)

    add(("reduce",), spec.reduce_nbytes)
    for r in range(spec.n_ranks):
        add(("field", r), spec.field_nbytes)
    for dst in range(spec.n_ranks):
        for slot in (0, 1):
            for d, mu in spec.face_tags():
                add(("mbox", dst, slot, d, mu), spec.face_nbytes(mu))
    return regions, off


class ShmArena:
    """One ``multiprocessing.shared_memory`` block carved into regions.

    The driver creates it (``ShmArena(spec)``); each worker process
    attaches by name (``ShmArena(spec, name=...)``) and recomputes the
    identical layout from the spec.
    """

    def __init__(self, spec: FabricSpec, name: str | None = None):
        self.spec = spec
        self._layout, self._total = _plan_layout(spec)
        self.owner = name is None
        if self.owner:
            self.shm = shared_memory.SharedMemory(create=True, size=max(self._total, 1))
        else:
            self.shm = shared_memory.SharedMemory(name=name)

    @property
    def name(self) -> str:
        return self.shm.name

    # Attach-time registration (bpo-39959) is left alone on purpose:
    # spawned workers share the driver's resource-tracker process, whose
    # name cache is a set, so their re-registrations are idempotent and
    # the driver's single unlink/unregister keeps the books balanced.
    # Unregistering here would make the driver's unregister a KeyError.

    def view(self, key: tuple, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
        """A NumPy window onto a region (no copy)."""
        off, nbytes = self._layout[key]
        need = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if need > nbytes:
            raise ValueError(f"region {key}: need {need} bytes, have {nbytes}")
        return np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=off)

    def close(self) -> None:
        self.shm.close()

    def unlink(self) -> None:
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


class ShmFabric(Fabric):
    """Process-rank fabric staging faces through an :class:`ShmArena`."""

    def __init__(self, spec: FabricSpec, rank: int, arena: ShmArena, barrier):
        super().__init__(spec, rank)
        self.arena = arena
        self._barrier = barrier

    def barrier(self) -> None:
        try:
            self._barrier.wait(timeout=self.spec.timeout)
        except Exception as e:  # BrokenBarrierError (threading or mp flavour)
            raise CommTimeoutError(
                f"rank {self.rank}: shared-memory barrier broken/timed out "
                f"after {self.spec.timeout}s"
            ) from e

    def post(self, dst: int, slot: int, tag: FaceTag, arr: np.ndarray) -> None:
        d, mu = tag
        view = self.arena.view(("mbox", dst, slot, d, mu), arr.shape, arr.dtype)
        view[...] = arr  # the staging copy

    def fetch(
        self, slot: int, tag: FaceTag, shape: tuple[int, ...], dtype=np.complex128
    ) -> np.ndarray:
        d, mu = tag
        return self.arena.view(("mbox", self.rank, slot, d, mu), tuple(shape), dtype)

    def _reduce_table(self, slot: int) -> np.ndarray:
        table = self.arena.view(
            ("reduce",), (2, self.spec.reduce_rows, self.spec.n_max), np.float64
        )
        return table[slot]
