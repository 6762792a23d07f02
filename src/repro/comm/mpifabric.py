"""MPI-backed fabric: real inter-process halo transport (ROADMAP item 3).

:class:`MpiFabric` implements the exact :class:`repro.comm.shm.Fabric`
contract over nonblocking point-to-point MPI — each ``post`` copies the
ghost face into a per-(slot, tag) send buffer, launches an ``Isend`` to
the neighbour and pre-posts the matching ``Irecv`` from the *mirror*
neighbour (the rank program is uniform, so for every face this rank
sends there is one arriving with the same tag and shape).  ``barrier``
drains every pending request and runs a polled ``Ibarrier``, raising
:class:`~repro.comm.shm.CommTimeoutError` instead of deadlocking.
Global reductions bypass MPI's reduction trees entirely:
``allreduce_rows`` allgathers the per-rank partial rows and every rank
rebuilds and sums the *identical* slice table in the identical order —
the same fixed-order sum the thread/shm fabrics use, which is what keeps
the distributed CG invariant under the rank count *and* the transport
(deterministic, same host).

The fabric is written against the small mpi4py API subset it actually
uses (``Get_rank``/``Get_size``/``Isend``/``Irecv``/``Ibarrier``/
``allgather`` + ``Request.Test``), taking the communicator as a
constructor argument.  That makes the logic testable without mpi4py:
:class:`LoopbackComm` is an in-process stand-in implementing the same
subset over queues and condition variables, so the tier-1 suite runs the
rank program over this fabric (``DecompRuntime(transport="loopback")``:
rank threads, each on its own loopback communicator) on hosts where
``import mpi4py`` fails — the real binding is a thin attachment
exercised by the ``mpi-parity`` CI job under ``mpiexec``.

There is no MPI *runtime* class: a fabric is all a transport contributes.
The rank program (:func:`repro.comm.distributed.rank_main` /
``rank_command``) is the one every launcher starts, and under ``mpiexec``
:mod:`repro.comm.mpi_worker` feeds it one command per launch.
"""

from __future__ import annotations

import importlib.util
import threading
import time
from collections import deque

import numpy as np

from repro.comm.decomp import RankGrid
from repro.comm.shm import CommTimeoutError, Fabric, FabricSpec, FaceTag

__all__ = [
    "MPI4PY_AVAILABLE",
    "mpi4py_available",
    "MpiFabric",
    "LoopbackWorld",
    "LoopbackComm",
]

#: Whether ``mpi4py`` is importable in this process (checked without
#: importing it, so merely loading this module never initializes MPI).
MPI4PY_AVAILABLE = importlib.util.find_spec("mpi4py") is not None


def mpi4py_available() -> tuple[bool, str]:
    """(available, reason-if-not) for skip-with-reason gating."""
    if MPI4PY_AVAILABLE:
        return True, ""
    return False, "mpi4py is not installed"


def _encode_tag(slot: int, tag: FaceTag) -> int:
    """Pack (slot, side, mu) into one small MPI tag (0..15)."""
    d, mu = tag
    return (slot << 3) | ((0 if d == "f" else 1) << 2) | mu


def _wait_all(requests, timeout: float, what: str, rank: int) -> None:
    """Poll ``Request.Test`` until all complete or the deadline passes."""
    deadline = time.perf_counter() + timeout
    pending = list(requests)
    while pending:
        pending = [r for r in pending if not r.Test()]
        if pending and time.perf_counter() > deadline:
            raise CommTimeoutError(
                f"rank {rank}: {len(pending)} {what} request(s) still "
                f"pending after {timeout}s"
            )
        if pending:
            time.sleep(0)  # yield; progresses loopback peers and MPI alike
    return None


class MpiFabric(Fabric):
    """Per-rank fabric over an MPI communicator (see module docstring).

    ``comm`` is any object with the mpi4py subset documented above —
    ``mpi4py.MPI.COMM_WORLD`` under a launcher, :class:`LoopbackComm`
    in-process.  ``grid`` supplies the mirror-neighbour map for
    pre-posting receives.
    """

    def __init__(self, spec: FabricSpec, grid: RankGrid, comm):
        rank = comm.Get_rank()
        super().__init__(spec, rank)
        if comm.Get_size() != spec.n_ranks:
            raise ValueError(
                f"communicator has {comm.Get_size()} ranks, spec wants "
                f"{spec.n_ranks}"
            )
        self.comm = comm
        self.grid = grid
        # the rank whose ("f"/"b", mu) face lands in *this* rank's slot:
        # the mirror of HaloExchanger's destination map
        self._src = {("f", mu): grid.neighbor(rank, mu, +1) for mu in grid.partitioned}
        self._src |= {("b", mu): grid.neighbor(rank, mu, -1) for mu in grid.partitioned}
        self._send_bufs: dict[tuple, np.ndarray] = {}
        self._recv_bufs: dict[tuple, np.ndarray] = {}
        self._send_reqs: list = []
        self._recv_reqs: dict[tuple[int, FaceTag], object] = {}

    def _buffer(self, pool: dict, key: tuple, shape, dtype) -> np.ndarray:
        buf = pool.get(key)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != np.dtype(dtype):
            buf = np.empty(tuple(shape), dtype=dtype)
            pool[key] = buf
        return buf

    def post(self, dst: int, slot: int, tag: FaceTag, arr: np.ndarray) -> None:
        key = (slot, tag)
        if key in self._recv_reqs:  # contract: consumed before slot reuse
            raise RuntimeError(
                f"rank {self.rank}: face {tag} slot {slot} reposted before "
                "the previous round was fetched"
            )
        arr = np.asarray(arr)
        sbuf = self._buffer(self._send_bufs, key, arr.shape, arr.dtype)
        sbuf[...] = arr  # snapshot: the caller may overwrite arr mid-round
        mpitag = _encode_tag(slot, tag)
        self._send_reqs.append(self.comm.Isend(sbuf, dest=dst, tag=mpitag))
        # Pre-post the mirror receive: uniform rank program, so the face
        # arriving under this tag has the same shape/dtype as the one
        # just sent.
        rbuf = self._buffer(self._recv_bufs, key, arr.shape, arr.dtype)
        self._recv_reqs[key] = self.comm.Irecv(
            rbuf, source=self._src[tag], tag=mpitag
        )

    def barrier(self) -> None:
        reqs = self._send_reqs + list(self._recv_reqs.values())
        self._send_reqs = []
        _wait_all(reqs, self.spec.timeout, "halo", self.rank)
        _wait_all([self.comm.Ibarrier()], self.spec.timeout, "barrier", self.rank)

    def fetch(
        self, slot: int, tag: FaceTag, shape: tuple[int, ...], dtype=np.complex128
    ) -> np.ndarray:
        key = (slot, tag)
        req = self._recv_reqs.pop(key, None)
        if req is not None:  # barrier() already drained it; Test is idempotent
            _wait_all([req], self.spec.timeout, f"recv {tag}", self.rank)
        buf = self._recv_bufs[key]
        if buf.shape != tuple(shape):
            raise ValueError(f"mailbox {tag}: got {buf.shape}, expected {shape}")
        if buf.dtype != np.dtype(dtype):
            raise ValueError(f"mailbox {tag}: got {buf.dtype}, expected {dtype}")
        return buf

    def allreduce_rows(self, row0: int, partials: np.ndarray) -> np.ndarray:
        """Fixed-order global sum via allgather + local table rebuild.

        MPI_Allreduce would sum in an implementation-defined tree order;
        instead every rank receives all partial rows, scatters them into
        the same ``(reduce_rows, k)`` table the shared-memory fabrics
        use, and reduces it with the same column-wise ``np.sum`` — so
        the bits match the thread/shm transports exactly.
        """
        self._reduce_round += 1  # kept for parity with the base contract
        rows, k = partials.shape
        gathered = self.comm.allgather(
            (int(row0), np.ascontiguousarray(partials, dtype=np.float64))
        )
        table = np.zeros((self.spec.reduce_rows, k), dtype=np.float64)
        for r0, part in gathered:
            table[r0 : r0 + part.shape[0], : part.shape[1]] = part
        return np.sum(table, axis=0)


# ---------------------------------------------------------------------------
# loopback communicator: the mpi4py API subset, in-process
# ---------------------------------------------------------------------------


class _LoopSendRequest:
    """Eager send: the bytes were copied out at Isend time."""

    def Test(self) -> bool:
        return True


class _LoopRecvRequest:
    def __init__(self, world: "LoopbackWorld", rank: int, source: int, tag: int, buf):
        self.world = world
        self.rank = rank
        self.source = source
        self.tag = tag
        self.buf = buf
        self.done = False

    def Test(self) -> bool:
        if self.done:
            return True
        with self.world._cv:
            box = self.world._messages.get((self.source, self.rank, self.tag))
            if not box:
                return False
            data = box.popleft()
        flat = np.asarray(self.buf).reshape(-1)
        flat[...] = data.reshape(-1)
        self.done = True
        return True


class _LoopBarrierRequest:
    def __init__(self, world: "LoopbackWorld", gen: int):
        self.world = world
        self.gen = gen

    def Test(self) -> bool:
        with self.world._cv:
            return self.world._barrier_done >= self.gen


class LoopbackWorld:
    """Shared state behind a set of :class:`LoopbackComm` handles.

    One world = one simulated ``MPI_COMM_WORLD``; ``comm(rank)`` hands
    out the per-rank communicator.  Rank programs run in threads (the
    same harness the thread fabric uses), messages are eager copies, and
    collectives rendezvous on a condition variable with the world
    timeout — a wedged collective raises instead of hanging the suite.
    """

    def __init__(self, n_ranks: int, timeout: float = 60.0):
        self.n_ranks = int(n_ranks)
        self.timeout = float(timeout)
        self._cv = threading.Condition()
        self._messages: dict[tuple[int, int, int], deque] = {}
        self._barrier_done = 0
        self._gather: dict[int, dict[int, object]] = {}
        self._gather_gen = [0] * self.n_ranks
        self._barrier_gen = [0] * self.n_ranks

    def comm(self, rank: int) -> "LoopbackComm":
        return LoopbackComm(self, rank)

    # -- internals used by the comm handles --------------------------------
    def _send(self, src: int, dst: int, tag: int, buf) -> None:
        data = np.array(np.asarray(buf).reshape(-1), copy=True)
        with self._cv:
            self._messages.setdefault((src, dst, tag), deque()).append(data)
            self._cv.notify_all()

    def _ibarrier(self, rank: int) -> _LoopBarrierRequest:
        with self._cv:
            self._barrier_gen[rank] += 1
            gen = self._barrier_gen[rank]
            # a barrier generation completes once every rank has arrived
            if min(self._barrier_gen) > self._barrier_done:
                self._barrier_done = min(self._barrier_gen)
                self._cv.notify_all()
        return _LoopBarrierRequest(self, gen)

    def _allgather(self, rank: int, obj) -> list:
        with self._cv:
            self._gather_gen[rank] += 1
            gen = self._gather_gen[rank]
            slot = self._gather.setdefault(gen, {})
            slot[rank] = obj
            deadline = time.monotonic() + self.timeout
            while len(self._gather[gen]) < self.n_ranks:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cv.wait(timeout=remaining):
                    raise CommTimeoutError(
                        f"rank {rank}: allgather #{gen} saw only "
                        f"{len(self._gather[gen])}/{self.n_ranks} ranks "
                        f"after {self.timeout}s"
                    )
            self._cv.notify_all()
            out = [self._gather[gen][r] for r in range(self.n_ranks)]
            if all(g >= gen for g in self._gather_gen):
                self._gather.pop(gen - 2, None)  # retire old rounds
            return out


class LoopbackComm:
    """In-process stand-in for the mpi4py communicator subset."""

    def __init__(self, world: LoopbackWorld, rank: int):
        self.world = world
        self.rank = int(rank)

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.world.n_ranks

    def Isend(self, buf, dest: int, tag: int = 0) -> _LoopSendRequest:
        self.world._send(self.rank, dest, tag, buf)
        return _LoopSendRequest()

    def Irecv(self, buf, source: int, tag: int = 0) -> _LoopRecvRequest:
        return _LoopRecvRequest(self.world, self.rank, source, tag, buf)

    def Ibarrier(self) -> _LoopBarrierRequest:
        return self.world._ibarrier(self.rank)

    def Barrier(self) -> None:
        """Blocking barrier: spin the nonblocking one to completion."""
        req = self.Ibarrier()
        deadline = time.monotonic() + self.world.timeout
        while not req.Test():
            if time.monotonic() > deadline:
                raise CommTimeoutError(
                    f"rank {self.rank}: Barrier still pending after "
                    f"{self.world.timeout}s"
                )
            time.sleep(0)

    def Send(self, buf, dest: int, tag: int = 0) -> None:
        """Blocking send — eager copy, so it completes immediately."""
        self.world._send(self.rank, dest, tag, buf)

    def Recv(self, buf, source: int, tag: int = 0) -> None:
        """Blocking receive: spin the nonblocking one to completion."""
        req = self.Irecv(buf, source=source, tag=tag)
        deadline = time.monotonic() + self.world.timeout
        while not req.Test():
            if time.monotonic() > deadline:
                raise CommTimeoutError(
                    f"rank {self.rank}: Recv from {source} tag {tag} still "
                    f"pending after {self.world.timeout}s"
                )
            time.sleep(0)

    def allgather(self, obj) -> list:
        return self.world._allgather(self.rank, obj)
