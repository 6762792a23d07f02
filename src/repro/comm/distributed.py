"""Rank-parallel Wilson/even-odd dslash and CG over executed transports.

Every rank runs the *same* program, :func:`rank_main`: a
:class:`_RankContext` built from the :class:`RankPlan` all ranks share,
serving ``(cmd, field, args)`` messages from a channel through one
dispatch, :func:`rank_command`.  How ranks are started is a scheduling
decision, never a second program: a *launcher* starts ``rank_main`` n
times (threads or spawned processes) and hands the driver its channel
ends.  The driver (:class:`DecompRuntime`) hands each channel a view
of its rank's slice of a global field with the command and gathers the
replies straight into one output; how a field crosses that boundary is
the channel's business alone.  The facades at the bottom mirror the serial
operator/solver APIs.

One stencil, one schedule, one Schur class
------------------------------------------
Nothing in this file knows about spin or colour.  The stencil is the
serial one — :meth:`HalfSpinorKernel.hopping(phi, ghosts)
<repro.dirac.kernels.halfspinor.HalfSpinorKernel.hopping>` over the
rank's links — and a rank differs from the serial operator only in
passing ``ghosts``: the neighbours' :meth:`~repro.dirac.kernels.
halfspinor.HalfSpinorKernel.faces`, spin-projected so 12 of 24 reals per
face site travel.  :class:`RankStencil` is the *schedule*, and there is
one: each hopping sends the faces of every partitioned direction in one
blocking round, for the full and for the checkerboard-packed layout
alike, and with no partitioned direction it is a direct call of the
kernel — serial is the 1-rank case.  The red-black chain is :class:`repro.dirac.evenodd_wilson.
WilsonSchur`, the class behind the serial ``EvenOddWilson``, instantiated
on the rank's hopping term: on full-lattice fields for the field
operations, and for the solve on checkerboard-*packed* half-volume
fields (a solve runs on a slab grid along x, so t is unpartitioned) —
Schur vectors occupy one parity only, so packing halves the
sites every hot pass touches, mirroring QUDA's half-lattice
preconditioned dslash.

Reproducibility: two guarantees, of two kinds
---------------------------------------------
Both are engineered in, and the test suite pins both:

* **Dslash and the Schur field operations equal the serial ones for any
  rank grid and layout — exact on any host.**  NumPy elementwise
  kernels are per-element deterministic regardless of array shape, and
  the distributed path runs the serial kernel's own per-site operation
  chain; only *data movement* differs: a local periodic roll whose
  wrapped plane is overwritten with the fetched face yields the same
  bytes `np.roll` produces globally, faces computed from boundary slabs
  are the bytes the loop computes there, and packing is a permutation.
  No reduction is involved, so the identity holds whatever BLAS numpy
  was built on.
* **The solvers are invariant under the rank count and the transport
  (1-rank runtime included) — deterministic, same host.**  The Krylov recurrence is the serial solvers' own
  (:func:`rank_solve` hands ``ConjugateGradient._run`` /
  ``ReliableUpdateCG._run`` a collective inner product); global inner
  products are computed as per-global-slice partial sums deposited into
  one shared table and reduced in a fixed global order on every rank
  (:class:`SliceReducer` + ``Fabric.allreduce_rows``) — never as a
  rank-count-dependent tree.  Slab grids along the reduction axis keep
  each slice's partial within one rank, so the partials themselves are
  decomposition-invariant.  This holds for any BLAS, but each slice
  partial is a ``vdot``, so the bits differ between BLAS builds: compare
  runs on one host.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import traceback
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro import obs
from repro.comm.decomp import RankGrid, slab_grid
from repro.comm.exchange import HaloExchanger
from repro.comm.shm import Fabric, FabricSpec, ShmArena, ShmFabric, ThreadShared
from repro.dirac.evenodd_wilson import WilsonSchur, parity_fields
from repro.dirac.kernels import HalfSpinorKernel
from repro.dirac.kernels.base import DslashKernel
from repro.lattice.gauge import GaugeField
from repro.solvers.cg import BatchedSolveResult, ConjugateGradient
from repro.solvers.multiprec import ReliableUpdateCG
from repro.solvers.precision import SinglePrecision
from repro.utils.spawn import spawn_context, start_process

__all__ = [
    "RankStencil",
    "SliceReducer",
    "DecompRuntime",
    "DistributedWilsonOperator",
    "DistributedEvenOddOperator",
    "DistributedCG",
]


# ---------------------------------------------------------------------------
# rank-side stencil: a halo schedule around the serial kernel
# ---------------------------------------------------------------------------


class RankStencil:
    """The Wilson hopping term on one rank's block.

    ``kernel`` is the serial half-spinor kernel over the local links; this
    class only moves its faces.  One schedule, for the full layout and —
    ``parity=`` — the checkerboard-packed one: with no partitioned
    direction, ``kernel.hopping(phi)`` and nothing else; otherwise one
    blocking round per hopping (never per RHS tile) carrying the faces of
    every partitioned direction, then the kernel on the received ghosts.
    """

    def __init__(self, kernel: DslashKernel, grid: RankGrid, rank: int, fabric: Fabric):
        self.kernel = kernel
        self.part = grid.partitioned
        self.exchanger = HaloExchanger(fabric, grid, rank)

    def hopping(self, phi, parity=None, dagger: bool = False, diag=None, out=None) -> np.ndarray:
        """``H phi`` on the local block ``(n,) + local_dims + (4, 3)`` (or,
        with ``parity``, on its packed parity-``parity`` sites); ``dagger``,
        ``diag`` and ``out`` are the kernel's, the faces follow ``dagger``."""
        k = self.kernel
        ghosts = None
        if self.part:
            faces = {}
            for mu in self.part:
                faces.update(k.faces(phi, mu, parity, dagger=dagger))
            ghosts = self.exchanger.exchange(faces)
        return k.hopping(phi, ghosts, parity=parity, dagger=dagger, diag=diag, out=out)


class SliceReducer:
    """Decomposition-invariant batched inner products.

    Partials are one ``Re <a_i, b_i>`` per (global slice along the
    reduction axis, right-hand side); each slice lives wholly inside one
    rank (slab grids), so the table content — and its fixed-order global
    sum — is identical for every rank count.  Axis 0 keeps each
    ``a[i, j]`` chunk contiguous, so ``np.vdot`` runs copy-free.
    """

    AXIS = 0

    def __init__(self, fabric: Fabric, grid: RankGrid, rank: int):
        bad = [mu for mu in grid.partitioned if mu != self.AXIS]
        if bad:
            raise ValueError(
                "distributed CG reductions need a slab grid along axis 0; "
                f"grid {grid.grid} also partitions axes {bad}"
            )
        self.fabric = fabric
        self.local_rows = grid.local_dims[self.AXIS]
        self.row0 = grid.coords(rank)[self.AXIS] * self.local_rows
        if fabric.spec.reduce_rows != grid.global_dims[self.AXIS]:
            raise ValueError("fabric reduction table does not match the lattice")

    def batch_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Global per-RHS ``Re <a_i, b_i>`` (identical on every rank)."""
        k = a.shape[0]
        partials = np.empty((self.local_rows, k), dtype=np.float64)
        for j in range(self.local_rows):
            aj = a[:, j]
            bj = b[:, j]
            for i in range(k):
                partials[j, i] = np.vdot(aj[i], bj[i]).real
        return self.fabric.allreduce_rows(self.row0, partials)


# ---------------------------------------------------------------------------
# the rank program: one plan, one context, one dispatch, one main loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankPlan:
    """The validated, picklable value a run is built from, made once: the
    driver and a spawned rank hold the same plan, so nothing is normalised
    or derived twice."""

    grid: RankGrid
    mass: float
    max_rhs: int
    timeout: float

    @classmethod
    def make(
        cls, dims, mass, *, ranks=None, grid=None, max_rhs=12, timeout=60.0,
    ) -> "RankPlan":
        """Normalise and check every knob of :class:`DecompRuntime` that
        reaches a rank — ``ValueError`` here, before any rank is started."""
        if grid is None:
            if ranks is None:
                raise ValueError("pass either ranks= or grid=")
            grid = slab_grid(dims, ranks)
        grid = RankGrid.make(dims, tuple(grid))
        return cls(grid, float(mass), int(max_rhs), float(timeout))

    @property
    def spec(self) -> FabricSpec:
        """The wire layout every fabric of this run is sized from."""
        grid = self.grid
        return FabricSpec(
            n_ranks=grid.n_ranks,
            local_dims=grid.local_dims,
            partitioned=grid.partitioned,
            n_max=self.max_rhs,
            reduce_rows=grid.global_dims[SliceReducer.AXIS],
            timeout=self.timeout,
        )

    def stack(self, psi: np.ndarray) -> np.ndarray:
        """A global field with any leading axes as one contiguous ``(n,) +
        dims + (4, 3)`` stack the transport is sized for (complex64 kept)."""
        tail = self.grid.global_dims + (4, 3)
        if psi.shape[-6:] != tail:
            raise ValueError(f"field tail {psi.shape[-6:]} != lattice {tail}")
        phi = psi.reshape((-1,) + tail)
        if phi.shape[0] > self.max_rhs:
            raise ValueError(f"{phi.shape[0]} stacked fields exceed max_rhs={self.max_rhs}")
        return np.ascontiguousarray(phi, dtype=np.result_type(phi.dtype, np.complex64))

    def block(self, arr: np.ndarray, rank: int) -> np.ndarray:
        """``rank``'s contiguous block of a global links- or stack-shaped array."""
        return np.ascontiguousarray(arr[(slice(None),) + self.grid.site_slices(rank)])


class _RankContext:
    """Everything one rank needs, independent of the transport."""

    def __init__(self, plan: RankPlan, rank: int, fabric: Fabric, u_local: np.ndarray):
        grid, mass = plan.grid, plan.mass
        geometry = grid.local_geometry(rank)
        self.plan = plan
        kernel = HalfSpinorKernel(u_local, geometry)
        self.stencil = RankStencil(kernel, grid, rank, fabric)
        hop = self.stencil.hopping
        #: the red-black chain on full-lattice local fields (field ops)
        self.eo = WilsonSchur(lambda x, parity, **kw: hop(x, **kw), mass, *parity_fields(geometry))
        #: the chain the solve runs, on checkerboard-packed fields: a solve
        #: needs a slab grid along x (the reducer), so t, the packed axis,
        #: is never partitioned, and ``Geometry`` makes every extent even
        self.eo_solve = WilsonSchur.packed(kernel, hop, mass)
        self._reducer_args = (fabric, grid, rank)

    @cached_property
    def reducer(self) -> SliceReducer:
        """Built on first solve: only slab grids along x admit one."""
        return SliceReducer(*self._reducer_args)


#: The rank program's field operations, by wire code: ``fn(ctx, phi)``
#: on one rank's local block.  :func:`rank_command` is their only
#: caller, so an operation is added here and nowhere else.
RANK_OPS = {
    "hopping": lambda ctx, phi: ctx.stencil.hopping(phi),
    "apply": lambda ctx, phi: ctx.stencil.hopping(phi, diag=ctx.plan.mass + 4.0),
    "schur": lambda ctx, phi: ctx.eo.schur_apply(phi),
    "schur_dagger": lambda ctx, phi: ctx.eo.schur_dagger_apply(phi),
    "schur_normal": lambda ctx, phi: ctx.eo.schur_normal_apply(phi),
    "prepare_rhs": lambda ctx, phi: ctx.eo.prepare_rhs(phi),
}


def rank_solve(
    ctx: _RankContext,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    reliable: bool = True,
    delta: float | None = None,
) -> BatchedSolveResult:
    """The full propagator pipeline on one rank (collective throughout).

    Prepares the even-site system (on ``ctx.eo_solve``'s
    checkerboard-packed fields, half the work everywhere), hands the
    normal system to the *serial* solvers' own
    recurrence — by default the paper's double-single solver,
    :meth:`ReliableUpdateCG._run` with a complex64 inner loop (stencil,
    halo faces, Krylov vectors) and double refreshes at ``delta``
    (``None``: ``sqrt(epsilon_single)``), else all-double
    :meth:`ConjugateGradient._run` — with the collective reducer as the
    inner product, and reconstructs the full-lattice local solution.

    Returns the solver's own result (identical on every rank) with ``x``
    this rank's block of the solution and ``final_relres`` the prepared
    even-site system's residual.  Each field is freed at its last use.
    """
    eo, dot = ctx.eo_solve, ctx.reducer.batch_dot
    b_prep = eo.prepare_rhs(b)
    rhs = eo.schur_dagger_apply(b_prep)
    if reliable:
        delta = np.sqrt(SinglePrecision().epsilon()) if delta is None else delta
        solver = ReliableUpdateCG(SinglePrecision(), tol=tol, delta=delta, max_iter=max_iter)
    else:
        solver = ConjugateGradient(tol=tol, max_iter=max_iter)
    res = solver._run(eo.schur_normal_apply, rhs, dot=dot)
    del rhs
    pnorm, orig = np.sqrt(dot(b_prep, b_prep)), eo.schur_apply(res.x)
    np.subtract(b_prep, orig, out=orig)
    del b_prep
    onorm = np.sqrt(dot(orig, orig))
    del orig
    res.final_relres = np.where(
        pnorm > 0.0, onorm / np.where(pnorm > 0.0, pnorm, 1.0), res.final_relres
    )
    res.x = eo.reconstruct(res.x, b)
    return res


def rank_command(ctx: _RankContext, cmd: str, field, args) -> tuple:
    """The one dispatch of the rank program: the ``(field, meta)`` reply
    to a command, its local ``field`` block (or ``None``) and ``args``.
    ``stats`` is one ``halo_stats`` row, ``cg`` is :func:`rank_solve`
    (keywords in ``args``; the block of ``x`` travels as the field, the
    rest of the result as meta), anything else a :data:`RANK_OPS` code."""
    if cmd == "stats":
        ex = ctx.stencil.exchanger
        return None, {
            "rounds": ex.rounds,
            "messages": ex.messages,
            "bytes_sent": ex.bytes_sent,
            "wait_seconds": ex.wait_seconds,
            "interior_seconds": 0.0,  # read by benchmarks/e2e/workloads.py
        }
    if cmd == "cg":
        res = rank_solve(ctx, field.astype(np.complex128, copy=False), **args)  # b is double
        return res.x, replace(res, x=None)
    if cmd not in RANK_OPS:
        raise ValueError(f"unknown rank command {cmd!r}")
    return RANK_OPS[cmd](ctx, field), None


def rank_main(plan: RankPlan, rank: int, fabric: Fabric, u_local: np.ndarray, chan) -> None:
    """What every launcher starts: answer each ``(cmd, field, args)`` on
    ``chan`` with ``("ok", field, meta)`` or ``("err", None, traceback)``
    until ``stop`` (or EOF).  A rank that cannot build its context says so
    the same way; the driver reads it as the reply to its first command."""
    try:
        ctx = _RankContext(plan, rank, fabric, u_local)
    except Exception:
        chan.send(("err", None, traceback.format_exc()))
        return
    while True:
        try:
            cmd, field, args = chan.recv()
        except EOFError:
            return
        if cmd == "stop":
            return
        try:
            reply = ("ok", *rank_command(ctx, cmd, field, args))
        except Exception:
            reply = ("err", None, traceback.format_exc())
        chan.send(reply)
        del reply, field  # a solve's x must not outlive its send


@dataclass
class _QueueChannel:
    """One end of an in-process channel: a message's field crosses by
    reference, made contiguous (a strided slice becomes the rank's block)."""

    inbox: queue.Queue
    outbox: queue.Queue

    @classmethod
    def pair(cls) -> tuple["_QueueChannel", "_QueueChannel"]:
        a, b = queue.Queue(), queue.Queue()
        return cls(a, b), cls(b, a)

    def recv(self):
        return self.inbox.get()

    def send(self, msg) -> None:
        head, field, tail = msg
        self.outbox.put((head, None if field is None else np.ascontiguousarray(field), tail))


@dataclass
class _ArenaChannel:
    """One end (either end) of a pipe whose fields are staged through the
    rank's one arena region: ``send`` copies the field in and puts its
    *shape and dtype* on the pipe, ``recv`` returns a window onto it, valid
    until the peer's next send.  A rank's reply overwrites the command it
    has consumed (replies are fresh arrays, and numpy buffers an
    overlapping assignment); the driver gathers it before its next send."""

    conn: object
    arena: ShmArena
    key: tuple

    def recv(self):
        head, spec, tail = self.conn.recv()
        field = None if spec is None else self.arena.view(self.key, *spec)
        return head, field, tail

    def send(self, msg) -> None:
        head, field, tail = msg
        if field is not None:
            self.arena.view(self.key, field.shape, field.dtype)[...] = field
            field = (field.shape, field.dtype)
        self.conn.send((head, field, tail))


def _spawned_rank(plan: RankPlan, rank: int, shm_name: str, barrier, conn) -> None:
    """Spawned-process entry: attach the arena, take the links off the pipe, run."""
    arena = None
    try:
        arena = ShmArena(plan.spec, name=shm_name)
        fabric = ShmFabric(plan.spec, rank, arena, barrier)
        chan = _ArenaChannel(conn, arena, ("field", rank))
        rank_main(plan, rank, fabric, conn.recv(), chan)
    except Exception:  # pragma: no cover - defensive: surfaced to the driver
        with contextlib.suppress(Exception):
            conn.send(("err", None, traceback.format_exc()))
    finally:
        if arena is not None:
            arena.close()


class _RankThread(threading.Thread):
    """A rank in the driver's address space, closed like a process."""

    def terminate(self) -> None:
        """A wedged daemon thread cannot be killed; it is abandoned."""


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _normalize_transport(transport) -> str:
    from repro.comm.policies import TransferPath

    if isinstance(transport, TransferPath):
        name = {
            TransferPath.ZERO_COPY: "threads",
            TransferPath.STAGED_CPU: "processes",
        }.get(transport)
        if name is None:
            raise ValueError(
                f"transfer path {transport.value!r} is not executable on this "
                "substrate (GPU Direct RDMA needs NIC support)"
            )
        return name
    if transport in ("threads", "processes", "shm"):
        return "processes" if transport == "shm" else transport
    raise ValueError(f"unknown transport {transport!r}")


class DecompRuntime:
    """Driver of one :func:`rank_main` per rank over a chosen transport.

    Parameters
    ----------
    gauge, mass:
        The operator background, as for :class:`WilsonOperator`.
    ranks / grid:
        Either a rank count (laid out as a slab grid along x, the
        reduction axis) or an explicit 4D process grid.
    transport:
        ``"threads"`` (shared address space — the zero-copy/CUDA-IPC
        analogue) or ``"processes"``/``"shm"`` (spawned ranks over
        ``multiprocessing.shared_memory`` — the staged-CPU analogue).
        :class:`TransferPath` values are accepted.
    policy, engine:
        Only ``"blocking"`` (the one halo schedule) and ``"interpreted"``
        (the half-spinor stencil every rank runs); anything else is a
        ``ValueError`` before any rank starts.  Both keywords are held
        only for the end-to-end benchmark's ``prop12_dist_r2`` workload,
        which passes them.
    max_rhs:
        Widest multi-RHS stack the transport is sized for.
    timeout:
        Collective timeout (seconds) after which a wedged exchange
        raises :class:`CommTimeoutError` instead of deadlocking.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        *,
        ranks: int | None = None,
        grid: tuple[int, int, int, int] | None = None,
        transport="threads",
        policy="blocking",
        engine="interpreted",
        antiperiodic_t: bool = True,
        max_rhs: int = 12,
        timeout: float = 60.0,
    ):
        if engine != "interpreted":
            raise ValueError(f"unknown dslash engine {engine!r}; the only one is 'interpreted'")
        if policy != "blocking":
            raise ValueError(f"unknown halo policy {policy!r}; the only one is 'blocking'")
        self.geometry = gauge.geometry
        self._plan = plan = RankPlan.make(
            self.geometry.dims, mass, ranks=ranks, grid=grid, max_rhs=max_rhs, timeout=timeout,
        )
        self.transport = _normalize_transport(transport)
        self.grid, self.mass, self.max_rhs = plan.grid, plan.mass, plan.max_rhs
        self._closed = False
        self._arena: ShmArena | None = None
        self._chans, self._ranks = [], []
        launch = self._spawn if self.transport == "processes" else self._thread
        launch(gauge.fermion_links(antiperiodic_t=antiperiodic_t))

    # -- launchers: start rank_main n times, keep the driver's channel ends ---
    def _thread(self, u: np.ndarray) -> None:
        """Ranks as daemon threads on queue channels."""
        plan, ranks = self._plan, range(self.grid.n_ranks)
        fabrics = list(map(ThreadShared(plan.spec).make_fabric, ranks))
        for r in ranks:
            ours, theirs = _QueueChannel.pair()
            rank = _RankThread(
                target=rank_main, args=(plan, r, fabrics[r], plan.block(u, r), theirs),
                name=f"rank{r}", daemon=True,
            )
            rank.start()
            self._chans.append(ours)
            self._ranks.append(rank)

    def _spawn(self, u: np.ndarray) -> None:
        """Ranks as spawned processes on arena channels."""
        plan, mpctx = self._plan, spawn_context()
        arena = self._arena = ShmArena(plan.spec)
        # Keep the barrier referenced for the runtime's lifetime: its
        # named semaphores are unlinked on GC, and spawned children
        # rebuild them by name (possibly seconds later).
        barrier = self._barrier = mpctx.Barrier(plan.grid.n_ranks)
        for r in range(plan.grid.n_ranks):
            ours, theirs = mpctx.Pipe()
            rank = start_process(_spawned_rank, (plan, r, arena.name, barrier, theirs))
            theirs.close()
            self._chans.append(_ArenaChannel(ours, arena, ("field", r)))
            self._ranks.append(rank)
        # The link blocks follow down the pipes once every rank is starting:
        # as a spawn argument, megabytes of links block ``start()`` until the
        # child is up and reading, which serialises start-up across ranks.
        for r, chan in enumerate(self._chans):
            with contextlib.suppress(OSError):  # already gone: reported at the first command
                chan.conn.send(plan.block(u, r))

    # -- command plumbing ---------------------------------------------------
    def _command(self, cmd: str, fields=None, args=None) -> list:
        """Send ``(cmd, fields[r], args)`` to every rank; the ``(field,
        meta)`` replies in rank order.  Any failure closes the runtime."""
        if self._closed:
            raise RuntimeError("runtime is closed")
        failures: dict[int, str] = {}
        for r, chan in enumerate(self._chans):
            try:
                chan.send((cmd, None if fields is None else fields[r], args))
            except (EOFError, OSError) as e:
                failures[r] = f"channel to rank {r} broke: {e!r}"
        replies = []
        for r, chan in enumerate(self._chans):
            try:  # (a failed send is a closed pipe: its last words or EOF, at once)
                status, field, meta = chan.recv()
            except (EOFError, OSError) as e:
                status, field, meta = "err", None, f"channel to rank {r} broke: {e!r}"
            if status != "ok":
                failures[r] = meta
            replies.append((field, meta))
        if failures:
            self.close()
            trail = "\n".join(f"rank {r}:\n{failures[r]}" for r in sorted(failures))
            raise RuntimeError(f"distributed command failed\n{trail}")
        return replies

    def _field_command(self, cmd: str, psi: np.ndarray, args=None) -> tuple:
        """Run ``cmd`` on a view of every rank's slice of a global field
        (stack) and gather: the result shaped like ``psi``, and rank 0's meta."""
        stack = self._plan.stack(psi)
        slices = map(self.grid.site_slices, range(self.grid.n_ranks))
        replies = self._command(cmd, [stack[(slice(None),) + s] for s in slices], args)
        out = self.grid.gather([field for field, _ in replies], site_axis=1)
        return out.reshape(psi.shape), replies[0][1]

    # -- public operations --------------------------------------------------
    def fieldwise(self, op: str, psi: np.ndarray) -> np.ndarray:
        """One :data:`RANK_OPS` field operation on a global field (stack)."""
        if op not in RANK_OPS:
            raise ValueError(f"unknown field op {op!r}; have {sorted(RANK_OPS)}")
        return self._field_command(op, psi)[0]

    def hopping(self, psi: np.ndarray) -> np.ndarray:
        return self.fieldwise("hopping", psi)

    def solve_cgne(
        self,
        b: np.ndarray,
        tol: float = 1e-10,
        max_iter: int = 10_000,
        reliable: bool = True,
        delta: float | None = None,
    ) -> BatchedSolveResult:
        """Rank-parallel batched CGNE propagator solve on the full lattice.

        ``b`` must carry at least one leading (right-hand-side) axis.
        The default is the paper's red-black double-single solver —
        :class:`ReliableUpdateCG`, complex64 inner loop, double refreshes
        triggered at ``delta`` (see :func:`rank_solve`) — and
        ``reliable=False`` all-double CG.  Returns a
        :class:`BatchedSolveResult` whose ``final_relres`` is the
        prepared even-site system's residual, matching
        ``solve_normal_equations_batched``.
        """
        if b.ndim < 7:
            raise ValueError("solve_cgne expects a stacked rhs (leading axes)")
        solve = {
            "tol": float(tol), "max_iter": int(max_iter),
            "reliable": bool(reliable), "delta": None if delta is None else float(delta),
        }
        x, result = self._field_command("cg", b, solve)
        return replace(result, x=x)

    # -- diagnostics --------------------------------------------------------
    def halo_stats(self) -> list:
        """Per-rank exchanger counters: rounds, off-rank messages/bytes and
        cumulative seconds blocked in a round (the halo wait).  Each row
        also carries ``interior_seconds``, always ``0.0``: the end-to-end
        benchmark's ``prop12_dist_r2`` workload reads the key."""
        return [meta for _, meta in self._command("stats")]

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for chan in self._chans:
            with contextlib.suppress(Exception):
                chan.send(("stop", None, None))
        for rank in self._ranks:
            rank.join(timeout=10.0)
            if rank.is_alive():  # pragma: no cover - defensive teardown
                rank.terminate()
                rank.join(timeout=5.0)
        if self._arena is not None:
            self._arena.close()
            self._arena.unlink()

    def __enter__(self) -> "DecompRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        with contextlib.suppress(Exception):
            self.close()


# ---------------------------------------------------------------------------
# serial-API facades
# ---------------------------------------------------------------------------


class DistributedWilsonOperator:
    """Drop-in Wilson operator running rank-parallel underneath.

    Accepts the same background as :class:`WilsonOperator` plus the
    decomposition and transport knobs of :class:`DecompRuntime`
    (forwarded verbatim).  ``hopping``/``apply`` are bitwise identical
    to the serial operator for any rank grid.
    """

    def __init__(self, gauge: GaugeField, mass: float, **kwargs):
        self.runtime = DecompRuntime(gauge, mass, **kwargs)
        self.geometry = self.runtime.geometry
        self.mass = self.runtime.mass

    @property
    def grid(self) -> RankGrid:
        return self.runtime.grid

    def hopping(self, psi: np.ndarray) -> np.ndarray:
        return self.runtime.hopping(psi)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("apply", psi)

    def close(self) -> None:
        self.runtime.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DistributedEvenOddOperator(DistributedWilsonOperator):
    """Distributed red-black Schur complement of the Wilson operator.

    Mirrors :class:`repro.dirac.EvenOddWilson` (bitwise, any rank grid).
    """

    def schur_apply(self, x: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("schur", x)

    def schur_dagger_apply(self, x: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("schur_dagger", x)

    def schur_normal_apply(self, x: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("schur_normal", x)

    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("prepare_rhs", b)


class DistributedCG:
    """Batched CGNE propagator solves through a distributed operator.

    Each rank runs ``ConjugateGradient.solve_batched``'s own recurrence
    with every global reduction routed through the transport's
    fixed-order slice table, so results are invariant under the rank
    count (deterministic, same host).
    """

    def __init__(
        self,
        op: DistributedEvenOddOperator,
        tol: float = 1e-10,
        max_iter: int = 10_000,
        reliable: bool = False,
        delta: float = 0.1,
    ):
        self.op = op
        self._solve = {"tol": tol, "max_iter": max_iter, "reliable": reliable, "delta": delta}

    def solve_batched(self, b: np.ndarray) -> BatchedSolveResult:
        """Solve ``D x = b`` for a stack of sources; returns full-lattice
        solutions (prepare + even-site CGNE + reconstruct, all in-rank)."""
        return self.op.runtime.solve_cgne(b, **self._solve)
