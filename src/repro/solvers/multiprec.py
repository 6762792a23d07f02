"""Mixed-precision CG with reliable updates — the paper's production solver.

"the optimum approach for the stencil at hand being to use a red-black
preconditioned double-half CG solver, where most of the work is done
using 16-bit precision fixed-point storage (utilizing single-precision
computation) with occasional reliable updates to full double precision"
— Section IV.

Single precision is *executed*: the Krylov vectors are complex64 arrays,
``matvec`` is called on them and answers in them (what an operator
without a complex64 path answers is stored as complex64) — half the
bytes per site, the paper's lever.  16-bit fixed point is *emulated*
(numpy has no arithmetic on it): complex128 vectors pass through the
:class:`HalfPrecision` storage round-trip once per iteration, the
operator's answer through a complex64 cast.  Either way solution and
true residual are refreshed in double whenever the inner residual has
dropped by ``delta``, and convergence is only declared on a refresh.

With ``storage="compressed"`` the inner-loop Krylov vectors (residual,
search direction, partial solution) are additionally *persisted* between
iterations in the 16-bit fixed-point form via
:class:`repro.solvers.halfstore.Half16Codec`, shrinking the inner
working set ~4x.  Because ``decode(encode(v))`` and the dense storage
round-trip are the same store/load pair (equal *exactly, on any host*),
the compressed solve produces exactly the same iterates — iteration
counts pinned for the dense half path cover the compressed path too
(asserted in ``tests/test_solvers_halfstore.py``).

The cycle is written once (:meth:`ReliableUpdateCG._run`), stacked and
against an inner product passed as an argument, like
:meth:`ConjugateGradient._run`: ``solve_batched`` is that function,
``solve`` its width-1 call (exact on any host against column 0 of the
width-1 stack: same call sequence), and ``reliable=True`` in
:mod:`repro.comm.distributed` the same function on the collective
reducer (invariant under rank count and transport: deterministic, same
host).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import obs
from repro.solvers.cg import (
    BatchedSolveResult,
    MatVec,
    SolveResult,
    _batch_dot,
    _record,
    _width_one,
)
from repro.solvers.halfstore import Half16Codec
from repro.solvers.precision import DoublePrecision, HalfPrecision, Precision, SinglePrecision

__all__ = ["ReliableUpdateCG", "RUCGState", "save_ru_state", "load_ru_state"]


@dataclass
class RUCGState:
    """Serializable state of :meth:`ReliableUpdateCG.solve`.

    Checkpoints are taken at *reliable-update boundaries* — the natural
    restart points of the algorithm, where the accumulated solution has
    just been folded in and the true residual refreshed in double
    precision.  Resuming from one replays the remaining cycles
    bit-for-bit identically to the uninterrupted solve: the next inner
    cycle is a pure function of ``(x, r_true)``, both captured here.
    """

    x: np.ndarray
    r_true: np.ndarray
    r_anchor: float
    bnorm: float
    iteration: int
    reliable_updates: int
    flops: float
    history: list[float] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def save_ru_state(state: RUCGState, path: str | Path) -> None:
    """Write an :class:`RUCGState` (atomic, checksummed container)."""
    from repro.io.container import FieldFile

    ff = FieldFile(
        {
            "kind": "rucg_state",
            "r_anchor": state.r_anchor,
            "bnorm": state.bnorm,
            "iteration": state.iteration,
            "reliable_updates": state.reliable_updates,
            "flops": state.flops,
            "shape": list(state.x.shape),
            "meta": state.meta,
        }
    )
    ff.add("x", state.x)
    ff.add("r_true", state.r_true)
    ff.add("history", np.asarray(state.history, dtype=np.float64))
    ff.save(path)


def load_ru_state(path: str | Path) -> RUCGState:
    """Read an :class:`RUCGState`; raises ``ValueError`` on corruption."""
    from repro.io.container import FieldFile

    ff = FieldFile.load(path)
    md = ff.metadata
    if md.get("kind") != "rucg_state":
        raise ValueError(f"{path}: not a reliable-update checkpoint")
    shape = tuple(md["shape"])
    return RUCGState(
        x=ff["x"].reshape(shape),
        r_true=ff["r_true"].reshape(shape),
        r_anchor=float(md["r_anchor"]),
        bnorm=float(md["bnorm"]),
        iteration=int(md["iteration"]),
        reliable_updates=int(md["reliable_updates"]),
        flops=float(md["flops"]),
        history=[float(h) for h in ff["history"]],
        meta=dict(md.get("meta", {})),
    )


@dataclass
class ReliableUpdateCG:
    """Double-``inner`` CG on a hermitian positive operator.

    Parameters
    ----------
    inner_precision:
        Format of the inner-loop Krylov vectors: ``half`` (emulated
        storage, the paper's double-half solver), ``single`` (executed:
        complex64 vectors and operator) or ``double`` (plain CG).
    tol:
        Target *double-precision* relative residual.
    delta:
        Reliable-update trigger: when the inner recurrence residual falls
        below ``delta`` times the residual at the last reliable update,
        recompute the true residual in double precision and restart the
        recurrence from it (0.1 suits half; ``rank_solve`` runs single
        at ``sqrt(epsilon)``).
    max_iter:
        Total operator-application cap across all cycles.
    flops_per_matvec, blas_flops_per_iter:
        Model-flop accounting, as in
        :class:`repro.solvers.cg.ConjugateGradient`.
    storage:
        How inner-loop Krylov vectors live *between* iterations:
        ``"dense"`` keeps them as complex128 arrays that have been
        round-tripped through ``inner_precision`` (the historical
        behaviour); ``"compressed"`` persists them as
        :class:`~repro.solvers.halfstore.Half16Field` handles (int16
        mantissas + per-site float32 scale, requires a
        :class:`HalfPrecision` inner format).  Both modes execute
        identical float operations (exact on any host).
    """

    inner_precision: Precision
    tol: float = 1e-10
    delta: float = 0.1
    max_iter: int = 10_000
    flops_per_matvec: float = 0.0
    blas_flops_per_iter: float = 0.0
    storage: str = "dense"

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.storage not in ("dense", "compressed"):
            raise ValueError(
                f"storage must be 'dense' or 'compressed', got {self.storage!r}"
            )
        self._codec: Half16Codec | None = None
        if self.storage == "compressed":
            if not isinstance(self.inner_precision, HalfPrecision):
                raise ValueError(
                    "compressed storage requires a HalfPrecision inner format; "
                    f"got {type(self.inner_precision).__name__}"
                )
            self._codec = Half16Codec(self.inner_precision)
        #: dtype the cycle's arithmetic runs in: single precision is executed
        single = isinstance(self.inner_precision, SinglePrecision)
        self._dtype = np.dtype(np.complex64 if single else np.complex128)
        #: resident bytes of the persisted inner Krylov triplet (r, p, x)
        #: in the most recent inner cycle — reported on solve spans
        self._last_storage_nbytes = 0

    def _truncate(self, v: np.ndarray) -> np.ndarray:
        """One storage round-trip (executed single: the complex64 array)."""
        if self._dtype == np.complex64:
            return np.asarray(v, dtype=np.complex64)
        return self.inner_precision.roundtrip(v)

    def _persist(self, v: np.ndarray):
        """Store a vector in the inner format, returning its handle.

        Dense mode: the handle *is* the round-tripped array.
        Compressed mode: the handle is a :class:`Half16Field`; decoding
        it yields exactly the values the dense round-trip would.
        """
        if self._codec is not None:
            return self._codec.encode(v)
        return self._truncate(v)

    def _use(self, h) -> np.ndarray:
        """Materialize a persisted handle as the array arithmetic runs on."""
        if self._codec is not None:
            return self._codec.decode(h)
        return h

    def _compute(self, v: np.ndarray) -> np.ndarray:
        """Single-precision arithmetic (half's emulation casts it back)."""
        if isinstance(self.inner_precision, DoublePrecision):
            return v
        return np.asarray(v, dtype=np.complex64).astype(self._dtype, copy=False)

    def solve(
        self,
        matvec: MatVec,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        *,
        state: RUCGState | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[RUCGState], None] | None = None,
    ) -> SolveResult:
        """Solve ``A x = b`` — the width-1 call of :meth:`_run`;
        ``matvec`` is always evaluated on the dequantized, unstacked
        vector.

        ``state`` resumes from a reliable-update-boundary checkpoint;
        with ``checkpoint_every > 0``, ``on_checkpoint`` receives an
        :class:`RUCGState` at the first boundary at least that many
        iterations after the previous checkpoint.

        Runs inside one ``rucg.solve`` observability span attributed
        with the model flops and the reliable-update count.
        """
        with obs.span("rucg.solve", cat="solver", resumed=state is not None) as sp:
            result = _width_one(
                self._run, ("x", "r_true"), ("r_anchor", "bnorm"),
                matvec, b, x0, state, checkpoint_every, on_checkpoint,
            )
            self._record(sp, result)
        return result

    def solve_batched(
        self, matvec: MatVec, b: np.ndarray, x0: np.ndarray | None = None
    ) -> BatchedSolveResult:
        """Multi-RHS reliable-update CG; RHS index on the leading axis.

        All systems share the stacked operator applications and the
        reliable-update schedule is synchronized: an inner low-precision
        cycle runs until every still-active system has either hit its
        ``delta`` trigger or its tolerance, then one double-precision
        refresh covers the whole stack.  Converged systems freeze
        (``alpha = beta = 0``) but keep riding the stacked matvec, which
        is exactly the amortization trade-off of the paper's multi-RHS
        setup.

        Runs inside one ``rucg.solve_batched`` observability span.
        """
        with obs.span(
            "rucg.solve_batched", cat="solver", n_rhs=int(np.shape(b)[0])
        ) as sp:
            result = self._run(matvec, b, x0)
            self._record(sp, result)
        return result

    def _record(self, sp, result) -> None:
        _record(
            sp,
            result,
            reliable_updates=result.reliable_updates,
            inner=self._dtype.name,
            storage=self.storage,
            storage_nbytes=self._last_storage_nbytes,
        )

    def _run(
        self,
        matvec: MatVec,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        dot: Callable[[np.ndarray, np.ndarray], np.ndarray] = _batch_dot,
        *,
        state: RUCGState | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[RUCGState], None] | None = None,
    ) -> BatchedSolveResult:
        """The reliable-update cycle — the one copy, stacked.

        Same contract as :meth:`ConjugateGradient._run`: ``dot`` is the
        per-RHS inner product (serial rows of ``np.vdot``, or the
        collective ``SliceReducer.batch_dot``) and every control
        decision — the ``delta`` trigger, per-system breakdown, the
        no-progress stop, the checkpoint cadence — derives from its
        results, so ranks stay in lock-step; ``b`` is caller-owned and
        ``ap`` is consumed before the next operator application.
        ``state`` / ``on_checkpoint`` speak :class:`RUCGState` in
        stacked form.
        """
        b = np.asarray(b, dtype=np.complex128)
        k = b.shape[0]
        real = np.finfo(self._dtype).dtype  # per-system scalars must not widen an update
        col = lambda s: s.reshape((k,) + (1,) * (b.ndim - 1)).astype(real)
        cost = k * self.flops_per_matvec  # one stacked application
        if state is not None:
            bnorm = np.asarray(state.bnorm, dtype=np.float64)
            x = np.array(state.x, dtype=np.complex128)
            r_true = np.array(state.r_true, dtype=np.complex128)
            anchor = np.array(state.r_anchor, dtype=np.float64)
            flops = float(state.flops)
            iterations = int(state.iteration)
            reliable_updates = int(state.reliable_updates)
            history = list(state.history)
            matvecs = 0  # operator applications in *this* run
        else:
            bnorm = np.sqrt(dot(b, b))
            if not bnorm.any():
                # Nothing to solve: return without touching the operator.
                return BatchedSolveResult(
                    np.zeros_like(b), np.ones(k, dtype=bool), 0, np.zeros(k)
                )
            x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.complex128)
            # True residual in double precision.
            r_true = b - matvec(x) if x0 is not None else b.copy()
            anchor = np.sqrt(dot(r_true, r_true))  # residual norm at last reliable update
            flops = cost if x0 is not None else 0.0
            iterations = 0
            reliable_updates = 0
            history = []
            matvecs = k if x0 is not None else 0

        safe_bnorm = np.where(bnorm > 0.0, bnorm, 1.0)
        target = self.tol * bnorm
        converged = anchor <= target
        last_ckpt = iterations
        while iterations < self.max_iter and not bool(converged.all()):
            # --- start (or restart) an inner low-precision cycle -------
            # Krylov vectors live as storage handles between iterations:
            # complex64 arrays, or dense complex128 round-trips / compressed
            # Half16Fields decoding to identical values.
            prev_anchor = anchor
            r_s = self._persist(r_true)
            p_s = r_s.copy()
            x_s = self._persist(np.zeros_like(b))  # low-precision partial solution
            self._last_storage_nbytes = int(r_s.nbytes + p_s.nbytes + x_s.nbytes)
            r = self._use(r_s)
            rsq = dot(r, r)
            active = ~converged

            while iterations < self.max_iter:
                p = self._use(p_s)
                ap = self._compute(matvec(self._truncate(p)))
                iterations += 1
                matvecs += k
                flops += k * (self.flops_per_matvec + self.blas_flops_per_iter)
                p_ap = dot(p, ap)
                ok = active & (p_ap > 0.0)  # per-system breakdown guard
                if not bool(ok.any()):
                    break
                alpha = np.where(ok, rsq / np.where(p_ap > 0.0, p_ap, 1.0), 0.0)
                x_s = self._persist(self._use(x_s) + col(alpha) * p)
                r_s = self._persist(r - col(alpha) * ap)
                r = self._use(r_s)
                new_rsq = dot(r, r)
                rnorm = np.sqrt(new_rsq)
                history.append(rnorm / safe_bnorm)
                beta = np.where(ok, new_rsq / np.where(rsq > 0.0, rsq, 1.0), 0.0)
                rsq = new_rsq
                p_s = self._persist(r + col(beta) * p)
                active = ok & (rnorm > self.delta * anchor) & (rnorm > target)
                if not bool(active.any()):
                    break

            # --- reliable update: fold in and refresh in double ---------
            x += self._use(x_s)
            r_true = b - matvec(x)
            flops += cost
            matvecs += k
            reliable_updates += 1
            anchor = np.sqrt(dot(r_true, r_true))
            converged = anchor <= target
            if bool(converged.all()):
                break
            if (
                on_checkpoint is not None
                and checkpoint_every > 0
                and iterations - last_ckpt >= checkpoint_every
            ):
                last_ckpt = iterations
                on_checkpoint(
                    RUCGState(
                        x.copy(), r_true.copy(), anchor, bnorm, iterations,
                        reliable_updates, flops, list(history),
                    )
                )
            if bool(np.all(anchor[~converged] >= prev_anchor[~converged])):
                break  # no unconverged system made progress: breakdown

        # x is untouched since the last refresh: anchor is |b - A x|
        return BatchedSolveResult(
            x=x, converged=converged, iterations=iterations, final_relres=anchor / safe_bnorm,
            flops=flops, residual_history=history, reliable_updates=reliable_updates,
            matvecs=matvecs, inner=self._dtype.name,
        )
