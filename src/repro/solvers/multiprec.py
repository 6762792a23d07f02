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
from repro.solvers.precision import DoublePrecision, Precision, SinglePrecision

__all__ = ["ReliableUpdateCG", "RUCGState"]


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
    """

    inner_precision: Precision
    tol: float = 1e-10
    delta: float = 0.1
    max_iter: int = 10_000
    flops_per_matvec: float = 0.0
    blas_flops_per_iter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        #: dtype the cycle's arithmetic runs in: single precision is executed
        single = isinstance(self.inner_precision, SinglePrecision)
        self._dtype = np.dtype(np.complex64 if single else np.complex128)

    def _truncate(self, v: np.ndarray) -> np.ndarray:
        """One storage round-trip (executed single: the complex64 array)."""
        if self._dtype == np.complex64:
            return np.asarray(v, dtype=np.complex64)
        return self.inner_precision.roundtrip(v)

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
        results, so ranks stay in lock-step; ``b`` is caller-owned.  A
        cycle holds ``x``, ``r``, ``p``, ``x_s`` and ``ap`` (its updates'
        scratch, as in CG), and the refresh subtracts into ``matvec(x)``.
        ``state`` / ``on_checkpoint`` speak :class:`RUCGState` in stacked
        form.
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
            # Krylov vectors are stored in the inner format between
            # iterations: complex64 arrays, or complex128 round-trips.
            prev_anchor = anchor
            r = self._truncate(r_true)
            del r_true  # refreshed at the cycle's end
            p = r.copy()
            x_s = self._truncate(np.zeros(b.shape, self._dtype))  # low-precision partial solution
            rsq = dot(r, r)
            active = ~converged

            while iterations < self.max_iter:
                ap = None  # dead: freed before the operator allocates
                ap = self._compute(matvec(self._truncate(p)))
                if np.may_share_memory(ap, p):
                    ap = ap.copy()
                iterations += 1
                matvecs += k
                flops += k * (self.flops_per_matvec + self.blas_flops_per_iter)
                p_ap = dot(p, ap)
                ok = active & (p_ap > 0.0)  # per-system breakdown guard
                if not bool(ok.any()):
                    break
                alpha = np.where(ok, rsq / np.where(p_ap > 0.0, p_ap, 1.0), 0.0)
                r = self._truncate(np.subtract(r, np.multiply(ap, col(alpha), out=ap), out=r))
                x_s = self._truncate(np.add(x_s, np.multiply(p, col(alpha), out=ap), out=x_s))
                new_rsq = dot(r, r)
                rnorm = np.sqrt(new_rsq)
                history.append(rnorm / safe_bnorm)
                beta = np.where(ok, new_rsq / np.where(rsq > 0.0, rsq, 1.0), 0.0)
                rsq = new_rsq
                p = self._truncate(np.add(r, np.multiply(p, col(beta), out=p), out=p))
                active = ok & (rnorm > self.delta * anchor) & (rnorm > target)
                if not bool(active.any()):
                    break

            # --- reliable update: fold in and refresh in double ---------
            # The cycle's vectors and the stale residual are dead: free them
            # before the operator allocates, and subtract into its answer.
            x += x_s
            del r, p, x_s, ap
            r_true = matvec(x)
            np.subtract(b, r_true, out=r_true)
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
