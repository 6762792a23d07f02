"""Conjugate gradient on hermitian positive-definite operators.

This is the reference double-precision solver; the production
mixed-precision variant lives in :mod:`repro.solvers.multiprec`.  For the
non-hermitian Dirac operator we solve the *normal equations*
``D^H D x = D^H b`` (CGNE) — the state-of-the-art approach for the Mobius
domain-wall discretization per Section IV of the paper.

The recurrence is written once (:meth:`ConjugateGradient._run`), for a
*stack* of right-hand sides sharing one operator and against an inner
product passed as an argument.  All systems iterate in lock-step with
per-system scalars, so every stacked operator application reads the gauge
field once for the whole stack — the multi-RHS amortization that
dominates the paper's Feynman-Hellmann workflow (many sources per
configuration).  :meth:`ConjugateGradient.solve_batched` is that
function; :meth:`ConjugateGradient.solve` is its width-1 call (with
checkpoint/resume); the rank-parallel solve of
:mod:`repro.comm.distributed` is the same function with the collective
reducer as its inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro import obs

__all__ = [
    "SolveResult",
    "BatchedSolveResult",
    "CGState",
    "ConjugateGradient",
    "solve_normal_equations",
    "solve_normal_equations_batched",
]

MatVec = Callable[[np.ndarray], np.ndarray]


@dataclass
class CGState:
    """Serializable mid-solve state of :meth:`ConjugateGradient.solve`.

    Captures exactly the recurrence variables at an iteration boundary,
    so a solve resumed from a state performs bit-for-bit the same
    floating-point operations as the uninterrupted solve (tested).  The
    campaign runtime checkpoints these to disk every ``checkpoint_every``
    iterations and resumes killed solves from the last checkpoint.

    ``column_iterations`` (stacked form only) is what each system had
    counted when the state was taken, so a resumed stack reports the
    uninterrupted count for systems that froze before it.
    """

    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    rsq: float
    bnorm: float
    iteration: int
    flops: float
    history: list[float] = field(default_factory=list)
    column_iterations: np.ndarray | None = None


@dataclass
class SolveResult:
    """Outcome of a linear solve.

    Attributes
    ----------
    x:
        The solution vector (same shape as the right-hand side).
    converged:
        Whether the requested tolerance was reached.
    iterations:
        Matrix applications of the (normal) operator.
    final_relres:
        Final true relative residual ``|b - A x| / |b|``.
    flops:
        Model flops consumed (operator flops plus BLAS-1), following the
        paper's explicit-counting convention.
    residual_history:
        Per-iteration recurrence residual norms (relative to ``|b|``).
    reliable_updates:
        Number of double-precision reliable updates performed (0 for the
        pure double-precision solver).
    matvecs:
        Actual operator applications performed by this call, counted per
        right-hand side (a stacked application on ``k`` sides counts
        ``k``).  This is the cost metric the iteration-count regression
        harness pins — unlike ``iterations`` it is directly comparable
        across per-column, lock-step-batched and block solvers.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    final_relres: float
    flops: float = 0.0
    residual_history: list[float] = field(default_factory=list)
    reliable_updates: int = 0
    matvecs: int = 0


@dataclass
class BatchedSolveResult:
    """Outcome of a multi-RHS lock-step solve.

    The leading axis of every array field indexes the right-hand side.
    ``iterations`` counts *stacked* operator applications; ``flops``
    already accounts for the full stack width.  ``column_iterations``
    (when the solver records it) is the iteration at which each system
    froze — what :meth:`ConjugateGradient.solve` would have counted for
    that column alone; ``inner``, the dtype the recurrence ran in.
    """

    x: np.ndarray
    converged: np.ndarray
    iterations: int
    final_relres: np.ndarray
    flops: float = 0.0
    residual_history: list[np.ndarray] = field(default_factory=list)
    reliable_updates: int = 0
    matvecs: int = 0
    column_iterations: np.ndarray | None = None
    inner: str = "complex128"

    @property
    def n_rhs(self) -> int:
        return self.x.shape[0]

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))

    def split(self) -> list[SolveResult]:
        """Per-RHS :class:`SolveResult` views (flops shared equally)."""
        k = self.n_rhs
        iters = self.column_iterations
        if iters is None:
            iters = np.full(k, self.iterations)
        return [
            SolveResult(
                x=self.x[i],
                converged=bool(self.converged[i]),
                iterations=int(iters[i]),
                final_relres=float(self.final_relres[i]),
                flops=self.flops / k,
                residual_history=[float(h[i]) for h in self.residual_history],
                reliable_updates=self.reliable_updates,
                matvecs=self.matvecs // k,
            )
            for i in range(k)
        ]


def _batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-RHS ``Re <a_i, b_i>`` over the leading axis — the serial reducer.

    Rows of ``np.vdot``: each system is reduced by the call that would
    reduce it alone, so a column of a stacked solve is *exact on any
    host* against its own one-column solve.
    """
    return np.array([np.vdot(a[i], b[i]).real for i in range(a.shape[0])], dtype=np.float64)


def _batch_norm(a: np.ndarray) -> np.ndarray:
    """Per-RHS 2-norm over the leading axis."""
    return np.sqrt(_batch_dot(a, a))


def _width_one(run, vectors, scalars, matvec, b, x0, state, checkpoint_every, on_checkpoint):
    """One column through a stacked core ``run``.

    ``matvec`` sees the unstacked vector, so it need not accept a stack,
    and checkpoints keep the one-column form callers see: ``vectors`` /
    ``scalars`` name the state fields that carry the stack axis inside
    the core (history entries always do).
    """

    def reform(st, vec, num):
        return replace(
            st,
            history=[num(h) for h in st.history],
            **{f: vec(getattr(st, f)) for f in vectors},
            **{f: num(getattr(st, f)) for f in scalars},
        )

    return run(
        lambda v: matvec(v[0])[None],
        np.asarray(b)[None],
        None if x0 is None else np.asarray(x0)[None],
        state=state and reform(state, lambda a: a[None], lambda s: np.array([s])),
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint
        and (lambda st: on_checkpoint(reform(st, lambda a: a[0], lambda s: float(s[0])))),
    ).split()[0]


def _record(sp, result, **attrs) -> None:
    """Attribute a finished solve to its observability span."""
    sp.add_flops(result.flops)
    sp.set(
        iterations=result.iterations,
        matvecs=result.matvecs,
        converged=bool(np.all(result.converged)),
        **attrs,
    )


@dataclass
class ConjugateGradient:
    """Double-precision CG for a hermitian positive operator.

    Parameters
    ----------
    tol:
        Target relative residual ``|r| / |b|``.
    max_iter:
        Iteration cap; the solve reports ``converged=False`` beyond it.
    flops_per_matvec:
        Model flops charged per operator application on ONE right-hand
        side (e.g. from
        :meth:`repro.dirac.EvenOddMobius.flops_per_normal_apply`); a
        stacked application charges this per RHS.
    blas_flops_per_iter:
        Model flops charged per iteration per RHS for the axpy/dot work.
    """

    tol: float = 1e-10
    max_iter: int = 10_000
    flops_per_matvec: float = 0.0
    blas_flops_per_iter: float = 0.0

    def solve(
        self,
        matvec: MatVec,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        *,
        state: CGState | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[CGState], None] | None = None,
    ) -> SolveResult:
        """Solve ``A x = b`` for hermitian positive ``A``.

        The width-1 call of :meth:`_run` (see :func:`_width_one`).
        ``state`` resumes a
        previously checkpointed solve; the resumed recurrence is
        bit-for-bit identical to the uninterrupted one because the state
        captures every loop variable at an iteration boundary.  With
        ``checkpoint_every > 0``, ``on_checkpoint`` is called with a
        fresh :class:`CGState` every that many iterations
        (checkpointing never perturbs the iterates).

        The whole solve runs inside one ``cg.solve`` observability span
        carrying the model flop count and outcome (iteration count,
        convergence) — the measured side of the paper's solver
        accounting.  Tracing never perturbs the iterates.
        """
        with obs.span("cg.solve", cat="solver", resumed=state is not None) as sp:
            result = _width_one(
                self._run, ("x", "r", "p"), ("rsq", "bnorm"),
                matvec, b, x0, state, checkpoint_every, on_checkpoint,
            )
            _record(sp, result)
        return result

    def solve_batched(
        self, matvec: MatVec, b: np.ndarray, x0: np.ndarray | None = None, **resume
    ) -> BatchedSolveResult:
        """Solve ``A x_i = b_i`` for a stack of right-hand sides.

        ``b`` carries the RHS index on the leading axis; ``matvec`` must
        accept the whole stack (all Dirac operators here do — leading
        axes pass through the stencil, so the gauge field is read once
        per stacked application).  Systems converge and freeze
        individually; the iteration stops when all are done.
        ``resume`` is :meth:`solve`'s ``state`` / ``checkpoint_every`` /
        ``on_checkpoint``, speaking :class:`CGState` in stacked form (the
        cadence counts stacked iterations; the resume is bit-exact).

        Runs inside one ``cg.solve_batched`` observability span
        (attributed with the full-stack model flops and batch width).
        """
        with obs.span("cg.solve_batched", cat="solver", n_rhs=int(np.shape(b)[0])) as sp:
            result = self._run(matvec, b, x0, **resume)
            _record(sp, result)
        return result

    def _run(
        self,
        matvec: MatVec,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        dot: Callable[[np.ndarray, np.ndarray], np.ndarray] = _batch_dot,
        *,
        state: CGState | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[CGState], None] | None = None,
    ) -> BatchedSolveResult:
        """The CG recurrence — the one copy, stacked and in place.

        ``dot(a, b)`` returns the per-RHS ``Re <a_i, b_i>`` as a
        ``(n_rhs,)`` float64 array and is the only place the solver
        meets the vector space: rows of ``np.vdot`` serially
        (:func:`_batch_dot`), a fixed-order allreduce across ranks
        (``SliceReducer.batch_dot``).  Every control decision — which
        systems are live, breakdown, when to stop, when to checkpoint —
        is derived from its results and the iteration count alone, so
        ranks handed a collective ``dot`` stay in lock-step.

        Working set: ``b`` is caller-owned and never written; ``x``, ``r``,
        ``p`` and ``ap`` — the axpy scratch once ``r`` is updated, so
        ``matvec`` may return a buffer it reuses (not ``p``'s: copied).

        ``state`` / ``on_checkpoint`` speak :class:`CGState` in stacked
        form (array fields carry the leading axis, ``rsq``/``bnorm``/
        history entries are ``(n_rhs,)`` arrays); :func:`_width_one`
        maps it to and from the one-column form on disk.
        """
        b = np.asarray(b, dtype=np.complex128)
        k = b.shape[0]
        lead = (k,) + (1,) * (b.ndim - 1)
        cost = k * self.flops_per_matvec  # one stacked application
        if state is not None:
            bnorm = np.asarray(state.bnorm, dtype=np.float64)
            x = np.array(state.x, dtype=np.complex128)
            r = np.array(state.r, dtype=np.complex128)
            p = np.array(state.p, dtype=np.complex128)
            rsq = np.array(state.rsq, dtype=np.float64)
            history = list(state.history)
            flops = float(state.flops)
            iterations = int(state.iteration)
            matvecs = 0  # operator applications in *this* run
        else:
            bnorm = np.sqrt(dot(b, b))
            if not bnorm.any():
                # Nothing to solve: return without touching the operator.
                return BatchedSolveResult(
                    np.zeros_like(b), np.ones(k, dtype=bool), 0, np.zeros(k),
                    column_iterations=np.zeros(k, dtype=np.int64),
                )
            x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.complex128)
            r = b - matvec(x) if x0 is not None else b.copy()
            p = r.copy()
            rsq = dot(r, r)
            history = []
            flops = cost if x0 is not None else 0.0
            iterations = 0
            matvecs = k if x0 is not None else 0

        safe_bnorm = np.where(bnorm > 0.0, bnorm, 1.0)
        target = (self.tol * bnorm) ** 2
        # Only systems with genuine work to do enter the recurrence — an
        # exact initial guess otherwise trips the breakdown guard on a
        # zero residual.
        active = rsq > target
        column_iterations = np.full(k, iterations, dtype=np.int64)
        if state is not None and state.column_iterations is not None:
            column_iterations[:] = state.column_iterations
        while bool(active.any()) and iterations < self.max_iter:
            ap = None  # dead: freed before the operator allocates
            ap = matvec(p)
            if np.may_share_memory(ap, p):
                ap = ap.copy()
            iterations += 1
            column_iterations += active
            matvecs += k
            flops += k * (self.flops_per_matvec + self.blas_flops_per_iter)
            p_ap = dot(p, ap)
            ok = active & (p_ap > 0.0)  # per-system breakdown guard
            if not bool(ok.any()):
                break  # operator not positive along any live p
            alpha = np.where(ok, rsq / np.where(p_ap > 0.0, p_ap, 1.0), 0.0)
            al = alpha.reshape(lead)
            r -= np.multiply(ap, al, out=ap)
            x += np.multiply(p, al, out=ap)
            new_rsq = dot(r, r)
            history.append(np.sqrt(new_rsq) / safe_bnorm)
            active = ok & (new_rsq > target)
            beta = np.where(ok, new_rsq / np.where(rsq > 0.0, rsq, 1.0), 0.0)
            np.multiply(p, beta.reshape(lead), out=p)
            p += r
            rsq = new_rsq
            if (
                on_checkpoint is not None
                and checkpoint_every > 0
                and iterations % checkpoint_every == 0
                and bool(active.any())
            ):
                on_checkpoint(
                    CGState(
                        x.copy(), r.copy(), p.copy(), rsq, bnorm, iterations, flops, list(history),
                        column_iterations=column_iterations.copy(),
                    )
                )

        r = p = ap = None  # dead: freed before the closing b - A x
        resid = matvec(x)
        np.subtract(b, resid, out=resid)
        true_res = np.sqrt(dot(resid, resid)) / safe_bnorm
        # Convergence is judged on the true residual (with a small
        # rounding allowance for the recurrence-vs-true drift when the
        # recurrence did hit the target).
        hit = history[-1] <= self.tol if history else np.zeros(k, dtype=bool)
        return BatchedSolveResult(
            x=x,
            converged=(true_res <= self.tol) | (hit & (true_res <= 4.0 * self.tol)),
            iterations=iterations,
            final_relres=true_res,
            flops=flops + cost,
            residual_history=history,
            matvecs=matvecs + k,
            column_iterations=column_iterations,
        )


def _cgne(solve, lift, apply_op, apply_dagger, b, x0, **resume):
    """CGNE around a solver entry point, one column or a stack.

    ``solve`` is the solver's ``solve`` or ``solve_batched``; ``lift``
    views a field of the matching form as a stack.  Returns the solver's
    result with ``final_relres`` replaced by the stacked residual of the
    *original* system — convergence is judged on the normal system (the
    quantity CG controls).  An operator's own ``apply`` / ``apply_dagger``
    pair runs as its ``apply_normal`` (Wilson: ``D^H`` into ``D``'s output).
    """
    op = getattr(apply_op, "__self__", None)
    normal = getattr(op, "apply_normal", None)
    if normal is None or apply_dagger != getattr(op, "apply_dagger", None):
        normal = lambda v: apply_dagger(apply_op(v))  # noqa: E731
    result = solve(normal, apply_dagger(b), x0=x0, **resume)
    bnorm = _batch_norm(lift(b))
    r = apply_op(result.x)
    np.subtract(b, r, out=r)
    result.final_relres = np.where(
        bnorm > 0.0, _batch_norm(lift(r)) / np.where(bnorm > 0.0, bnorm, 1.0), result.final_relres
    )
    return result


def solve_normal_equations(
    apply_op: MatVec,
    apply_dagger: MatVec,
    b: np.ndarray,
    solver: ConjugateGradient | None = None,
    x0: np.ndarray | None = None,
    *,
    state: CGState | None = None,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[CGState], None] | None = None,
) -> SolveResult:
    """CGNE: solve non-hermitian ``D x = b`` via ``D^H D x = D^H b``.

    The one-column case of :func:`solve_normal_equations_batched`,
    through the solver's checkpointable ``solve``.  The reported
    ``final_relres`` is the residual of the *original* system
    ``|b - D x| / |b|``.  Checkpoint arguments pass through to
    :meth:`ConjugateGradient.solve`; the state describes the *normal*
    system, which is all a resume needs.
    """
    result = _cgne(
        (solver or ConjugateGradient()).solve, lambda a: a[None], apply_op, apply_dagger, b, x0,
        state=state, checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
    )
    result.final_relres = float(result.final_relres[0])
    return result


def solve_normal_equations_batched(
    apply_op: MatVec,
    apply_dagger: MatVec,
    b: np.ndarray,
    solver: ConjugateGradient | None = None,
    x0: np.ndarray | None = None,
    **resume,
) -> BatchedSolveResult:
    """Multi-RHS CGNE on a stack of right-hand sides (leading axis).

    The stacked sources share every operator application, so the gauge
    field is read once per iteration for the whole stack — the
    Feynman-Hellmann many-sources-per-configuration pattern.

    ``resume`` (``state`` / ``checkpoint_every`` / ``on_checkpoint``, the
    stacked state of the *normal* system) reaches ``solver.solve_batched``
    only when given: a solver without checkpoints is called as before.
    """
    return _cgne(
        (solver or ConjugateGradient()).solve_batched, lambda a: a, apply_op, apply_dagger, b, x0,
        **resume,
    )
