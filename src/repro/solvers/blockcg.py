"""True block conjugate gradient (BCGrQ) — shared Krylov space.

The lock-step batched CG in :mod:`repro.solvers.cg` amortizes *memory
traffic* (one gauge-field read per stacked application) but each system
still builds its own Krylov space, so iteration counts match the
single-RHS solver.  Block CG goes further: all right-hand sides search
one shared block-Krylov space, so information any source extracts about
the low end of the spectrum accelerates every other source.  On the
campaign's 12 sources of the red-black system it needs about half the
stacked iterations of the lock-step solver — the direction of the
multi-RHS solvers deployed with the stochastic Feynman-Hellmann method
(Gambhir et al., PAPERS.md).

This is the numerically stabilized BCGrQ variant (Dubrulle, ETNA 12
(2001) 216): the residual block is kept as an orthonormal factor ``Q``
times a small ``k×k`` matrix ``S`` via a thin QR at every iteration,
which avoids the notorious loss of rank in textbook block CG.
Recurrences per iteration, for block width ``k``::

    Z   = A D
    xi  = (D^H Z)^{-1}           # k×k
    X  += D xi S
    Q' rho = qr(Q - Z xi)        # thin QR
    S   = rho S
    D   = Q' + D rho^H

with ``R = Q S`` the implicit residual block; per-column residual norms
are the column norms of ``S``, so converged columns are monitored for
free.  Every iteration applies the operator to the whole block once —
``matvecs`` grows by ``k`` per iteration, directly comparable with the
batched and per-column solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.solvers.cg import BatchedSolveResult, MatVec

__all__ = ["BlockCG"]


@dataclass
class BlockCG:
    """Block CG (BCGrQ) for a hermitian positive operator.

    Parameters mirror :class:`repro.solvers.cg.ConjugateGradient`; the
    solver is a drop-in for ``solve_batched`` (same array layout: RHS
    index on the leading axis, ``matvec`` applied to the whole stack).

    ``tol`` applies per column to the true relative residual.  The block
    iterates until *every* column's recurrence residual is below target
    (converged columns keep riding the shared block application, the
    same amortization trade-off as the lock-step solver).
    """

    tol: float = 1e-10
    max_iter: int = 10_000
    flops_per_matvec: float = 0.0
    blas_flops_per_iter: float = 0.0

    def solve_batched(
        self, matvec: MatVec, b: np.ndarray, x0: np.ndarray | None = None
    ) -> BatchedSolveResult:
        """Solve ``A x_i = b_i`` for the whole block at once.

        Runs inside one ``blockcg.solve`` observability span attributed
        with the block width and the shared iteration/matvec counts.
        """
        with obs.span("blockcg.solve", cat="solver", n_rhs=int(np.shape(b)[0])) as sp:
            result = self._solve(matvec, b, x0)
            sp.add_flops(result.flops)
            sp.set(
                iterations=result.iterations,
                matvecs=result.matvecs,
                converged=bool(result.all_converged),
            )
        return result

    def _solve(
        self, matvec: MatVec, b: np.ndarray, x0: np.ndarray | None = None
    ) -> BatchedSolveResult:
        b = np.asarray(b, dtype=np.complex128)
        k = b.shape[0]
        shape = b.shape

        def apply(mat: np.ndarray) -> np.ndarray:
            """Operator on an ``(N, k)`` matrix via the stacked matvec."""
            stacked = np.ascontiguousarray(mat.T).reshape(shape)
            return matvec(stacked).reshape(k, -1).T

        B = b.reshape(k, -1).T  # (N, k), columns are the RHS
        bnorm = np.linalg.norm(B, axis=0)
        safe_bnorm = np.where(bnorm > 0.0, bnorm, 1.0)
        target = self.tol * bnorm

        flops = 0.0
        matvecs = 0
        if x0 is None:
            X = np.zeros_like(B)
            R = B.copy()
        else:
            X = np.asarray(x0, dtype=np.complex128).reshape(k, -1).T.copy()
            R = B - apply(X)
            matvecs += k
            flops += k * self.flops_per_matvec

        # R = Q S with Q orthonormal (thin QR).  Column norms of S are
        # the per-RHS residual norms throughout.
        Q, S = np.linalg.qr(R)
        D = Q.copy()
        rnorm = np.linalg.norm(S, axis=0)
        history: list[np.ndarray] = []
        iterations = 0

        while bool(np.any(rnorm > target)) and iterations < self.max_iter:
            Z = apply(D)
            iterations += 1
            matvecs += k
            flops += k * (self.flops_per_matvec + self.blas_flops_per_iter)
            M = D.conj().T @ Z  # k×k, hermitian positive if A is
            try:
                xi = np.linalg.solve(M, np.eye(k, dtype=np.complex128))
            except np.linalg.LinAlgError:
                break  # block breakdown: D lost rank
            if not np.all(np.isfinite(xi)):
                break
            X += D @ (xi @ S)
            Qn, rho = np.linalg.qr(Q - Z @ xi)
            S = rho @ S
            D = Qn + D @ rho.conj().T
            Q = Qn
            rnorm = np.linalg.norm(S, axis=0)
            history.append(rnorm / safe_bnorm)

        true_res = np.linalg.norm(B - apply(X), axis=0) / safe_bnorm
        matvecs += k
        flops += k * self.flops_per_matvec
        return BatchedSolveResult(
            x=np.ascontiguousarray(X.T).reshape(shape),
            converged=true_res <= self.tol,
            iterations=iterations,
            final_relres=true_res,
            flops=flops,
            residual_history=history,
            matvecs=matvecs,
        )
