"""Lanczos eigensolver and eigenvector deflation for CG.

Light-quark Dirac solves are dominated by a handful of low modes of
``D^H D``; computing them once per configuration and projecting them out
of every subsequent solve ("deflation") is how production campaigns
amortize the 12 x N_propagator solves of the paper's workflow.  This is
the laptop-scale analogue of QUDA's eigCG/ARPACK deflation path.

The Lanczos iteration here uses full reorthogonalization — at the vector
counts relevant for this package (tens), robustness beats the memory
saving of selective reorthogonalization.

Deflation is a hot path (it runs once per right-hand side, thousands of
times per campaign), so the eigenvectors are kept row-stacked in a
single ``(k, N)`` matrix and both the projection and the reconstruction
are single GEMMs — no Python loop over vectors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from repro import obs
from repro.solvers.cg import CGState, ConjugateGradient, MatVec, SolveResult, _record
from repro.utils.rng import make_rng

__all__ = [
    "LanczosResult",
    "chebyshev_op",
    "lanczos_lowest",
    "deflate_guess",
    "DeflatedCG",
    "DeflatedCGState",
    "save_eigenbasis",
    "load_eigenbasis",
    "save_deflated_state",
    "load_deflated_state",
]


@dataclass(frozen=True)
class LanczosResult:
    """Approximate lowest eigenpairs of a hermitian operator.

    ``eigenvectors`` keeps the historical list-of-arrays form; the
    performance-critical consumers use :attr:`basis`, the row-stacked
    ``(k, N)`` matrix, so projections are GEMMs.
    """

    eigenvalues: np.ndarray  # (k,) ascending
    eigenvectors: list[np.ndarray]  # k arrays of the operator's shape
    residuals: np.ndarray  # (k,) ||A v - lambda v||
    iterations: int
    matvecs: int = 0  # operator applications spent building the basis

    @property
    def n_eigen(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def basis(self) -> np.ndarray:
        """Row-stacked flattened eigenvectors, shape ``(k, N)``."""
        return np.stack([np.ascontiguousarray(v).ravel() for v in self.eigenvectors])

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the basis; pins a deflated solve (and its
        checkpoints) to the exact eigenbasis that produced it."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.eigenvalues).tobytes())
        h.update(np.ascontiguousarray(self.basis).tobytes())
        return h.hexdigest()[:16]


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a, b))


def _norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a.ravel()))


def chebyshev_op(
    matvec: MatVec, lo: float, hi: float, degree: int
) -> MatVec:
    """Degree-``degree`` Chebyshev filter ``T_d`` of the operator.

    Maps the unwanted spectrum ``[lo, hi]`` into ``[-1, 1]`` where the
    polynomial stays bounded, while eigenvalues *below* ``lo`` are
    amplified like ``cosh(d * acosh(...))`` — exponentially in the
    degree.  Lanczos on the filtered operator resolves near-degenerate
    low clusters (Wilson temporal shells are ``O(12)``-fold degenerate
    at weak coupling) that the unfiltered iteration mixes for hundreds
    of steps.  This is the same spectral transformation QUDA's
    Chebyshev-accelerated Lanczos eigensolver applies before deflation.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got window ({lo}, {hi})")
    if degree < 1:
        raise ValueError("polynomial degree must be >= 1")
    center, half = (hi + lo) / 2.0, (hi - lo) / 2.0

    def op(v: np.ndarray) -> np.ndarray:
        t_prev, t_cur = v, (matvec(v) - center * v) / half
        for _ in range(1, degree):
            t_prev, t_cur = t_cur, 2.0 * (matvec(t_cur) - center * t_cur) / half - t_prev
        return t_cur

    return op


def lanczos_lowest(
    matvec: MatVec,
    template: np.ndarray,
    n_eigen: int,
    n_krylov: int | None = None,
    rng: np.random.Generator | int | None = None,
    *,
    poly_degree: int = 0,
    poly_window: tuple[float, float] | None = None,
) -> LanczosResult:
    """Lowest ``n_eigen`` eigenpairs of a hermitian positive operator.

    Parameters
    ----------
    matvec:
        The operator.
    template:
        Any array of the operator's shape/dtype (used to seed the
        start vector).
    n_eigen:
        Number of eigenpairs wanted.
    n_krylov:
        Krylov-space dimension (default ``6 * n_eigen + 40``).  Deflation
        only pays off once the eigenpair residuals are below the solver
        tolerance — initial-guess deflation with sloppy vectors lets the
        deflated error components resurface inside CG — so err on the
        large side.
    poly_degree, poly_window:
        Chebyshev acceleration (QUDA-style).  With ``poly_degree > 0``
        the Krylov iteration runs on :func:`chebyshev_op` of the
        operator with the given ``(lo, hi)`` window — ``lo`` just above
        the wanted modes, ``hi`` above the spectral radius — and the
        eigenpairs are recovered by a Rayleigh-Ritz projection of the
        *original* operator onto the filtered Krylov space.  Each
        Lanczos step then costs ``poly_degree`` operator applications
        (all counted in ``matvecs``) but the filter separates
        near-degenerate low clusters the plain iteration cannot resolve
        in any practical Krylov dimension.

    The whole iteration runs inside one ``lanczos.lowest`` observability
    span attributed with the operator-application count, so campaign
    traces show the basis-setup cost next to the solves it amortizes.
    """
    if n_eigen < 1:
        raise ValueError("need at least one eigenpair")
    if poly_degree:
        if poly_window is None:
            raise ValueError("poly_degree > 0 requires a (lo, hi) poly_window")
        step_op = chebyshev_op(matvec, float(poly_window[0]), float(poly_window[1]), poly_degree)
        step_cost = int(poly_degree)
    else:
        step_op, step_cost = matvec, 1
    rng = make_rng(rng)
    m = n_krylov or (6 * n_eigen + 40)
    if m < n_eigen:
        raise ValueError(f"Krylov dimension {m} < requested eigenpairs {n_eigen}")

    shape = template.shape
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    v = v / _norm(v)
    with obs.span(
        "lanczos.lowest",
        cat="solver",
        n_eigen=n_eigen,
        n_krylov=m,
        poly_degree=poly_degree,
    ) as sp:
        basis: list[np.ndarray] = [v]
        alphas: list[float] = []
        betas: list[float] = []
        matvecs = 0

        for j in range(m):
            w = step_op(basis[j])
            matvecs += step_cost
            alpha = _dot(basis[j], w).real
            alphas.append(alpha)
            w = w - alpha * basis[j]
            if j > 0:
                w = w - betas[-1] * basis[j - 1]
            # Full reorthogonalization (twice is enough), as one GEMM
            # pair per pass against the stacked Krylov basis.
            bmat = np.stack([q.ravel() for q in basis])
            wf = w.ravel()
            for _ in range(2):
                wf = wf - bmat.T @ (bmat.conj() @ wf)
            w = wf.reshape(shape)
            beta = _norm(w)
            if beta < 1e-14:
                break  # invariant subspace found
            if j < m - 1:
                betas.append(beta)
                basis.append(w / beta)

        k = len(alphas)
        bmat = np.stack([q.ravel() for q in basis])  # (k, N)
        if poly_degree:
            # The tridiagonal matrix holds Ritz data of the *filtered*
            # operator; recover eigenpairs of the original one by a
            # Rayleigh-Ritz projection onto the filtered Krylov space.
            ab = np.stack([matvec(q).ravel() for q in basis])  # (k, N)
            matvecs += k
            h = bmat.conj() @ ab.T
            h = (h + h.conj().T) / 2.0
            evals, evecs = np.linalg.eigh(h)
            n_out = min(n_eigen, k)
            ritz = evecs[:, :n_out].T @ bmat  # (n_out, N)
            ritz_a = evecs[:, :n_out].T @ ab
            nrm = np.linalg.norm(ritz, axis=1, keepdims=True)
            ritz /= nrm
            ritz_a /= nrm
            # Residuals come free from the projected applications — no
            # extra operator work beyond the k Rayleigh-Ritz matvecs.
            residuals = np.linalg.norm(
                ritz_a - evals[:n_out, None] * ritz, axis=1
            )
            vectors = [ritz[i].reshape(shape) for i in range(n_out)]
        else:
            tri = np.diag(np.array(alphas))
            for i, b in enumerate(betas[: k - 1]):
                tri[i, i + 1] = tri[i + 1, i] = b
            evals, evecs = np.linalg.eigh(tri)

            n_out = min(n_eigen, k)
            # Ritz-vector assembly: one GEMM against the stacked Krylov
            # basis instead of a Python loop over basis vectors.
            ritz = evecs[:, :n_out].T @ bmat  # (n_out, N)
            ritz /= np.linalg.norm(ritz, axis=1, keepdims=True)
            vectors = []
            residuals = np.empty(n_out)
            for i in range(n_out):
                vec = ritz[i].reshape(shape)
                residuals[i] = _norm(matvec(vec) - evals[i] * vec)
                matvecs += 1
                vectors.append(vec)
        sp.set(matvecs=matvecs, iterations=k)
    return LanczosResult(
        eigenvalues=evals[:n_out].copy(),
        eigenvectors=vectors,
        residuals=residuals,
        iterations=k,
        matvecs=matvecs,
    )


def deflate_guess(eigen: LanczosResult, b: np.ndarray) -> np.ndarray:
    """Exactly-solved low-mode component of ``A x = b``.

    ``x0 = sum_i v_i (v_i^H b) / lambda_i`` computed as two GEMMs against
    the stacked ``(k, N)`` basis.  ``b`` may carry a leading stack axis
    (shape ``(s,) + operator shape``): every right-hand side in the stack
    is deflated in the same two GEMMs.
    """
    if np.any(eigen.eigenvalues <= 0):
        raise ValueError("deflation requires positive eigenvalues")
    basis = eigen.basis  # (k, N)
    vec_shape = eigen.eigenvectors[0].shape
    if b.shape == vec_shape:
        coeff = (basis.conj() @ b.ravel()) / eigen.eigenvalues
        return (coeff @ basis).reshape(vec_shape)
    if b.shape[1:] == vec_shape:
        s = b.shape[0]
        coeff = (basis.conj() @ b.reshape(s, -1).T) / eigen.eigenvalues[:, None]
        return (coeff.T @ basis).reshape(b.shape)
    raise ValueError(f"rhs shape {b.shape} does not match eigenbasis {vec_shape}")


def deflation_flops(eigen: LanczosResult, n_rhs: int = 1) -> float:
    """Model flops of one :func:`deflate_guess` call on ``n_rhs`` sides.

    Projection (``k`` complex dots) plus reconstruction (one GEMV) is
    ``2 * 8 * k * N`` real flops per right-hand side — charged so tracer
    GF/s attribution for deflated solves stays honest about the
    projection work the operator count alone would hide.
    """
    k, n = eigen.basis.shape
    return float(16.0 * k * n * n_rhs)


@dataclass
class DeflatedCGState:
    """Serializable mid-solve state of a deflated CG solve.

    Wraps the inner :class:`repro.solvers.cg.CGState` (the full Krylov
    recurrence state — resuming from it is bit-exact regardless of how
    the initial guess was built) together with the fingerprint of the
    eigenbasis that produced the deflated guess, so a resume against a
    different (stale, regenerated) basis is refused instead of silently
    mixing two bases' guesses in one campaign.
    """

    cg: CGState
    basis_fingerprint: str
    n_eigen: int


def save_deflated_state(state: DeflatedCGState, path: str | Path) -> None:
    """Write a :class:`DeflatedCGState` (atomic, checksummed container)."""
    from repro.io.container import FieldFile

    cg = state.cg
    ff = FieldFile(
        {
            "kind": "deflated_cg_state",
            "basis_fingerprint": state.basis_fingerprint,
            "n_eigen": state.n_eigen,
            "rsq": cg.rsq,
            "bnorm": cg.bnorm,
            "iteration": cg.iteration,
            "flops": cg.flops,
            "shape": list(cg.x.shape),
            "meta": cg.meta,
        }
    )
    ff.add("x", cg.x)
    ff.add("r", cg.r)
    ff.add("p", cg.p)
    ff.add("history", np.asarray(cg.history, dtype=np.float64))
    ff.save(path)


def load_deflated_state(path: str | Path) -> DeflatedCGState:
    """Read a :class:`DeflatedCGState`; raises ``ValueError`` on corruption."""
    from repro.io.container import FieldFile

    ff = FieldFile.load(path)
    md = ff.metadata
    if md.get("kind") != "deflated_cg_state":
        raise ValueError(f"{path}: not a deflated-CG checkpoint")
    shape = tuple(md["shape"])
    cg = CGState(
        x=ff["x"].reshape(shape),
        r=ff["r"].reshape(shape),
        p=ff["p"].reshape(shape),
        rsq=float(md["rsq"]),
        bnorm=float(md["bnorm"]),
        iteration=int(md["iteration"]),
        flops=float(md["flops"]),
        history=[float(h) for h in ff["history"]],
        meta=dict(md.get("meta", {})),
    )
    return DeflatedCGState(
        cg=cg,
        basis_fingerprint=str(md["basis_fingerprint"]),
        n_eigen=int(md["n_eigen"]),
    )


def save_eigenbasis(eigen: LanczosResult, path: str | Path, meta: dict | None = None) -> None:
    """Persist a Lanczos eigenbasis (atomic, checksummed container).

    The stored fingerprint lets consumers (deflated solves, their
    checkpoints, the campaign ledger) pin themselves to this exact
    basis; ``meta`` is free-form provenance (gauge ref, mass, seed).
    """
    from repro.io.container import FieldFile

    ff = FieldFile(
        {
            "kind": "eigenbasis",
            "n_eigen": eigen.n_eigen,
            "iterations": eigen.iterations,
            "matvecs": eigen.matvecs,
            "fingerprint": eigen.fingerprint,
            "shape": list(eigen.eigenvectors[0].shape),
            "meta": meta or {},
        }
    )
    ff.add("eigenvalues", eigen.eigenvalues)
    ff.add("residuals", eigen.residuals)
    ff.add("basis", eigen.basis)
    ff.save(path)


def load_eigenbasis(path: str | Path) -> LanczosResult:
    """Load a persisted eigenbasis; raises ``ValueError`` on corruption
    or when the stored fingerprint does not match the recomputed one."""
    from repro.io.container import FieldFile

    ff = FieldFile.load(path)
    md = ff.metadata
    if md.get("kind") != "eigenbasis":
        raise ValueError(f"{path}: not an eigenbasis container")
    shape = tuple(md["shape"])
    n = int(np.prod(shape, dtype=np.int64))
    k = int(md["n_eigen"])
    basis = ff["basis"].reshape(k, n)
    result = LanczosResult(
        eigenvalues=ff["eigenvalues"],
        eigenvectors=[basis[i].reshape(shape) for i in range(k)],
        residuals=ff["residuals"],
        iterations=int(md["iterations"]),
        matvecs=int(md["matvecs"]),
    )
    if result.fingerprint != md.get("fingerprint"):
        raise ValueError(f"{path}: eigenbasis fingerprint mismatch")
    return result


@dataclass
class DeflatedCG:
    """CG with low-mode deflation of the initial guess.

    The known eigenpairs solve their subspace exactly
    (``x0 = sum_i v_i (v_i^H b) / lambda_i``) and the Krylov iteration
    only has to handle the orthogonal complement, whose effective
    condition number excludes the deflated modes — fewer iterations per
    solve, amortized over the campaign's thousands of right-hand sides.

    ``inner`` may be any solver exposing the
    :class:`repro.solvers.cg.ConjugateGradient` ``solve``/``solve_batched``
    contract — pass a :class:`repro.solvers.multiprec.ReliableUpdateCG`
    for the paper's deflated double-half reliable-update solve.  When
    ``inner`` is None a plain double-precision CG built from this
    object's ``tol``/``max_iter``/flop fields is used.
    """

    eigen: LanczosResult
    tol: float = 1e-10
    max_iter: int = 10_000
    flops_per_matvec: float = 0.0
    blas_flops_per_iter: float = 0.0
    inner: object | None = None

    def deflate(self, b: np.ndarray) -> np.ndarray:
        """The exactly-solved low-mode component of the solution."""
        return deflate_guess(self.eigen, b)

    def _inner(self):
        if self.inner is not None:
            return self.inner
        return ConjugateGradient(
            tol=self.tol,
            max_iter=self.max_iter,
            flops_per_matvec=self.flops_per_matvec,
            blas_flops_per_iter=self.blas_flops_per_iter,
        )

    def solve(
        self,
        matvec: MatVec,
        b: np.ndarray,
        *,
        state: DeflatedCGState | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[DeflatedCGState], None] | None = None,
    ) -> SolveResult:
        """Solve ``A x = b`` from the deflated initial guess — the
        one-column case of :meth:`solve_batched`, through the inner
        solver's checkpointable ``solve``.

        Checkpointing mirrors :meth:`ConjugateGradient.solve` but wraps
        every state in a :class:`DeflatedCGState` carrying the basis
        fingerprint; resuming with a state minted under a different
        basis raises instead of silently diverging from the
        uninterrupted solve.
        """
        if state is not None and state.basis_fingerprint != self.eigen.fingerprint:
            raise ValueError(
                f"checkpoint was minted under eigenbasis "
                f"{state.basis_fingerprint}, not {self.eigen.fingerprint}; "
                "refusing to resume a deflated solve against a different basis"
            )
        wrap = None
        if on_checkpoint is not None:

            def wrap(cg_state: CGState) -> None:
                on_checkpoint(
                    DeflatedCGState(
                        cg=cg_state,
                        basis_fingerprint=self.eigen.fingerprint,
                        n_eigen=self.eigen.n_eigen,
                    )
                )

        with obs.span("dcg.solve", cat="solver", n_eigen=self.eigen.n_eigen) as sp:
            return self._deflated(
                sp,
                self._inner().solve,
                matvec,
                b,
                1,
                state and state.cg,
                checkpoint_every=checkpoint_every,
                on_checkpoint=wrap,
            )

    def solve_batched(self, matvec: MatVec, b: np.ndarray):
        """Deflated multi-RHS solve; the whole stack is deflated in two
        GEMMs, then handed to the inner solver's batched path."""
        n_rhs = int(np.shape(b)[0])
        with obs.span(
            "dcg.solve_batched", cat="solver", n_eigen=self.eigen.n_eigen, n_rhs=n_rhs
        ) as sp:
            return self._deflated(sp, self._inner().solve_batched, matvec, b, n_rhs)

    def _deflated(self, sp, solve, matvec: MatVec, b, n_rhs: int, state=None, **checkpoint):
        """Deflate, run the inner ``solve``/``solve_batched``, and charge
        the projection itself (see :func:`deflation_flops`) on top of the
        inner Krylov work, so tracer GF/s attribution stays honest."""
        if state is not None:
            # Resumed solves already carry the projection charge in the
            # checkpointed flops counter.
            result = solve(matvec, b, state=state, **checkpoint)
        else:
            x0 = self.deflate(np.asarray(b, dtype=np.complex128))
            result = solve(matvec, b, x0=x0, **checkpoint)
            result.flops += deflation_flops(self.eigen, n_rhs=n_rhs)
        _record(sp, result)
        return result
