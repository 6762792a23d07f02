"""Variational analysis: the generalized eigenvalue problem (GEVP).

With a matrix of correlators between ``n`` interpolating operators,

``C(t) v_k = lambda_k(t, t0) C(t0) v_k``,

the eigenvalues decay as single exponentials of the ``n`` lowest
energies — the systematic way to isolate the excited states that
contaminate g_A at small times (and the natural companion to the
Feynman-Hellmann fits, which must model exactly those states).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GEVPResult", "solve_gevp", "effective_energies"]


@dataclass(frozen=True)
class GEVPResult:
    """Principal correlators and vectors from one GEVP solve."""

    t0: int
    eigenvalues: np.ndarray  # (nt, n) lambda_k(t, t0), descending per t
    eigenvectors: np.ndarray  # (n, n) vectors at t_ref


def solve_gevp(corr: np.ndarray, t0: int, t_ref: int | None = None) -> GEVPResult:
    """Solve the GEVP of a correlator matrix.

    Parameters
    ----------
    corr:
        Array of shape ``(nt, n, n)``: hermitian correlator matrices per
        timeslice.
    t0:
        Reference timeslice (metric); must be in the signal region.
    t_ref:
        Timeslice whose eigenvectors are returned (default ``t0 + 1``).
    """
    corr = np.asarray(corr)
    if corr.ndim != 3 or corr.shape[1] != corr.shape[2]:
        raise ValueError(f"need (nt, n, n) correlator matrices, got {corr.shape}")
    from scipy.linalg import eigh  # deferred: scipy costs 0.4 s to import

    nt, n, _ = corr.shape
    if not 0 <= t0 < nt:
        raise ValueError(f"t0={t0} outside 0..{nt - 1}")
    t_ref = t0 + 1 if t_ref is None else t_ref
    if not 0 <= t_ref < nt:
        raise ValueError(f"t_ref={t_ref} outside 0..{nt - 1}")
    c0 = 0.5 * (corr[t0] + corr[t0].conj().T)
    # Guard: the metric must be positive definite in the signal region.
    if np.linalg.eigvalsh(c0).min() <= 0:
        raise ValueError("C(t0) is not positive definite; choose an earlier t0")
    evals = np.full((nt, n), np.nan)
    vecs_ref = None
    for t in range(nt):
        ct = 0.5 * (corr[t] + corr[t].conj().T)
        try:
            w, v = eigh(ct, c0)
        except np.linalg.LinAlgError:
            continue
        order = np.argsort(w)[::-1]
        evals[t] = w[order]
        if t == t_ref:
            vecs_ref = v[:, order]
    if vecs_ref is None:
        raise ValueError("eigenvectors unavailable at t_ref")
    return GEVPResult(t0=t0, eigenvalues=evals, eigenvectors=vecs_ref)


def effective_energies(result: GEVPResult) -> np.ndarray:
    """``E_k(t) = log[lambda_k(t) / lambda_k(t+1)]`` (shape (nt-1, n)).

    Each column plateaus at the k-th energy level for ``t > t0``.
    """
    lam = result.eigenvalues
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(lam[:-1] / lam[1:])
