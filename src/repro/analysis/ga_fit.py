"""High-level g_A extraction: Feynman-Hellmann vs traditional analysis.

This module reproduces the *comparison* of the paper's Fig. 1: fit the FH
effective coupling over the early, precise timeslices (modelling the
excited state), fit the traditional fixed-separation ratios over their
late, noisy plateaus, and report both with resampled errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.fitting import (
    correlated_fit,
    g_eff_model,
    traditional_ratio_model,
)
from repro.analysis.resampling import jackknife_covariance

__all__ = ["GAFitResult", "fit_fh_ensemble", "fit_traditional_ensemble"]


@dataclass(frozen=True)
class GAFitResult:
    """A g_A determination with uncertainty and fit quality."""

    g_a: float
    error: float
    chi2_per_dof: float
    n_samples: int
    method: str

    @property
    def relative_error(self) -> float:
        return abs(self.error / self.g_a) if self.g_a else np.inf

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"g_A = {self.g_a:.4f} +- {self.error:.4f} "
            f"({100 * self.relative_error:.2f}%, {self.method}, "
            f"N={self.n_samples}, chi2/dof={self.chi2_per_dof:.2f})"
        )


def g_eff_jackknife(c2: np.ndarray, cfh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ratio-of-means effective coupling with jackknife replicates.

    The standard lattice estimator: form ``R = mean(C_FH) / mean(C_2pt)``
    on the full sample and on each delete-one subsample, so the ratio
    bias stays O(1/n) instead of O(sigma^2).

    Returns
    -------
    (center, replicates):
        ``center`` has length ``lt - 1``; ``replicates`` is ``(n, lt-1)``.
    """
    c2 = np.asarray(c2, dtype=np.float64)
    cfh = np.asarray(cfh, dtype=np.float64)
    if c2.shape != cfh.shape:
        raise ValueError("correlator sample arrays must have equal shape")
    n = c2.shape[0]
    if n < 2:
        raise ValueError(f"need >= 2 samples, got {n}")
    tot2 = c2.sum(axis=0)
    totf = cfh.sum(axis=0)
    r_full = totf / tot2
    center = r_full[1:] - r_full[:-1]
    r_jk = (totf[None, :] - cfh) / (tot2[None, :] - c2)
    reps = r_jk[:, 1:] - r_jk[:, :-1]
    return center, reps


def _jackknife_cov_from_reps(reps: np.ndarray) -> np.ndarray:
    """Covariance of a jackknife-replicated estimator."""
    n = reps.shape[0]
    dev = reps - reps.mean(axis=0, keepdims=True)
    return (n - 1) / n * (dev.T @ dev)


def fit_fh_ensemble(
    c2: np.ndarray,
    cfh: np.ndarray,
    t_min: int = 1,
    t_max: int | None = None,
    shrinkage: float = 0.2,
) -> GAFitResult:
    """Fit ``g_eff(t)`` from FH correlator samples.

    Parameters
    ----------
    c2, cfh:
        ``(n, lt)`` sample arrays of the two-point and FH correlators.
    t_min, t_max:
        Fit window on the effective-coupling curve.  The power of the FH
        method is that ``t_min`` can be *small*: excited states are
        modelled by the fit, and that is where the data are precise.
    shrinkage:
        Covariance shrinkage passed to the correlated fit.
    """
    center, reps = g_eff_jackknife(c2, cfh)
    n, nt = reps.shape
    t_max = nt if t_max is None else min(t_max, nt)
    if not 0 <= t_min < t_max:
        raise ValueError(f"bad fit window [{t_min}, {t_max})")
    window = slice(t_min, t_max)
    t = np.arange(nt, dtype=np.float64)[window]
    y = center[window]
    cov = _jackknife_cov_from_reps(reps[:, window])
    p0 = (y[-1], y[0] - y[-1], 0.0, 0.4)
    fit = correlated_fit(
        t,
        y,
        cov,
        g_eff_model,
        p0,
        shrinkage=shrinkage,
        bounds=((-5.0, -10.0, -10.0, 0.05), (5.0, 10.0, 10.0, 3.0)),
    )
    return GAFitResult(
        g_a=float(fit.params[0]),
        error=float(fit.errors[0]),
        chi2_per_dof=fit.chi2_per_dof,
        n_samples=n,
        method="feynman-hellmann",
    )


def _m_eff_jackknife(c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Effective mass ``log(C2(t)/C2(t+1))`` with jackknife replicates."""
    c2 = np.asarray(c2, dtype=np.float64)
    n = c2.shape[0]
    tot = c2.sum(axis=0)
    full = np.log(tot[:-1] / tot[1:])
    jk = (tot[None, :] - c2)
    reps = np.log(jk[:, :-1] / jk[:, 1:])
    return full, reps


def fit_fh_joint(
    c2: np.ndarray,
    cfh: np.ndarray,
    t_min: int = 1,
    t_max: int | None = None,
    shrinkage: float = 0.2,
) -> GAFitResult:
    """Joint two-point + Feynman-Hellmann fit (the production analysis).

    Fits the effective mass ``m_eff(t) = log(C2(t)/C2(t+1))`` and the
    effective coupling ``g_eff(t)`` *simultaneously* with a shared
    excited-state gap ``dE``.  The precisely measured two-point data pin
    the gap, collapsing the degeneracy between ``g_A`` and the
    excited-state amplitudes that limits the g_eff-only fit — this is
    how the paper's analysis reaches 1% from early-time data.

    Parameters as in :func:`fit_fh_ensemble`.
    """
    g_center, g_reps = g_eff_jackknife(c2, cfh)
    m_center, m_reps = _m_eff_jackknife(c2)
    n, nt = g_reps.shape
    t_max = nt if t_max is None else min(t_max, nt)
    if not 0 <= t_min < t_max:
        raise ValueError(f"bad fit window [{t_min}, {t_max})")
    window = slice(t_min, t_max)
    t = np.arange(nt, dtype=np.float64)[window]
    y = np.concatenate([m_center[window], g_center[window]])
    reps = np.concatenate([m_reps[:, window], g_reps[:, window]], axis=1)
    cov = _jackknife_cov_from_reps(reps)
    k = len(t)

    # params: (E0, r1, dE, gA, d1, d2)
    def model(_t: np.ndarray, p: np.ndarray) -> np.ndarray:
        e0, r1, de, ga, d1, d2 = p
        decay_t = np.exp(-de * t)
        decay_t1 = np.exp(-de * (t + 1.0))
        m_eff = e0 + np.log1p(r1 * decay_t) - np.log1p(r1 * decay_t1)
        g_eff = ga + (d1 + d2 * (t + 1.0)) * decay_t1 - (d1 + d2 * t) * decay_t
        out = np.empty(2 * k)
        out[:k] = m_eff
        out[k:] = g_eff
        return out

    p0 = (float(m_center[window][-1]), 0.3, 0.4, float(g_center[window][-1]), 0.3, -0.1)
    fit = correlated_fit(
        np.zeros(2 * k),
        y,
        cov,
        model,
        p0,
        shrinkage=shrinkage,
        bounds=(
            (0.01, -0.99, 0.05, -5.0, -10.0, -10.0),
            (5.0, 20.0, 3.0, 5.0, 10.0, 10.0),
        ),
    )
    return GAFitResult(
        g_a=float(fit.params[3]),
        error=float(fit.errors[3]),
        chi2_per_dof=fit.chi2_per_dof,
        n_samples=n,
        method="feynman-hellmann joint",
    )


def fit_traditional_ensemble(
    data: dict[int, np.ndarray],
    drop_edges: int = 1,
    shrinkage: float = 0.3,
) -> GAFitResult:
    """Fit traditional fixed-``tsep`` 3-point ratios simultaneously.

    Parameters
    ----------
    data:
        ``{tsep: (n, tsep-1) samples}`` as produced by
        :meth:`repro.core.synthetic.SyntheticGAEnsemble.sample_traditional`.
    drop_edges:
        Insertion times excluded next to source and sink (contact terms).
    """
    if not data:
        raise ValueError("no traditional data supplied")
    tseps = sorted(data)
    pieces: list[np.ndarray] = []
    taus: list[np.ndarray] = []
    for tsep in tseps:
        arr = np.asarray(data[tsep])
        tau = np.arange(1, tsep, dtype=np.float64)
        keep = slice(drop_edges, len(tau) - drop_edges if drop_edges else None)
        pieces.append(arr[:, keep])
        taus.append(tau[keep])
    n = pieces[0].shape[0]
    stacked = np.concatenate(pieces, axis=1)
    y = stacked.mean(axis=0)
    cov = jackknife_covariance(stacked)

    # Build a single model over the concatenated (tau, tsep) grid.
    lengths = [len(t) for t in taus]
    offsets = np.cumsum([0] + lengths)

    def model(_t: np.ndarray, p: np.ndarray) -> np.ndarray:
        out = np.empty(offsets[-1])
        for i, tsep in enumerate(tseps):
            out[offsets[i] : offsets[i + 1]] = traditional_ratio_model(
                taus[i], p, float(tsep)
            )
        return out

    p0 = (float(y.mean()), 0.1, 0.0, 0.4)
    fit = correlated_fit(
        np.zeros_like(y),
        y,
        cov,
        model,
        p0,
        shrinkage=shrinkage,
        bounds=((-5.0, -10.0, -10.0, 0.05), (5.0, 10.0, 10.0, 3.0)),
    )
    return GAFitResult(
        g_a=float(fit.params[0]),
        error=float(fit.errors[0]),
        chi2_per_dof=fit.chi2_per_dof,
        n_samples=n,
        method="traditional",
    )
