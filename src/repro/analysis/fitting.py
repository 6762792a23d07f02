"""Correlated least-squares fitting of correlator data.

The fits minimize ``chi^2 = r^T Cov^{-1} r`` with the data covariance
estimated from the sample ensemble; the implementation whitens the
residuals with a Cholesky factor and hands them to
``scipy.optimize.least_squares`` (Levenberg-Marquardt-like trust region).
A diagonal "shrinkage" regulator keeps small-ensemble covariance
estimates invertible — standard practice in lattice analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FitResult",
    "correlated_fit",
    "two_state_c2",
    "ratio_model",
    "g_eff_model",
    "traditional_ratio_model",
]

Model = Callable[[np.ndarray, np.ndarray], np.ndarray]  # (t, params) -> values


@dataclass(frozen=True)
class FitResult:
    """Outcome of a correlated fit.

    Attributes
    ----------
    params:
        Best-fit parameter vector.
    errors:
        Parameter errors from the inverse Gauss-Newton Hessian.
    chi2:
        Correlated chi-square at the minimum.
    dof:
        Degrees of freedom (points minus parameters).
    converged:
        Optimizer status flag.
    """

    params: np.ndarray
    errors: np.ndarray
    chi2: float
    dof: int
    converged: bool

    @property
    def chi2_per_dof(self) -> float:
        return self.chi2 / self.dof if self.dof > 0 else np.inf


def _whitener(cov: np.ndarray, shrinkage: float) -> np.ndarray:
    """Inverse Cholesky factor of the (shrunk) covariance."""
    cov = np.asarray(cov, dtype=np.float64)
    diag = np.diag(np.diag(cov))
    shrunk = (1.0 - shrinkage) * cov + shrinkage * diag
    # Small ridge for numerical safety on nearly singular estimates.
    shrunk = shrunk + 1e-14 * np.trace(shrunk) / len(shrunk) * np.eye(len(shrunk))
    chol = np.linalg.cholesky(shrunk)
    return np.linalg.inv(chol)


def correlated_fit(
    t: np.ndarray,
    y: np.ndarray,
    cov: np.ndarray,
    model: Model,
    p0: Sequence[float],
    shrinkage: float = 0.1,
    bounds: tuple | None = None,
) -> FitResult:
    """Fit ``model(t, p) ~ y`` with correlated errors.

    Parameters
    ----------
    t, y:
        Abscissa and data (1D, equal length).
    cov:
        Covariance of ``y`` (e.g. from
        :func:`repro.analysis.resampling.jackknife_covariance`).
    model:
        Callable ``model(t, params) -> values``.
    p0:
        Initial parameter guess.
    shrinkage:
        Linear shrinkage toward the diagonal (0 = full covariance,
        1 = uncorrelated fit).
    bounds:
        Optional ``(lower, upper)`` parameter bounds.
    """
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if t.shape != y.shape:
        raise ValueError(f"t {t.shape} and y {y.shape} differ")
    if cov.shape != (len(y), len(y)):
        raise ValueError(f"cov shape {cov.shape} incompatible with {len(y)} points")
    if not 0.0 <= shrinkage <= 1.0:
        raise ValueError(f"shrinkage must be in [0, 1], got {shrinkage}")
    w = _whitener(cov, shrinkage)

    def residuals(p: np.ndarray) -> np.ndarray:
        return w @ (model(t, p) - y)

    kwargs = {}
    if bounds is not None:
        kwargs["bounds"] = bounds
    from scipy.optimize import least_squares  # deferred: scipy costs 0.4 s to import

    sol = least_squares(residuals, np.asarray(p0, dtype=np.float64), **kwargs)
    chi2 = float(2.0 * sol.cost)
    dof = len(y) - len(sol.x)
    # Parameter covariance from the Gauss-Newton approximation J^T J.
    jtj = sol.jac.T @ sol.jac
    try:
        pcov = np.linalg.inv(jtj)
        errors = np.sqrt(np.abs(np.diag(pcov)))
    except np.linalg.LinAlgError:
        errors = np.full(len(sol.x), np.nan)
    return FitResult(
        params=sol.x,
        errors=errors,
        chi2=chi2,
        dof=dof,
        converged=bool(sol.success),
    )


# -- standard models ------------------------------------------------------------


def two_state_c2(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``C2(t) = A0 e^{-E0 t} (1 + r1 e^{-dE t})``, params (A0, E0, r1, dE)."""
    a0, e0, r1, de = p
    return a0 * np.exp(-e0 * t) * (1.0 + r1 * np.exp(-de * t))


def ratio_model(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """FH ratio ``R(t) = c0 + gA t + (d1 + d2 t) e^{-dE t}``,
    params (c0, gA, d1, d2, dE)."""
    c0, ga, d1, d2, de = p
    return c0 + ga * t + (d1 + d2 * t) * np.exp(-de * t)


def g_eff_model(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Finite difference of :func:`ratio_model`:
    ``g_eff(t) = R(t+1) - R(t)`` with params (gA, d1, d2, dE).

    ``t`` labels the left timeslice of the difference.
    """
    ga, d1, d2, de = p
    r_t = (d1 + d2 * t) * np.exp(-de * t)
    r_t1 = (d1 + d2 * (t + 1.0)) * np.exp(-de * (t + 1.0))
    return ga + (r_t1 - r_t)


def traditional_ratio_model(tau: np.ndarray, p: np.ndarray, tsep: float) -> np.ndarray:
    """Traditional 3-point ratio at fixed source-sink separation:
    ``R(tau; tsep) = gA + b (e^{-dE tau} + e^{-dE (tsep - tau)}) + c e^{-dE tsep/2}``,
    params (gA, b, c, dE)."""
    ga, b, c, de = p
    return (
        ga
        + b * (np.exp(-de * tau) + np.exp(-de * (tsep - tau)))
        + c * np.exp(-de * tsep / 2.0)
    )
