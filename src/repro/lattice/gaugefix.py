"""Coulomb and Landau gauge fixing by SU(2)-subgroup relaxation.

Gauge fixing maximizes ``F[g] = sum_{x, mu in dirs} Re tr g(x) U_mu(x)
g(x+mu)^H`` over local rotations ``g``; at the maximum the (lattice)
divergence of the gauge field vanishes.  The local maximization is done
exactly within the three SU(2) subgroups (Cabibbo-Marinari style, with
quaternion-angle overrelaxation), which avoids the residual floor of a
naive polar-projection update.

Layout: the relaxation runs on parity-packed, component-major links.
``planes[mu, p]`` is a ``(3, 3, V/2)`` array of ``U_mu`` on the parity-``p``
sites (lexicographic order), so a 3x3 product is three broadcast
multiply-adds of contiguous colour planes; neighbours are packed indices
into the other parity, one table per ``(mu, parity)``.  A half-sweep builds
``w`` on the updated parity only, rotates the two rows each subgroup
touches, and multiplies each link once: ``U_mu(x) <- g(x) U_mu(x)`` on the
updated parity, ``U_mu(y) <- U_mu(y) g(y+mu)^H`` on the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.lattice.gauge import GaugeField
from repro.lattice.geometry import Geometry
from repro.lattice.su3 import NC, project_traceless_antihermitian

__all__ = ["GaugeFixer", "GaugeFixResult"]

#: The three SU(2) subgroups of SU(3) used by Cabibbo-Marinari.
_SUBGROUPS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class GaugeFixResult:
    """Outcome of a gauge-fixing run."""

    converged: bool
    iterations: int
    functional: float
    residual: float  # max-norm of the driving force at exit


@lru_cache(maxsize=8)
def _tables(geom: Geometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sites, fwd, bwd)``: ``sites[p]`` are the flat indices of the
    parity-``p`` sites, ``fwd[mu, p]`` / ``bwd[mu, p]`` the packed
    (other-parity) indices of their ``x + mu`` / ``x - mu`` neighbours."""
    flat = np.arange(geom.volume).reshape(geom.dims)
    sites = np.stack([np.flatnonzero(geom.parity == p) for p in (0, 1)])
    packed = np.empty(geom.volume, dtype=np.intp)
    packed[sites] = np.arange(geom.half_volume)
    hop = [[packed[geom.shift(flat, mu, s).ravel()[sites]] for mu in range(4)] for s in (1, -1)]
    return sites, np.array(hop[0]), np.array(hop[1])


def _pack(gauge: GaugeField) -> np.ndarray:
    """Links as ``(4, 2, 3, 3, V/2)`` component planes per direction and parity."""
    u = gauge.u.reshape(4, -1, NC, NC)[:, _tables(gauge.geometry)[0]]
    return np.ascontiguousarray(u.transpose(0, 1, 3, 4, 2))


def _store(gauge: GaugeField, planes: np.ndarray) -> None:
    """Write packed planes back as ``gauge.u``."""
    u = np.empty(gauge.u.shape, dtype=np.complex128)
    u.reshape(4, -1, NC, NC)[:, _tables(gauge.geometry)[0]] = planes.transpose(0, 1, 4, 2, 3)
    gauge.u = u


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a b`` for component-major ``(..., 3, 3, n)`` matrices (leading axes broadcast)."""
    return sum(a[..., :, k, None, :] * b[..., k, None, :, :] for k in range(NC))


def _rotate_rows(ms, i: int, j: int, q) -> None:
    """``m <- g m`` in place, ``g = q0 + i q_vec.sigma`` embedded in subgroup ``(i, j)``."""
    a0, a1, a2, a3 = q
    g00, g01, g10, g11 = a0 + 1j * a3, a2 + 1j * a1, -a2 + 1j * a1, a0 - 1j * a3
    for m in ms:
        mi, mj = m[i].copy(), m[j]
        m[i] = g00 * mi + g01 * mj
        m[j] = g10 * mi + g11 * mj


@dataclass
class GaugeFixer:
    """Relaxation gauge fixing.

    Parameters
    ----------
    gauge_type:
        ``"landau"`` (all four directions) or ``"coulomb"`` (spatial only).
    tol:
        Convergence threshold on the local driving force (max-norm of
        the traceless antihermitian part of the local ``w``).
    max_iter:
        Sweep cap.
    overrelax:
        Overrelaxation exponent omega in [1, 2); ~1.7 accelerates the
        critical slowing down of plain relaxation.
    """

    gauge_type: str = "coulomb"
    tol: float = 1e-8
    max_iter: int = 2000
    overrelax: float = 1.7

    def __post_init__(self) -> None:
        if self.gauge_type not in ("landau", "coulomb"):
            raise ValueError(f"gauge_type must be landau or coulomb, got {self.gauge_type}")
        if not 1.0 <= self.overrelax < 2.0:
            raise ValueError("overrelax must lie in [1, 2)")

    @property
    def directions(self) -> tuple[int, ...]:
        return (0, 1, 2, 3) if self.gauge_type == "landau" else (0, 1, 2)

    def functional(self, gauge: GaugeField) -> float:
        """Normalized gauge functional in (roughly) [0, 1]."""
        total = 0.0
        for mu in self.directions:
            total += float(np.trace(gauge.u[mu], axis1=-2, axis2=-1).real.sum())
        return total / (NC * len(self.directions) * gauge.geometry.volume)

    def _local_w(self, planes: np.ndarray, bwd: np.ndarray, p: int) -> np.ndarray:
        """``w(x) = sum_mu [U_mu(x) + U_mu(x-mu)^H]`` on the parity-``p`` sites:
        the matrix each site's rotation wants to align with the identity."""
        d = list(self.directions)
        back = np.take_along_axis(planes[d, 1 - p], bwd[d, p, None, None], axis=-1)
        return (planes[d, p] + back.conj().transpose(0, 2, 1, 3)).sum(axis=0)

    def _residual(self, planes: np.ndarray, bwd: np.ndarray) -> float:
        ws = (self._local_w(planes, bwd, p).transpose(2, 0, 1) for p in (0, 1))
        return max(float(np.abs(project_traceless_antihermitian(w)).max()) for w in ws)

    def residual(self, gauge: GaugeField) -> float:
        """Max-norm of the traceless antihermitian part of ``w`` (the
        lattice gauge-divergence condition)."""
        return self._residual(_pack(gauge), _tables(gauge.geometry)[2])

    def _relax(self, planes: np.ndarray, fwd: np.ndarray, bwd: np.ndarray) -> None:
        """One sweep (both parities) on packed planes, in place."""
        for p in (0, 1):
            w = self._local_w(planes, bwd, p)
            g = np.eye(NC, dtype=np.complex128)[:, :, None].repeat(w.shape[-1], axis=2)
            for (i, j) in _SUBGROUPS:
                # su2 projection of the (i, j) block: quaternion x, |x| = k
                x0 = 0.5 * (w[i, i].real + w[j, j].real)
                x1 = 0.5 * (w[i, j].imag + w[j, i].imag)
                x2 = 0.5 * (w[i, j].real - w[j, i].real)
                x3 = 0.5 * (w[i, i].imag - w[j, j].imag)
                kinv = 1.0 / np.maximum(np.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3), 1e-300)
                # The maximizer is V^H = (x0, -x_vec)/k; overrelax its angle.
                vnorm = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3) * kinv
                theta = self.overrelax * np.arctan2(vnorm, np.clip(x0 * kinv, -1.0, 1.0))
                zero = vnorm < 1e-14  # zero rotation: identity
                c = np.where(zero, 1.0, np.cos(theta))
                s = np.where(zero, 0.0, -np.sin(theta) / np.maximum(vnorm, 1e-300) * kinv)
                _rotate_rows((w, g), i, j, (c, x1 * s, x2 * s, x3 * s))
            planes[:, p] = _mul(g, planes[:, p])
            gh = g.conj()[:, :, fwd[:, 1 - p]].transpose(2, 1, 0, 3)  # g(y+mu)^H
            planes[:, 1 - p] = _mul(planes[:, 1 - p], gh)

    def _sweep(self, gauge: GaugeField) -> None:
        planes = _pack(gauge)
        self._relax(planes, *_tables(gauge.geometry)[1:])
        _store(gauge, planes)

    def fix(self, gauge: GaugeField) -> GaugeFixResult:
        """Iteratively gauge-fix in place; returns convergence info."""
        _sites, fwd, bwd = _tables(gauge.geometry)
        planes, converged = _pack(gauge), False
        for sweep in range(1, self.max_iter + 1):
            self._relax(planes, fwd, bwd)
            if sweep % 5 == 0 or sweep == 1:
                res = self._residual(planes, bwd)
                if converged := res < self.tol:
                    break
        _store(gauge, planes)
        gauge.reunitarize()
        if not converged:
            sweep, res = self.max_iter, self.residual(gauge)
        return GaugeFixResult(converged, sweep, self.functional(gauge), res)
