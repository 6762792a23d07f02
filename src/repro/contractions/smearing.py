"""Gauge-covariant Gaussian (Wuppertal) smearing.

Production nucleon calculations (including the paper's) smear quark
sources and sinks to improve ground-state overlap — less excited-state
contamination means the fits of Fig. 1 start even earlier.  The smearing
operator is ``(1 + alpha H)^n`` with ``H`` the spatial gauge-covariant
hopping (covariant Laplacian up to a constant), applied iteratively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lattice.gauge import GaugeField

__all__ = ["GaussianSmearing"]


@dataclass
class GaussianSmearing:
    """Iterative covariant Gaussian smearing kernel.

    Parameters
    ----------
    gauge:
        Background links (spatial links only are used; smearing acts on
        one timeslice structure and never mixes time).
    alpha:
        Hopping weight per iteration (typical 0.1-0.3).
    n_iter:
        Number of iterations; the smearing radius grows like
        ``sqrt(n_iter * alpha)``.
    """

    gauge: GaugeField
    alpha: float = 0.25
    n_iter: int = 10

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {self.n_iter}")
        self._u = self.gauge.u  # periodic links; smearing is spatial only

    def _hop(self, psi: np.ndarray) -> np.ndarray:
        """Spatial covariant hopping sum over the 6 neighbours."""
        geom = self.gauge.geometry
        out = np.zeros_like(psi)
        for mu in range(3):
            hop = np.roll(psi, -1, axis=mu)  # one neighbour field live at a time
            out += np.einsum("xyztab,xyzt...b->xyzt...a", self._u[mu], hop, optimize=True)
            hop = np.einsum(
                "xyztba,xyzt...b->xyzt...a", np.conjugate(self._u[mu]), psi, optimize=True
            )
            out += np.roll(hop, +1, axis=mu)
        return out

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Smear a fermion field (site axes leading, colour axis last)."""
        if psi.shape[:4] != self.gauge.geometry.dims:
            raise ValueError(
                f"field site axes {psi.shape[:4]} != lattice {self.gauge.geometry.dims}"
            )
        norm = 1.0 / (1.0 + 6.0 * self.alpha)
        out = np.asarray(psi, dtype=np.complex128)
        del psi  # a field passed in as a temporary is freed after the first pass
        for _ in range(self.n_iter):
            out = norm * (out + self.alpha * self._hop(out))
        return out

    def smearing_radius(self) -> float:
        """Gaussian rms radius of the smearing profile (free field)."""
        return float(np.sqrt(2.0 * self.n_iter * self.alpha / (1.0 + 6.0 * self.alpha)))
