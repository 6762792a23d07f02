"""Red-black preconditioning of the Wilson operator.

The 4D analogue of :class:`repro.dirac.evenodd.EvenOddMobius`, with a
trivial diagonal block ``A = (m + 4) I`` whose inverse is a scalar:

``S = A - H_eo A^{-1} H_oe``   on the even checkerboard.

Used by the cheaper Wilson-based studies (and as the simplest worked
example of the red-black machinery the paper's solver is built on).
"""

from __future__ import annotations

import numpy as np

from repro.dirac import gamma as g
from repro.dirac.wilson import WilsonOperator

__all__ = ["EvenOddWilson"]


class EvenOddWilson:
    """Schur-complement operator for a :class:`WilsonOperator`."""

    def __init__(self, wilson: WilsonOperator):
        self.wilson = wilson
        geom = wilson.geometry
        self.even = geom.parity_mask(0)
        self.odd = geom.parity_mask(1)
        self._keep = (
            self.even[..., None, None],
            self.odd[..., None, None],
        )
        self.diag = wilson.mass + 4.0

    # -- backend routing -----------------------------------------------------
    @property
    def backend(self) -> str:
        """Dslash backend of the underlying Wilson kernel."""
        return self.wilson.backend

    def set_backend(self, name: str) -> None:
        self.wilson.set_backend(name)

    # -- checkerboard helpers ------------------------------------------------
    def restrict(self, psi: np.ndarray, parity: int) -> np.ndarray:
        """Zero the opposite checkerboard; supports leading RHS axes."""
        return psi * self._keep[parity]

    # -- Schur complement ---------------------------------------------------
    def schur_apply(self, x_even: np.ndarray) -> np.ndarray:
        """``S x = (m+4) x - H A^{-1} H x`` on even sites."""
        t = self.wilson.hopping(x_even)  # -> odd
        t = self.wilson.hopping(t / self.diag)  # -> even
        return self.restrict(self.diag * x_even - t, 0)

    def schur_dagger_apply(self, x_even: np.ndarray) -> np.ndarray:
        """``S^H`` via gamma_5-hermiticity of the hopping term."""
        g5 = g.gamma5_mul
        t = g5(self.wilson.hopping(g5(x_even)))
        t = g5(self.wilson.hopping(g5(t / self.diag)))
        return self.restrict(self.diag * x_even - t, 0)

    def schur_normal_apply(self, x_even: np.ndarray) -> np.ndarray:
        return self.schur_dagger_apply(self.schur_apply(x_even))

    # -- full-system plumbing ---------------------------------------------------
    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        """``b_e - H A^{-1} b_o``."""
        b_odd = self.restrict(b, 1)
        b_even = self.restrict(b, 0)
        return self.restrict(b_even - self.wilson.hopping(b_odd / self.diag), 0)

    def reconstruct(self, x_even: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``x_o = A^{-1} (b_o - H x_e)``."""
        b_odd = self.restrict(b, 1)
        x_odd = self.restrict(b_odd - self.wilson.hopping(x_even), 1) / self.diag
        return x_even + x_odd
