"""The reference dslash kernel — the correctness oracle.

This is the original :meth:`WilsonOperator.hopping` stencil verbatim:
four full 4-spinor einsum contractions with ``np.roll`` neighbour
gathers.  The half-spinor kernel is validated against it to double
precision; it is deliberately left unoptimized, and takes ``dagger``,
``diag`` and ``out`` by composition (a ``gamma_5`` sandwich, a plain add,
a copy), so the oracle stays independent of the fused path.
"""

from __future__ import annotations

import numpy as np

from repro.dirac import gamma as g
from repro.dirac.kernels.base import DslashKernel

__all__ = ["ReferenceKernel"]


class ReferenceKernel(DslashKernel):
    """Full 4-spinor einsum stencil (the seed implementation)."""

    name = "reference"

    def __init__(self, u, u_dag, geometry):
        super().__init__(u, geometry)
        self.u_dag = u_dag
        self._proj_fwd = tuple(g.IDENTITY - g.GAMMA[mu] for mu in range(4))
        self._proj_bwd = tuple(g.IDENTITY + g.GAMMA[mu] for mu in range(4))

    @staticmethod
    def _color_mul(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """``(U psi)(x)`` with ``u`` of shape dims+(3,3), psi (n, dims, 4, 3)."""
        return np.einsum("xyztab,nxyztsb->nxyztsa", u, psi, optimize=True)

    def hopping(self, phi: np.ndarray, *, dagger: bool = False, diag=None, out=None) -> np.ndarray:
        if out is not None:  # by composition too: a copy
            out[...] = self.hopping(phi, dagger=dagger, diag=diag)
            return out
        if dagger:
            return g.gamma5_mul(self.hopping(g.gamma5_mul(phi), diag=diag))
        out = np.zeros_like(phi)
        for mu in range(4):
            axis = 1 + mu  # site axes start after the flattened lead axis
            fwd = np.roll(phi, -1, axis=axis)  # psi(x + mu)
            out -= 0.5 * g.spin_mul(self._proj_fwd[mu], self._color_mul(self.u[mu], fwd))
            back = np.roll(self._color_mul(self.u_dag[mu], phi), +1, axis=axis)
            out -= 0.5 * g.spin_mul(self._proj_bwd[mu], back)
        if diag is not None:
            out += diag * phi
        return out
