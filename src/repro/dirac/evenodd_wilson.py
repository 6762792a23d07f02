"""Red-black preconditioning of the Wilson operator.

The 4D analogue of :class:`repro.dirac.evenodd.EvenOddMobius`, with a
trivial diagonal block ``A = (m + 4) I`` whose inverse is a scalar:

``S = A - H_eo A^{-1} H_oe``   on the even checkerboard.

Used by the cheaper Wilson-based studies (and as the simplest worked
example of the red-black machinery the paper's solver is built on).

:class:`WilsonSchur` is the chain, written once over ``hop(x, parity)``
and a way to split a full field into its two checkerboards and join
them again.  The serial :class:`EvenOddWilson`, the rank-side field
operations and the distributed solve (full-lattice or
checkerboard-packed fields) are instances of it, so they agree to the
bit wherever their hopping terms do.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.dirac.gamma import gamma5_mul
from repro.dirac.wilson import WilsonOperator

__all__ = ["WilsonSchur", "EvenOddWilson", "parity_fields"]


def parity_fields(geometry) -> tuple[Callable, Callable, Callable]:
    """``(split, join, to_even)`` for full-lattice fields: the
    checkerboards are the field times a parity mask, joined by ``+``;
    ``to_even`` zeroes the odd sites in place."""
    keep = tuple(geometry.parity_mask(p)[..., None, None] for p in (0, 1))

    def to_even(x: np.ndarray) -> np.ndarray:
        x *= keep[0]
        return x

    return (lambda b: (b * keep[0], b * keep[1])), np.add, to_even


class WilsonSchur:
    """The Wilson Schur complement over a hopping term and a field space.

    Parameters
    ----------
    hop:
        ``hop(x, parity)``: the hopping term applied to a field living on
        ``parity``'s sites; the result (always a fresh array) lives on
        the other parity's.
    mass:
        Bare quark mass; the diagonal block is ``(mass + 4) I``.
    split, join:
        ``split(b) -> (b_even, b_odd)`` takes a full-lattice field to the
        space ``hop`` works in (both fresh arrays) and ``join(x_even,
        x_odd)`` back.
    to_even:
        In-place projection onto the even sites, for a space whose
        arrays can hold the other parity too; the identity where they
        cannot (checkerboard-packed fields).

    ``A^{-1}`` is a reciprocal multiply, the ``gamma_5`` pair around it
    in ``S^H`` is cancelled (signs are exact), and every pass after a
    ``hop`` is in place on its fresh output.
    """

    def __init__(
        self,
        hop: Callable[[np.ndarray, int], np.ndarray],
        mass: float,
        split: Callable,
        join: Callable,
        to_even: Callable = lambda x: x,
    ):
        self.hop, self.split, self.join, self._even = hop, split, join, to_even
        self.diag = float(mass) + 4.0
        self._inv_diag = 1.0 / self.diag
        self._g5_diag = gamma5_mul(np.full((4, 3), self.diag))

    @classmethod
    def packed(cls, kernel, hop: Callable[[np.ndarray, int], np.ndarray], mass: float) -> "WilsonSchur":
        """The chain on ``kernel``'s checkerboard-packed fields
        (``kernel.pack`` / ``kernel.unpack``): half the sites in every
        pass.  ``hop(x, parity)`` is the packed hopping term — a serial
        operator's or a rank's halo schedule around the same kernel."""
        return cls(hop, mass, lambda b: (kernel.pack(b, 0), kernel.pack(b, 1)), kernel.unpack)

    # -- Schur complement ---------------------------------------------------
    def _hop_inv_hop(self, x: np.ndarray) -> np.ndarray:
        """``H A^{-1} H x`` (even -> odd -> even)."""
        t = self.hop(x, 0)
        t *= self._inv_diag
        return self.hop(t, 1)

    def schur_apply(self, x_even: np.ndarray) -> np.ndarray:
        """``S x = (m+4) x - H A^{-1} H x`` on even sites."""
        t = self._hop_inv_hop(x_even)
        return self._even(np.subtract(self.diag * x_even, t, out=t))

    def schur_dagger_apply(self, x_even: np.ndarray) -> np.ndarray:
        """``S^H`` via gamma_5-hermiticity of the hopping term."""
        y = gamma5_mul(x_even)
        t = self._hop_inv_hop(y)
        gamma5_mul(t, out=t)
        # diag * x == (gamma_5 diag) * (gamma_5 x), to the bit
        np.multiply(y, self._g5_diag.astype(y.real.dtype), out=y)
        return self._even(np.subtract(y, t, out=t))

    def schur_normal_apply(self, x_even: np.ndarray) -> np.ndarray:
        return self.schur_dagger_apply(self.schur_apply(x_even))

    # -- full-system plumbing ---------------------------------------------------
    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        """``b_e - H A^{-1} b_o``."""
        b_even, b_odd = self.split(b)
        b_odd *= self._inv_diag
        t = self.hop(b_odd, 1)
        return self._even(np.subtract(b_even, t, out=t))

    def reconstruct(self, x_even: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The full solution: ``x_o = A^{-1} (b_o - H x_e)`` joined to ``x_e``."""
        t = self.hop(x_even, 0)
        x_odd = np.subtract(self.split(b)[1], t, out=t)
        x_odd *= self._inv_diag
        return self.join(x_even, x_odd)


class EvenOddWilson(WilsonSchur):
    """Schur-complement operator for a serial :class:`WilsonOperator`."""

    def __init__(self, wilson: WilsonOperator):
        self.wilson = wilson
        geom = wilson.geometry
        self.even = geom.parity_mask(0)
        self.odd = geom.parity_mask(1)
        super().__init__(
            lambda x, parity: wilson.hopping(x), wilson.mass, *parity_fields(geom)
        )

    # -- backend routing -----------------------------------------------------
    @property
    def backend(self) -> str:
        """Dslash backend of the underlying Wilson kernel."""
        return self.wilson.backend

    def set_backend(self, name: str) -> None:
        self.wilson.set_backend(name)

    def restrict(self, psi: np.ndarray, parity: int) -> np.ndarray:
        """Zero the opposite checkerboard; supports leading RHS axes."""
        return psi * (self.even, self.odd)[parity][..., None, None]
