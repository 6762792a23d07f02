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

from repro.dirac.wilson import WilsonOperator

__all__ = ["WilsonSchur", "EvenOddWilson", "parity_fields", "packed_fields"]


def parity_fields(geometry) -> tuple[Callable, Callable, Callable]:
    """``(split, join, to_even)`` for full-lattice fields: the
    checkerboards are the field times a parity mask, joined by ``+``;
    ``to_even`` zeroes the odd sites in place."""
    keep = tuple(geometry.parity_mask(p)[..., None, None] for p in (0, 1))
    to_even = lambda x: np.multiply(x, keep[0], out=x)  # noqa: E731
    return (lambda b: (b * keep[0], b * keep[1])), np.add, to_even


def packed_fields(kernel) -> tuple[Callable, Callable]:
    """``(split, join)`` for ``kernel``'s checkerboard-packed fields
    (``kernel.pack`` / ``kernel.unpack``, any leading axes): the field
    space of every packed Schur chain, Wilson and Mobius alike."""
    return (lambda b: (kernel.pack(b, 0), kernel.pack(b, 1)), kernel.unpack)


class WilsonSchur:
    """The Wilson Schur complement over a hopping term and a field space.

    Parameters
    ----------
    hop:
        ``hop(x, parity, dagger=False, out=None)``: the hopping term
        (``H^H`` with ``dagger``) of a field on ``parity``'s sites, on the
        other parity's: into ``out`` (``x`` allowed) or a fresh array.
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

    ``A^{-1}`` is a reciprocal multiply, ``S^H`` runs the same chain on
    the hops' own adjoint (no ``gamma_5`` pass), and every pass after the
    first ``hop`` is in place on its fresh output.
    """

    def __init__(
        self,
        hop: Callable[..., np.ndarray],
        mass: float,
        split: Callable,
        join: Callable,
        to_even: Callable = lambda x: x,
    ):
        self.hop, self.split, self.join, self._even = hop, split, join, to_even
        self.diag = float(mass) + 4.0
        self._inv_diag = 1.0 / self.diag

    @classmethod
    def packed(cls, kernel, hop: Callable[..., np.ndarray], mass: float) -> "WilsonSchur":
        """The chain on ``kernel``'s checkerboard-packed fields
        (``kernel.pack`` / ``kernel.unpack``): half the sites in every
        pass.  ``hop(x, parity)`` is the packed hopping term — a serial
        operator's or a rank's halo schedule around the same kernel."""
        return cls(hop, mass, *packed_fields(kernel))

    # -- Schur complement ---------------------------------------------------
    def _schur(self, x: np.ndarray, dagger: bool) -> np.ndarray:
        """``(m+4) x - H A^{-1} H x`` (even -> odd -> even), every ``H``
        an ``H^H`` with ``dagger``."""
        t = self.hop(x, 0, dagger=dagger)
        t *= self._inv_diag
        t = self.hop(t, 1, dagger=dagger, out=t)
        dx = np.empty_like(x[0])  # (m+4) x, one leading slice at a time
        for xi, ti in zip(x, t):
            np.subtract(np.multiply(xi, self.diag, out=dx), ti, out=ti)
        return self._even(t)

    def schur_apply(self, x_even: np.ndarray) -> np.ndarray:
        """``S x = (m+4) x - H A^{-1} H x`` on even sites."""
        return self._schur(x_even, False)

    def schur_dagger_apply(self, x_even: np.ndarray) -> np.ndarray:
        """``S^H x = (m+4) x - H^H A^{-1} H^H x``: the same chain on the
        hops' own adjoint."""
        return self._schur(x_even, True)

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
        hop = lambda x, parity, **kw: wilson.hopping(x, **kw)  # noqa: E731
        super().__init__(hop, wilson.mass, *parity_fields(wilson.geometry))

    def restrict(self, psi: np.ndarray, parity: int) -> np.ndarray:
        """Zero the opposite checkerboard; supports leading RHS axes."""
        return psi * self.wilson.geometry.parity_mask(parity)[..., None, None]
