"""Red-black (even-odd) preconditioning of the Mobius operator.

This is the "red-black preconditioned double-half CG" structure of
Section IV.  Writing the 4D checkerboard decomposition

``D = [[A, B_eo], [B_oe, A]]``,   ``B = H D5_plus``,   ``A = alpha + beta L``

with ``H`` the (strictly parity-flipping) Wilson hopping term,
``alpha = (4 - M5) b5 + 1`` and ``beta = (4 - M5) c5 - 1``, the Schur
complement on the even checkerboard is

``S = A - B_eo A^{-1} B_oe``.

``A`` acts only in the fifth dimension and spin chirality, so its inverse
is one ``Ls x Ls`` table of real weights per chirality, computed once and
applied as an elementwise accumulate over ``s`` — the analogue of QUDA's
fused ``m5inv`` kernel.  The preconditioned system has roughly half the
iteration count at half the size, which is where the paper's solver
spends 97% of its runtime.

The chain runs on the half-spinor kernel's checkerboard-packed fields
(:func:`repro.dirac.evenodd_wilson.packed_fields`, the field space of
every packed Schur chain): ``H`` is ``WilsonOperator.hopping(x,
parity=p)`` with the fifth dimension a leading axis, so every pass
touches half the sites.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.evenodd_wilson import packed_fields
from repro.dirac.mobius import MobiusOperator

__all__ = ["EvenOddMobius"]


class EvenOddMobius:
    """Schur-complement operator for a :class:`MobiusOperator`.

    Parameters
    ----------
    mobius:
        The full operator to precondition.

    ``split(b) -> (b_even, b_odd)`` packs a full 5D field (any leading
    axes) and ``join`` unpacks; ``b_apply(x, p)`` / ``b_dagger_apply(x,
    p)`` take a field on parity ``p``'s sites to the other parity's.
    """

    def __init__(self, mobius: MobiusOperator):
        self.mobius = mobius
        self.split, self.join = packed_fields(mobius.wilson.kernel)
        self.alpha = (4.0 - mobius.m5) * mobius.b5 + 1.0
        self.beta = (4.0 - mobius.m5) * mobius.c5 - 1.0
        self._inv = self._a_inv_weights()
        self._inv_dagger = np.roll(self._inv, 2, axis=-2)

    # -- the A = alpha + beta L block ---------------------------------------
    def _a_inv_weights(self) -> np.ndarray:
        """``w[t, s]`` (per spin) with ``(A^{-1} psi)(s) = sum_t w[t, s] psi(t)``.

        On chirality ``+`` (upper spin components) ``A = alpha (1 - kappa
        S)``, ``S`` the ``s-1`` shift of ``L`` with ``S^Ls = -m``, so
        ``A^{-1} = sum_{j<Ls} (kappa S)^j / (alpha (1 + m kappa^Ls))``;
        chirality ``-`` shifts ``s+1``, the transpose.  Real weights, so
        ``A^{-H}`` swaps the two chiralities' tables.
        """
        ls, m = self.mobius.ls, self.mobius.mass
        kappa = -self.beta / self.alpha
        s, t = np.ogrid[:ls, :ls]
        c = kappa ** ((s - t) % ls) * np.where(t > s, -m, 1.0)
        c /= self.alpha * (1.0 + m * kappa**ls)
        w = np.empty((ls, ls, 4))
        w[..., :2] = c.T[..., None]
        w[..., 2:] = c[..., None]
        return w.reshape((ls, ls, 1, 1, 1, 1, 4, 1))

    @staticmethod
    def _s_sum(w: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """``out(s) = sum_t w[t, s] psi(t)``: one elementwise multiply-add
        per ``t``, so a stack rounds exactly like each of its columns."""
        out = np.zeros_like(psi)
        tmp = np.empty_like(psi)
        for t in range(w.shape[0]):
            out += np.multiply(w[t], psi[MobiusOperator._at_s(slice(t, t + 1))], out=tmp)
        return out

    def a_apply(self, psi: np.ndarray) -> np.ndarray:
        """``A psi = alpha psi + beta L psi`` (parity-diagonal block)."""
        return self.alpha * psi + self.beta * self.mobius.hop5(psi)

    def a_dagger_apply(self, psi: np.ndarray) -> np.ndarray:
        return self.alpha * psi + self.beta * self.mobius.hop5_dagger(psi)

    def a_inv_apply(self, psi: np.ndarray) -> np.ndarray:
        """``A^{-1} psi`` — the fused ``m5inv`` kernel."""
        return self._s_sum(self._inv, psi)

    def a_inv_dagger_apply(self, psi: np.ndarray) -> np.ndarray:
        return self._s_sum(self._inv_dagger, psi)

    # -- off-diagonal blocks -----------------------------------------------------
    def b_apply(self, psi: np.ndarray, parity: int) -> np.ndarray:
        """``B psi = H D5_plus psi`` from ``parity``'s sites to the other's."""
        return self.mobius.wilson.hopping(self.mobius.d5_plus(psi), parity=parity)

    def b_dagger_apply(self, psi: np.ndarray, parity: int) -> np.ndarray:
        """``B^H psi = D5_plus^H H^H psi``, likewise."""
        return self.mobius.d5_plus_dagger(self.mobius.wilson.hopping(psi, parity, dagger=True))

    # -- Schur complement --------------------------------------------------------------
    def schur_apply(self, x_even: np.ndarray) -> np.ndarray:
        """``S x = A x - B_eo A^{-1} B_oe x`` on the even checkerboard."""
        t = self.b_apply(self.a_inv_apply(self.b_apply(x_even, 0)), 1)
        return np.subtract(self.a_apply(x_even), t, out=t)

    def schur_dagger_apply(self, x_even: np.ndarray) -> np.ndarray:
        """``S^H x = A^H x - B^H A^{-H} B^H x`` on the even checkerboard."""
        t = self.b_dagger_apply(self.a_inv_dagger_apply(self.b_dagger_apply(x_even, 0)), 1)
        return np.subtract(self.a_dagger_apply(x_even), t, out=t)

    def schur_normal_apply(self, x_even: np.ndarray) -> np.ndarray:
        """``S^H S x`` — the hermitian system handed to CG."""
        return self.schur_dagger_apply(self.schur_apply(x_even))

    # -- full-system solve plumbing -----------------------------------------------------
    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        """Even-checkerboard right-hand side ``b_e - B_eo A^{-1} b_o``."""
        b_even, b_odd = self.split(b)
        t = self.b_apply(self.a_inv_apply(b_odd), 1)
        return np.subtract(b_even, t, out=t)

    def reconstruct(self, x_even: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The full solution: ``x_o = A^{-1} (b_o - B_oe x_e)`` joined to ``x_e``."""
        t = self.b_apply(x_even, 0)
        x_odd = self.a_inv_apply(np.subtract(self.split(b)[1], t, out=t))
        return self.join(x_even, x_odd)

    # -- accounting ---------------------------------------------------------------------
    def flops_per_normal_apply(self) -> float:
        """Model flops per ``schur_normal_apply`` (paper convention)."""
        return self.mobius.flops_per_normal_apply()
