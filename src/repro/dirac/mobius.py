"""The Mobius domain-wall Dirac operator (the paper's discretization).

Mobius domain-wall fermions introduce a fifth dimension of extent ``Ls``;
chiral modes bind to the two 4D boundaries and the physical quark lives
in their overlap.  In operator form

``D = D_W (b5 + c5 L) + (1 - L)``

where ``D_W`` is the Wilson operator with mass ``-M5`` (the domain-wall
height) and ``L`` is the fifth-dimension hopping

``L psi(s) = P_- psi(s+1) + P_+ psi(s-1)``

with the quark-mass boundary condition ``psi(Ls) = -m psi(0)`` and
``psi(-1) = -m psi(Ls-1)``.  Shamir domain-wall fermions are the special
case ``(b5, c5) = (1, 0)``.

In the Shamir limit the operator satisfies reflection hermiticity
``D^H = (gamma_5 R) D (gamma_5 R)`` with ``R`` the reflection
``s -> Ls-1-s`` (tested) — the 5D analogue of gamma_5-hermiticity.  For
general Mobius coefficients the ``D_W L`` product spoils that identity,
so :meth:`MobiusOperator.apply_dagger` builds the exact adjoint from the
adjoints of the factors instead (adjoint consistency
``<phi, D psi> == <D^H phi, psi>`` is tested for all coefficients).

Fields have shape ``(Ls, Lx, Ly, Lz, Lt, 4, 3)``, or ``Lt / 2`` in
place of ``Lt`` for one checkerboard-packed parity (the fifth-dimension
parts ``hop5`` / ``d5_plus`` act site by site on either); arbitrary extra
leading axes (e.g. a stack of right-hand sides in the multi-RHS solver
path) are supported — the fifth dimension is always axis ``-7``.
"""

from __future__ import annotations

import numpy as np

from repro.dirac import gamma as g
from repro.dirac.flops import mobius_dslash_flops_per_5d_site
from repro.dirac.wilson import WilsonOperator
from repro.lattice.gauge import GaugeField

__all__ = ["MobiusOperator"]


class MobiusOperator:
    """Mobius domain-wall operator on a fixed gauge background.

    Parameters
    ----------
    gauge:
        Gauge field.
    ls:
        Fifth-dimension extent (paper lattices use 12 or 20).
    mass:
        Input quark mass ``m_f``.
    m5:
        Domain-wall height ``M5`` (the Wilson kernel mass is ``-M5``);
        must lie in ``(0, 2)`` for a single physical mode.
    b5, c5:
        Mobius coefficients; ``b5 - c5 = 1`` keeps the approach to the
        continuum 5th dimension Shamir-like while ``b5 + c5`` scales the
        effective ``Ls``.
    """

    def __init__(
        self,
        gauge: GaugeField,
        ls: int,
        mass: float,
        m5: float = 1.8,
        b5: float = 1.5,
        c5: float = 0.5,
        antiperiodic_t: bool = True,
    ):
        if ls < 2:
            raise ValueError(f"ls must be >= 2, got {ls}")
        if not 0.0 < m5 < 2.0:
            raise ValueError(f"m5 must be in (0, 2), got {m5}")
        self.geometry = gauge.geometry
        self.ls = int(ls)
        self.mass = float(mass)
        self.m5 = float(m5)
        self.b5 = float(b5)
        self.c5 = float(c5)
        self.wilson = WilsonOperator(gauge, mass=-m5, antiperiodic_t=antiperiodic_t)

    @property
    def field_shape(self) -> tuple[int, ...]:
        """Shape of the 5D fermion fields this operator acts on."""
        return (self.ls,) + self.geometry.dims + (4, 3)

    #: Position of the fifth-dimension axis (fields may carry extra
    #: leading axes, e.g. a multi-RHS stack).
    S_AXIS = -7

    def _check(self, psi: np.ndarray) -> None:
        tail, full = psi.shape[self.S_AXIS:], self.field_shape
        if tail not in (full, full[:4] + (full[4] // 2,) + full[5:]):
            raise ValueError(f"field tail shape {tail} != {full} or its packed checkerboard")

    @staticmethod
    def _at_s(s: int) -> tuple:
        """Indexer selecting fifth-dimension slice ``s`` on axis -7."""
        return (Ellipsis, s) + (slice(None),) * 6

    # -- fifth-dimension hopping -------------------------------------------
    def hop5(self, psi: np.ndarray) -> np.ndarray:
        """``L psi``: chirally projected 5th-dimension hopping with mass BC."""
        self._check(psi)
        first, last = self._at_s(0), self._at_s(-1)
        up = np.roll(psi, -1, axis=self.S_AXIS)  # psi(s+1)
        up[last] = -self.mass * psi[first]
        down = np.roll(psi, +1, axis=self.S_AXIS)  # psi(s-1)
        down[first] = -self.mass * psi[last]
        return g.proj_minus(up) + g.proj_plus(down)

    def hop5_dagger(self, psi: np.ndarray) -> np.ndarray:
        """``L^H psi``: projectors unchanged, shift directions swapped."""
        self._check(psi)
        conj_m = np.conjugate(self.mass)
        first, last = self._at_s(0), self._at_s(-1)
        up = np.roll(psi, -1, axis=self.S_AXIS)
        up[last] = -conj_m * psi[first]
        down = np.roll(psi, +1, axis=self.S_AXIS)
        down[first] = -conj_m * psi[last]
        return g.proj_minus(down) + g.proj_plus(up)

    # -- the Mobius kernels ----------------------------------------------------
    def d5_plus(self, psi: np.ndarray) -> np.ndarray:
        """``(b5 + c5 L) psi`` — the part the 4D Wilson kernel acts on."""
        return self.b5 * psi + self.c5 * self.hop5(psi)

    def d5_plus_dagger(self, psi: np.ndarray) -> np.ndarray:
        return np.conjugate(self.b5) * psi + np.conjugate(self.c5) * self.hop5_dagger(psi)

    def d5_minus(self, psi: np.ndarray) -> np.ndarray:
        """``(1 - L) psi``."""
        return psi - self.hop5(psi)

    def d5_minus_dagger(self, psi: np.ndarray) -> np.ndarray:
        return psi - self.hop5_dagger(psi)

    # -- full operator -----------------------------------------------------------
    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``D psi = D_W (b5 + c5 L) psi + (1 - L) psi``."""
        return self.wilson.apply(self.d5_plus(psi)) + self.d5_minus(psi)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        """``D^H psi = (b5 + c5 L)^H D_W^H psi + (1 - L)^H psi``."""
        return self.d5_plus_dagger(self.wilson.apply_dagger(psi)) + self.d5_minus_dagger(psi)

    def apply_normal(self, psi: np.ndarray) -> np.ndarray:
        """``D^H D psi`` for conjugate gradient on the normal equations."""
        return self.apply_dagger(self.apply(psi))

    def reflect(self, psi: np.ndarray) -> np.ndarray:
        """``gamma_5 R psi``: the 5D hermiticity conjugation."""
        return g.gamma5_mul(np.flip(psi, axis=self.S_AXIS))

    # -- accounting -----------------------------------------------------------------
    @property
    def n_5d_sites(self) -> int:
        return self.ls * self.geometry.volume

    def flops_per_normal_apply(self) -> float:
        """Model flops for one normal-operator application (paper convention)."""
        return self.n_5d_sites * mobius_dslash_flops_per_5d_site(self.ls)
