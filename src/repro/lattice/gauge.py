"""SU(3) gauge-field container with the plaquette and gauge transformations.

The link array has shape ``(4, Lx, Ly, Lz, Lt, 3, 3)``: ``U[mu][x]`` is the
parallel transporter from site ``x`` to ``x + mu_hat``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lattice import su3
from repro.lattice.geometry import Geometry
from repro.lattice.su3 import NC, dagger
from repro.utils.rng import make_rng

__all__ = ["GaugeField"]


@dataclass
class GaugeField:
    """Gauge links on a :class:`Geometry`.

    Create with :meth:`cold`, :meth:`hot` or :meth:`random` rather than
    the raw constructor.
    """

    geometry: Geometry
    u: np.ndarray  # (4, Lx, Ly, Lz, Lt, 3, 3) complex128

    def __post_init__(self) -> None:
        expected = (4,) + self.geometry.dims + (NC, NC)
        if self.u.shape != expected:
            raise ValueError(f"link array shape {self.u.shape} != expected {expected}")
        if self.u.dtype != np.complex128:
            self.u = self.u.astype(np.complex128)

    # -- constructors -----------------------------------------------------
    @classmethod
    def cold(cls, geometry: Geometry) -> "GaugeField":
        """Unit links (free field): the ordered, zero-temperature start."""
        return cls(geometry, su3.identity_links((4,) + geometry.dims))

    @classmethod
    def hot(cls, geometry: Geometry, rng=None) -> "GaugeField":
        """Fully random links (strong-coupling / disordered start)."""
        rng = make_rng(rng)
        return cls(geometry, su3.random_su3(rng, (4,) + geometry.dims, scale=1.0))

    @classmethod
    def random(cls, geometry: Geometry, rng=None, scale: float = 0.3) -> "GaugeField":
        """Weak-field random links ``exp(scale * H)`` near the identity.

        Useful as a nontrivial but smooth background for solver tests:
        the Dirac operator remains far from exceptional modes.
        """
        rng = make_rng(rng)
        return cls(geometry, su3.random_su3(rng, (4,) + geometry.dims, scale=scale))

    def copy(self) -> "GaugeField":
        return GaugeField(self.geometry, self.u.copy())

    # -- observables --------------------------------------------------------
    def plaquette_field(self, mu: int, nu: int) -> np.ndarray:
        """The ``mu``-``nu`` plaquette at every site (untraced).

        ``P = U_mu(x) U_nu(x+mu) U_mu(x+nu)^H U_nu(x)^H``.
        """
        if mu == nu:
            raise ValueError("plaquette requires mu != nu")
        g = self.geometry
        u_mu = self.u[mu]
        u_nu_xmu = g.shift(self.u[nu], mu, +1)
        u_mu_xnu = g.shift(self.u[mu], nu, +1)
        u_nu = self.u[nu]
        return u_mu @ u_nu_xmu @ dagger(u_mu_xnu) @ dagger(u_nu)

    def plaquette(self) -> float:
        """Average plaquette ``<Re tr P> / 3`` over all sites and planes.

        Equals 1 on a cold configuration and ~0 on a fully random one —
        the standard first observable validating any gauge-field code.
        """
        total = 0.0
        nplanes = 0
        for mu in range(4):
            for nu in range(mu + 1, 4):
                p = self.plaquette_field(mu, nu)
                total += float(np.trace(p, axis1=-2, axis2=-1).real.mean())
                nplanes += 1
        return total / (NC * nplanes)

    # -- symmetry operations -------------------------------------------------
    def gauge_transform(self, g_field: np.ndarray) -> "GaugeField":
        """Apply a local gauge transformation ``U_mu(x) -> g(x) U_mu(x) g(x+mu)^H``.

        Gauge-invariant observables (plaquette, Wilson action, hadron
        correlators) must be exactly unchanged — the key correctness
        property exercised by the test suite.
        """
        geom = self.geometry
        if g_field.shape != geom.dims + (NC, NC):
            raise ValueError(
                f"gauge transform field shape {g_field.shape} != {geom.dims + (NC, NC)}"
            )
        new_u = np.empty_like(self.u)
        for mu in range(4):
            g_xmu = geom.shift(g_field, mu, +1)
            new_u[mu] = g_field @ self.u[mu] @ dagger(g_xmu)
        return GaugeField(geom, new_u)

    def reunitarize(self) -> None:
        """Project every link back onto SU(3) in place."""
        self.u = su3.project_su3(self.u)

    # -- fermion boundary conditions -----------------------------------------
    def fermion_links(self, antiperiodic_t: bool = True) -> np.ndarray:
        """Links with fermionic boundary conditions folded in.

        Fermions are antiperiodic in time: multiply the time-direction
        links on the last time slice by -1, so a simple periodic
        ``np.roll`` stencil implements the correct boundary condition.
        Returns a copy; the gauge field itself is unmodified.
        """
        u = self.u.copy()
        if antiperiodic_t:
            u[3, :, :, :, -1] *= -1.0
        return u

    def unitarity_violation(self) -> float:
        """Largest deviation of any link from unitarity (diagnostic)."""
        return su3.unitarity_violation(self.u)
