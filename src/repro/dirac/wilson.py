"""The Wilson Dirac operator — the 4D kernel of the domain-wall stencil.

``D psi(x) = (m + 4) psi(x)
            - 1/2 sum_mu [ (1 - gamma_mu) U_mu(x)       psi(x + mu)
                         + (1 + gamma_mu) U_mu(x-mu)^H  psi(x - mu) ]``

with periodic spatial and antiperiodic temporal fermion boundary
conditions (folded into the time links).  The operator is
gamma_5-hermitian: ``D^H = gamma_5 D gamma_5`` (tested).

Fields may carry arbitrary leading axes (e.g. the fifth dimension of the
domain-wall operator, or a stack of right-hand sides in the multi-RHS
solver path); the four site axes are always the last six axes minus spin
and colour, i.e. shape ``(..., Lx, Ly, Lz, Lt, 4, 3)``.

The hopping term itself is computed by the spin-projected
:class:`~repro.dirac.kernels.HalfSpinorKernel`; the tests hold it
against the ``reference`` einsum stencil.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.dirac.kernels import HalfSpinorKernel
from repro.dirac.flops import wilson_dslash_flops_per_site
from repro.lattice.gauge import GaugeField

__all__ = ["WilsonOperator"]


class WilsonOperator:
    """Wilson Dirac operator on a fixed gauge background.

    Parameters
    ----------
    gauge:
        The gauge field (links are copied with fermion boundary
        conditions applied; later mutation of ``gauge`` does not affect
        this operator).
    mass:
        Bare quark mass ``m``.  The domain-wall kernel uses ``m = -M5``.
    antiperiodic_t:
        Apply antiperiodic temporal boundary conditions (default, the
        physical choice for fermions at finite temporal extent).

    ``kernel`` is the :class:`~repro.dirac.kernels.HalfSpinorKernel` the
    hopping term runs on (a test may assign the ``ReferenceKernel``
    oracle in its place); its double full layout is built here.
    """

    def __init__(self, gauge: GaugeField, mass: float, antiperiodic_t: bool = True):
        self.geometry = gauge.geometry
        self.mass = float(mass)
        self.u = gauge.fermion_links(antiperiodic_t=antiperiodic_t)
        self.kernel = HalfSpinorKernel(self.u, self.geometry)
        self.kernel.layout()

    @property
    def u_dag(self) -> np.ndarray:
        """The adjoint links ``U_mu(x)^H``, computed on access (never stored)."""
        return np.conjugate(np.swapaxes(self.u, -1, -2))

    # -- shape handling ------------------------------------------------------
    def _flatten(self, psi: np.ndarray, packed: bool = False) -> np.ndarray:
        dims = self.geometry.dims
        if packed:  # one checkerboard, folded pairwise along t
            dims = dims[:3] + (dims[3] // 2,)
        tail = dims + (4, 3)
        if psi.shape[-6:] != tail:
            raise ValueError(f"field tail shape {psi.shape[-6:]} != lattice {tail}")
        return psi.reshape((-1,) + tail)

    # -- the stencil -----------------------------------------------------------
    def hopping(
        self, psi: np.ndarray, parity: int | None = None, *, dagger: bool = False, diag=None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The hopping term ``H psi`` — ``H^H psi`` with ``dagger``, plus
        ``diag * psi`` with ``diag``, all in the kernel's one pass.

        ``H`` strictly couples opposite checkerboard parities — the
        property exploited by the red-black preconditioning.  With
        ``parity``, ``psi`` holds that parity's sites in the kernel's
        checkerboard-packed layout (``kernel.pack``) and the result the
        other parity's.  ``out`` (``psi`` allowed) is C-contiguous.

        Every application opens an :mod:`repro.obs` span attributed
        with the LQCD-convention flop count (1320/site/RHS) and the
        bytes of one stencil pass (field in + out once per RHS, the
        links of the sites visited once per application, in the dtype
        the kernel answered in: complex64 planes are half the double
        ones).  The result has ``psi``'s dtype where the kernel has a
        complex64 path, else double.
        """
        phi = self._flatten(psi, packed=parity is not None)
        with obs.span(
            f"dslash.{self.kernel.name}",
            flops=float(phi.size // 12 * wilson_dslash_flops_per_site()),
            lead=phi.shape[0],
        ) as sp:
            kw = {} if parity is None else {"parity": parity}
            if out is not None:
                kw["out"] = out.reshape(phi.shape)
            res = self.kernel.hopping(phi, dagger=dagger, diag=diag, **kw)
            links = 2 * self.u.nbytes * res.itemsize // self.u.itemsize
            sp.add_bytes(phi.nbytes + res.nbytes + (links if parity is None else links // 2))
        return res.reshape(psi.shape)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``D psi``: the mass term joins the stencil pass."""
        return self.hopping(psi, diag=self.mass + 4.0)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        """``D^H psi = gamma_5 D gamma_5 psi``, likewise one pass."""
        return self.hopping(psi, dagger=True, diag=self.mass + 4.0)

    def apply_normal(self, psi: np.ndarray) -> np.ndarray:
        """``D^H D psi`` (CG's operator), ``D^H`` into ``D psi``'s output."""
        t = self.apply(psi)
        return self.hopping(t, dagger=True, diag=self.mass + 4.0, out=t)

    # -- accounting --------------------------------------------------------------
    def flops_per_apply(self, psi_shape: tuple[int, ...]) -> float:
        """Model flops for one ``apply`` on a field of the given shape."""
        lead = int(np.prod(psi_shape[:-6], dtype=np.int64)) if len(psi_shape) > 6 else 1
        return float(lead * self.geometry.volume * wilson_dslash_flops_per_site())
