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

The hopping term itself is computed by a pluggable *kernel backend*
(:mod:`repro.dirac.kernels`): the ``reference`` einsum stencil, the
spin-projected ``halfspinor`` kernels, or whichever backend a
:class:`repro.autotune.KernelAutotuner` measured fastest on this volume.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.dirac import gamma as g
from repro.dirac import kernels as _kernels
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
    backend:
        Dslash backend name, or ``"auto"``: resolve through ``tuner``
        when one is supplied, else use the registry default
        (:data:`repro.dirac.kernels.DEFAULT_BACKEND`).
    tuner:
        Optional :class:`repro.autotune.KernelAutotuner`.  With
        ``backend="auto"`` every registered backend is timed on this
        volume at first encounter and the winner is cached in the
        tuner's persistent tunecache.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        antiperiodic_t: bool = True,
        backend: str = "auto",
        tuner=None,
    ):
        self.geometry = gauge.geometry
        self.mass = float(mass)
        self.u = gauge.fermion_links(antiperiodic_t=antiperiodic_t)
        self.u_dag = np.conjugate(np.swapaxes(self.u, -1, -2))
        self._kernels: dict[str, _kernels.DslashKernel] = {}
        if backend == "auto":
            if tuner is not None:
                backend = _kernels.select_backend(tuner, self.u, self.u_dag, self.geometry)
            else:
                backend = _kernels.DEFAULT_BACKEND
        self.set_backend(backend)

    # -- backend routing -----------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the dslash backend currently in use."""
        return self._kernel.name

    def set_backend(self, name: str) -> None:
        """Switch the hopping term to a registered backend.

        Instantiated backends are kept, so switching back is free (the
        QUDA analogue: tuned kernel instances persist in the tunecache).
        """
        if name not in self._kernels:
            self._kernels[name] = _kernels.make_kernel(name, self.u, self.u_dag, self.geometry)
        self._kernel = self._kernels[name]

    @property
    def kernel(self) -> _kernels.DslashKernel:
        """The active kernel instance (exposes workspace/statistics)."""
        return self._kernel

    # -- shape handling ------------------------------------------------------
    def _flatten(self, psi: np.ndarray, packed: bool = False) -> tuple[np.ndarray, tuple[int, ...]]:
        dims = self.geometry.dims
        if packed:  # one checkerboard, folded pairwise along t
            dims = dims[:3] + (dims[3] // 2,)
        expected_tail = dims + (4, 3)
        if psi.shape[-6:] != expected_tail:
            raise ValueError(
                f"field tail shape {psi.shape[-6:]} != lattice {expected_tail}"
            )
        lead = psi.shape[:-6]
        return psi.reshape((-1,) + expected_tail), lead

    # -- the stencil -----------------------------------------------------------
    def hopping(self, psi: np.ndarray, parity: int | None = None) -> np.ndarray:
        """The pure hopping term ``H psi`` (no mass/diagonal piece).

        ``H`` strictly couples opposite checkerboard parities — the
        property exploited by the red-black preconditioning.  With
        ``parity``, ``psi`` holds that parity's sites in the active
        kernel's checkerboard-packed layout (``kernel.pack``) and the
        result the other parity's: half the sites per application.

        Every application opens an :mod:`repro.obs` span attributed
        with the LQCD-convention flop count (1320/site/RHS) and the
        bytes of one stencil pass (field in + out once per RHS, the
        links of the sites visited once per application, in the dtype
        the kernel answered in: complex64 planes are half the double
        ones).  The result has ``psi``'s dtype where the kernel has a
        complex64 path, else double.
        """
        phi, _ = self._flatten(psi, packed=parity is not None)
        with obs.span(
            f"dslash.{self._kernel.name}",
            flops=float(phi.size // 12 * wilson_dslash_flops_per_site()),
            lead=phi.shape[0],
        ) as sp:
            if parity is None:
                out = self._kernel.hopping(phi)
            else:
                out = self._kernel.hopping(phi, parity=parity)
            links = (self.u.nbytes + self.u_dag.nbytes) * out.itemsize // self.u.itemsize
            sp.add_bytes(phi.nbytes + out.nbytes + (links if parity is None else links // 2))
        return out.reshape(psi.shape)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``D psi``."""
        out = self.hopping(psi)
        out += (self.mass + 4.0) * psi
        return out

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        """``D^H psi`` via gamma_5-hermiticity."""
        out = self.apply(g.gamma5_mul(psi))
        return g.gamma5_mul(out, out=out)

    def apply_normal(self, psi: np.ndarray) -> np.ndarray:
        """``D^H D psi`` — the hermitian positive operator CG inverts."""
        return self.apply_dagger(self.apply(psi))

    # -- accounting --------------------------------------------------------------
    def flops_per_apply(self, psi_shape: tuple[int, ...]) -> float:
        """Model flops for one ``apply`` on a field of the given shape."""
        lead = int(np.prod(psi_shape[:-6], dtype=np.int64)) if len(psi_shape) > 6 else 1
        return float(lead * self.geometry.volume * wilson_dslash_flops_per_site())
