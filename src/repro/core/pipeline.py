"""End-to-end per-configuration g_A measurement (the Fig. 2 workflow).

One configuration's worth of the paper's pipeline: given a gauge field,
solve the propagators (the 97% GPU part), form the Feynman-Hellmann pair,
contract (the 3% CPU part) and return the correlators.  The
:mod:`repro.workflow` package schedules many of these onto the simulated
machines; this module is the *physics* of one task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.contractions import pion_correlator, proton_correlator
from repro.core.feynman_hellmann import (
    compute_fh_mobius_pair,
    compute_fh_wilson_pair,
    effective_coupling,
    fh_correlator,
)
from repro.dirac.mobius import MobiusOperator
from repro.dirac.wilson import WilsonOperator
from repro.lattice.gauge import GaugeField
from repro.solvers.cg import ConjugateGradient

__all__ = ["GAPipeline", "ConfigMeasurement"]


@dataclass(frozen=True)
class ConfigMeasurement:
    """Correlators and accounting from one gauge configuration."""

    pion: np.ndarray
    proton: np.ndarray
    c_fh: np.ndarray
    g_eff: np.ndarray
    solver_iterations: int
    solver_flops: float

    @property
    def lt(self) -> int:
        return len(self.pion)


@dataclass
class GAPipeline:
    """Configuration-level g_A measurement.

    Parameters
    ----------
    fermion:
        ``"mobius"`` (the paper's discretization) or ``"wilson"`` (an
        ``Ls``-times cheaper kernel with identical method structure —
        useful for quick studies and exactness tests).
    mass:
        Quark mass (degenerate u/d, as in the isovector calculation).
    ls, m5, b5, c5:
        Mobius parameters (ignored for Wilson).
    tol:
        Solver tolerance.
    source:
        4D source site.
    """

    fermion: str = "mobius"
    mass: float = 0.1
    ls: int = 8
    m5: float = 1.8
    b5: float = 1.5
    c5: float = 0.5
    tol: float = 1e-8
    max_iter: int = 10_000
    source: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self) -> None:
        if self.fermion not in ("mobius", "wilson"):
            raise ValueError(f"fermion must be 'mobius' or 'wilson', got {self.fermion}")

    def measure(self, gauge: GaugeField) -> ConfigMeasurement:
        """Run the full measurement on one configuration."""
        from repro.dirac.flops import cg_blas_flops_per_site, wilson_dslash_flops_per_site

        if self.fermion == "mobius":
            op = MobiusOperator(
                gauge, ls=self.ls, mass=self.mass, m5=self.m5, b5=self.b5, c5=self.c5
            )
            flops_per_matvec = op.flops_per_normal_apply()
            # BLAS-1 on the even sites a Krylov vector of the Schur system holds
            blas = cg_blas_flops_per_site() * (op.n_5d_sites // 2)
            solver = ConjugateGradient(
                tol=self.tol,
                max_iter=self.max_iter,
                flops_per_matvec=flops_per_matvec,
                blas_flops_per_iter=blas,
            )
            u, u_fh, stats = compute_fh_mobius_pair(op, site=self.source, solver=solver)
        else:
            op = WilsonOperator(gauge, mass=self.mass)
            volume = gauge.geometry.volume
            solver = ConjugateGradient(
                tol=self.tol,
                max_iter=self.max_iter,
                flops_per_matvec=2.0 * wilson_dslash_flops_per_site() * volume,
                blas_flops_per_iter=cg_blas_flops_per_site() * volume,
            )
            u, u_fh, stats = compute_fh_wilson_pair(op, site=self.source, solver=solver)
        del op  # links and stencil workspace are dead before the contractions
        # Degenerate light quarks: the d-quark propagators equal the u ones.
        pion = pion_correlator(u)
        proton = proton_correlator(u, u)
        c_fh = fh_correlator(u, u_fh, u, u_fh)
        g_eff = effective_coupling(c_fh, proton)
        iters = sum(s.iterations for s in stats)
        flops = sum(s.flops for s in stats)
        return ConfigMeasurement(
            pion=np.asarray(pion, dtype=np.float64),
            proton=proton,
            c_fh=c_fh,
            g_eff=g_eff,
            solver_iterations=iters,
            solver_flops=flops,
        )
