"""Feynman-Hellmann propagators and correlators.

The method in one line: perturb the action with the current of interest,
``D -> D - lambda Gamma``; then the derivative of any correlator at
``lambda = 0`` replaces one quark propagator at a time with the
*Feynman-Hellmann propagator*

``S_FH = D^{-1} Gamma D^{-1} eta = D^{-1} (Gamma S)``

— one extra solve per quark line, independent of the source-sink
separation.  The correlator derivative

``C_FH(t) = dC_2pt(t; lambda) / dlambda |_0``

then gives the matrix element through the linear-in-``t`` growth of the
ratio ``R(t) = C_FH(t) / C_2pt(t)``:

``g_eff(t) = R(t+1) - R(t)  ->  g_A  as t -> infinity``.

The identity ``dC/dlambda = C_FH`` is exact at finite lattice spacing and
volume; the test suite verifies it against central finite differences of
fully perturbed solves.

For domain-wall fermions the axial current acts on the *physical* quark
field, i.e. on the 5th-dimension walls:

``(Gamma_5D psi)(0)    = P_+ gamma_3 gamma_5 P_- psi(0)``
``(Gamma_5D psi)(Ls-1) = P_- gamma_3 gamma_5 P_+ psi(Ls-1)``

which is the 5D matrix of ``qbar gamma_3 gamma_5 q`` under the boundary
field identification.  A local (non-conserved) current renormalizes with
a Z_A factor on real ensembles, exactly as in the paper's calculation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.contractions.baryons import proton_correlator_bilinear
from repro.contractions.propagator import (
    Propagator,
    boundary_project,
    point_sources,
    point_sources_5d,
    solve_columns,
)
from repro.dirac import gamma as g
from repro.dirac.mobius import MobiusOperator
from repro.dirac.wilson import WilsonOperator
from repro.solvers.cg import ConjugateGradient, SolveResult

__all__ = [
    "SPIN_POLARIZED_PROJ",
    "AxialInsertion4D",
    "AxialInsertion5D",
    "PerturbedOperator",
    "compute_fh_wilson_pair",
    "compute_fh_mobius_pair",
    "fh_correlator",
    "effective_coupling",
]

#: Spin matrix Sigma_3 = -i gamma_1 gamma_2 (z-polarization).
SIGMA3: np.ndarray = -1j * g.GAMMA[0] @ g.GAMMA[1]

#: Polarized positive-parity projector P = (1 + gamma_t)/2 Sigma_3 used to
#: pick out the z-polarized axial matrix element in the FH correlator.
SPIN_POLARIZED_PROJ: np.ndarray = 0.5 * (g.IDENTITY + g.GAMMA[3]) @ SIGMA3
SPIN_POLARIZED_PROJ.setflags(write=False)


class AxialInsertion4D:
    """Zero-momentum axial-current insertion ``Gamma = gamma_3 gamma_5``
    acting on 4D (Wilson) fermion fields at every site."""

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return g.spin_mul(g.AXIAL_GAMMA3, psi)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        return g.spin_mul(g.AXIAL_GAMMA3.conj().T, psi)


class AxialInsertion5D:
    """The same current on the physical (wall-projected) domain-wall quark.

    Acts only on the two 5th-dimension boundaries (axis
    :attr:`MobiusOperator.S_AXIS`, so a stack of fields is acted on field
    by field); see module docstring.
    """

    _M0: np.ndarray = g.P_PLUS @ g.AXIAL_GAMMA3 @ g.P_MINUS
    _M1: np.ndarray = g.P_MINUS @ g.AXIAL_GAMMA3 @ g.P_PLUS

    @staticmethod
    def _on_walls(m0: np.ndarray, m1: np.ndarray, psi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(psi)
        walls, src = (np.moveaxis(a, MobiusOperator.S_AXIS, 0) for a in (out, psi))
        walls[0] = g.spin_mul(m0, src[0])
        walls[-1] = g.spin_mul(m1, src[-1])
        return out

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self._on_walls(self._M0, self._M1, psi)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        return self._on_walls(self._M0.conj().T, self._M1.conj().T, psi)


@dataclass
class PerturbedOperator:
    """``D_lambda = D - lambda Gamma`` for finite-difference validation.

    Wraps any operator exposing ``apply``/``apply_dagger`` together with
    an insertion; used by the tests (and available to users) to verify
    the Feynman-Hellmann theorem non-perturbatively.
    """

    base: object  # WilsonOperator | MobiusOperator
    insertion: object  # AxialInsertion4D | AxialInsertion5D
    lam: float

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.base.apply(psi) - self.lam * self.insertion.apply(psi)

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        return self.base.apply_dagger(psi) - np.conjugate(self.lam) * self.insertion.apply_dagger(psi)


def compute_fh_wilson_pair(
    wilson: WilsonOperator,
    site: tuple[int, int, int, int] = (0, 0, 0, 0),
    solver: ConjugateGradient | None = None,
    insertion: AxialInsertion4D | None = None,
) -> tuple[Propagator, Propagator, list[SolveResult]]:
    """Standard + Feynman-Hellmann Wilson propagators from one source.

    Returns ``(S, S_FH, stats)`` where ``S_FH = D^{-1} Gamma S`` column by
    column — two solves per spin-colour instead of one; ``stats`` holds
    the 12 standard then the 12 FH per-column results.  The FH source of
    column k depends only on solution k, so each set is one 12-wide stack
    of the full operator (the pinned reference of ``GAPipeline``).
    """
    solver = solver or ConjugateGradient(tol=1e-8, max_iter=5000)
    insertion = insertion or AxialInsertion4D()
    sources = point_sources(wilson.geometry, site)
    x, stats = solve_columns(wilson, sources, solver, schur=False, width=12)
    del sources  # dead before the FH solve allocates
    x_fh, stats_fh = solve_columns(wilson, insertion.apply(x), solver, schur=False, width=12)
    return Propagator.from_columns(x, site), Propagator.from_columns(x_fh, site), stats + stats_fh


def compute_fh_mobius_pair(
    mobius: MobiusOperator,
    site: tuple[int, int, int, int] = (0, 0, 0, 0),
    solver: ConjugateGradient | None = None,
    insertion: AxialInsertion5D | None = None,
) -> tuple[Propagator, Propagator, list[SolveResult]]:
    """Standard + Feynman-Hellmann domain-wall propagators.

    The FH source is ``Gamma_5D psi_5`` built from the full 5D solution
    (not its boundary projection), keeping the theorem exact.  Two
    stacked solves, like :func:`compute_fh_wilson_pair` (``stats`` holds
    the 12 standard then the 12 FH per-column results), of the red-black
    system.
    """
    solver = solver or ConjugateGradient(tol=1e-8, max_iter=5000)
    insertion = insertion or AxialInsertion5D()
    psi5, stats = solve_columns(mobius, point_sources_5d(mobius, site), solver)
    psi5_fh, stats_fh = solve_columns(mobius, insertion.apply(psi5), solver)
    return (
        Propagator.from_columns(boundary_project(psi5), site),
        Propagator.from_columns(boundary_project(psi5_fh), site),
        stats + stats_fh,
    )


def fh_correlator(
    u: Propagator,
    u_fh: Propagator,
    d: Propagator,
    d_fh: Propagator,
    projector: np.ndarray | None = None,
    isovector: bool = True,
) -> np.ndarray:
    """The Feynman-Hellmann correlator ``C_FH(t) = dC_2pt/dlambda``.

    Linearity of the Wick contractions in each quark line turns the
    derivative into a sum over single-line replacements:

    ``C_FH = C(S_FH^u, S^u, S^d) + C(S^u, S_FH^u, S^d)
             - C(S^u, S^u, S_FH^d)``

    with the minus sign from the isovector (u - d) coupling of g_A.  Set
    ``isovector=False`` for the isoscalar (u + d, connected part only)
    combination.
    """
    proj = SPIN_POLARIZED_PROJ if projector is None else projector
    sign = -1.0 if isovector else +1.0
    c_u1 = proton_correlator_bilinear(u_fh, u, d, projector=proj)
    c_u2 = proton_correlator_bilinear(u, u_fh, d, projector=proj)
    c_d = proton_correlator_bilinear(u, u, d_fh, projector=proj)
    return c_u1 + c_u2 + sign * c_d


def effective_coupling(c_fh: np.ndarray, c_2pt: np.ndarray) -> np.ndarray:
    """``g_eff(t) = R(t+1) - R(t)`` with ``R = C_FH / C_2pt``.

    Approaches the coupling from below/above depending on the sign of
    the excited-state contamination; the approach is ``exp(-dE t)`` —
    this is exactly the curve of the paper's Fig. 1.  Returns ``Lt - 1``
    real values.
    """
    c_fh = np.asarray(c_fh)
    c_2pt = np.asarray(c_2pt)
    if c_fh.shape != c_2pt.shape:
        raise ValueError("correlator shapes differ")
    r = c_fh / c_2pt
    return np.real(r[1:] - r[:-1])
