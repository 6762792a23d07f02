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
    point_source,
    point_source_5d,
    solve_5d,
)
from repro.dirac import gamma as g
from repro.dirac.evenodd import EvenOddMobius
from repro.dirac.mobius import MobiusOperator
from repro.dirac.wilson import WilsonOperator
from repro.solvers.cg import ConjugateGradient, SolveResult, solve_normal_equations_batched

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

    Acts only on the two 5th-dimension boundaries; see module docstring.
    """

    _M0: np.ndarray = g.P_PLUS @ g.AXIAL_GAMMA3 @ g.P_MINUS
    _M1: np.ndarray = g.P_MINUS @ g.AXIAL_GAMMA3 @ g.P_PLUS

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(psi)
        out[0] = g.spin_mul(self._M0, psi[0])
        out[-1] = g.spin_mul(self._M1, psi[-1])
        return out

    def apply_dagger(self, psi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(psi)
        out[0] = g.spin_mul(self._M0.conj().T, psi[0])
        out[-1] = g.spin_mul(self._M1.conj().T, psi[-1])
        return out


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
    the 12 standard then the 12 FH per-column results.
    """
    solver = solver or ConjugateGradient(tol=1e-8, max_iter=5000)
    insertion = insertion or AxialInsertion4D()
    geom = wilson.geometry
    sources = np.stack(
        [point_source(geom, site, spin, color) for spin in range(4) for color in range(3)]
    )
    # The FH source of column k depends only on solution k: two 12-wide
    # stacked solves instead of 24 one-column ones.
    res = solve_normal_equations_batched(wilson.apply, wilson.apply_dagger, sources, solver)
    res_fh = solve_normal_equations_batched(
        wilson.apply, wilson.apply_dagger, insertion.apply(res.x), solver
    )
    return (
        Propagator.from_columns(res.x, site),
        Propagator.from_columns(res_fh.x, site),
        res.split() + res_fh.split(),
    )


def compute_fh_mobius_pair(
    mobius: MobiusOperator,
    site: tuple[int, int, int, int] = (0, 0, 0, 0),
    solver: ConjugateGradient | None = None,
    insertion: AxialInsertion5D | None = None,
    use_evenodd: bool = True,
) -> tuple[Propagator, Propagator, list[SolveResult]]:
    """Standard + Feynman-Hellmann domain-wall propagators.

    The FH source is ``Gamma_5D psi_5`` built from the full 5D solution
    (not its boundary projection), keeping the theorem exact.
    """
    solver = solver or ConjugateGradient(tol=1e-8, max_iter=5000)
    insertion = insertion or AxialInsertion5D()
    geom = mobius.geometry
    eo = EvenOddMobius(mobius) if use_evenodd else None
    data = np.zeros(geom.dims + (4, 4, 3, 3), dtype=np.complex128)
    data_fh = np.zeros_like(data)
    stats: list[SolveResult] = []
    for spin in range(4):
        for color in range(3):
            b = point_source_5d(mobius, site, spin, color)
            psi5, res = solve_5d(mobius, b, solver, eo)
            stats.append(res)
            psi5_fh, res_fh = solve_5d(mobius, insertion.apply(psi5), solver, eo)
            stats.append(res_fh)
            data[..., :, spin, :, color] = g.proj_minus(psi5[0]) + g.proj_plus(psi5[-1])
            data_fh[..., :, spin, :, color] = (
                g.proj_minus(psi5_fh[0]) + g.proj_plus(psi5_fh[-1])
            )
    return Propagator(data, site), Propagator(data_fh, site), stats


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
