#!/usr/bin/env python
"""The Feynman-Hellmann method on a real lattice, with its exactness check.

Everything here is an actual computation: a quenched gauge configuration,
Wilson propagators, the FH propagator S_FH = D^{-1} Gamma S, the FH
correlator, and the non-perturbative verification that C_FH equals the
lambda-derivative of the two-point function from perturbed solves.

Run:  python examples/feynman_hellmann_lattice.py   (~2 minutes)
"""

from __future__ import annotations

import numpy as np

from repro.contractions import proton_correlator
from repro.contractions.propagator import Propagator, point_sources, solve_columns
from repro.core.feynman_hellmann import (
    SPIN_POLARIZED_PROJ,
    AxialInsertion4D,
    PerturbedOperator,
    compute_fh_wilson_pair,
    effective_coupling,
    fh_correlator,
)
from repro.dirac import WilsonOperator
from repro.lattice import GaugeField, Geometry, HeatbathUpdater
from repro.solvers import ConjugateGradient
from repro.utils.rng import make_rng
from repro.utils.tables import format_table


def perturbed_propagator(wilson, geom, solver, lam):
    """All 12 columns of (D - lam Gamma)^{-1} at the origin."""
    pert = PerturbedOperator(wilson, AxialInsertion4D(), lam)
    x, _ = solve_columns(pert, point_sources(geom, (0, 0, 0, 0)), solver, schur=False)
    return Propagator.from_columns(x, (0, 0, 0, 0))


def main() -> None:
    geom = Geometry(4, 4, 4, 8)
    gauge = GaugeField.hot(geom, make_rng(11))
    HeatbathUpdater(beta=6.0, rng=make_rng(12)).thermalize(gauge, 12)
    print(f"thermalized {geom} configuration, plaquette {gauge.plaquette():.4f}")

    wilson = WilsonOperator(gauge, mass=0.35)
    solver = ConjugateGradient(tol=1e-10, max_iter=6000)
    print("computing standard + Feynman-Hellmann propagators (24 solves)...")
    u, u_fh, stats = compute_fh_wilson_pair(wilson, solver=solver)

    c2 = proton_correlator(u, u)
    cfh = fh_correlator(u, u_fh, u, u_fh)
    geff = effective_coupling(cfh, c2)

    rows = [(t, f"{c2[t].real:+.3e}", f"{cfh[t].real:+.3e}", f"{geff[t]:+.4f}" if t < len(geff) else "-")
            for t in range(geom.lt)]
    print()
    print(format_table(
        ["t", "C_2pt(t)", "C_FH(t)", "g_eff(t)"],
        rows,
        title="Feynman-Hellmann correlators on one configuration",
    ))
    print("(a single configuration is noisy — the ensemble average of "
          "g_eff(t) is what converges to Z_A * g_A)")

    # --- the exactness check --------------------------------------------
    lam = 1e-4
    print(f"\nverifying dC/dlambda == C_FH with lambda = {lam} (24 more solves)...")
    u_p = perturbed_propagator(wilson, geom, solver, +lam)
    u_m = perturbed_propagator(wilson, geom, solver, -lam)
    c_plus = proton_correlator(u_p, u_m, projector=SPIN_POLARIZED_PROJ)
    c_minus = proton_correlator(u_m, u_p, projector=SPIN_POLARIZED_PROJ)
    fd = (c_plus - c_minus) / (2.0 * lam)
    dev = np.abs(fd - cfh).max() / np.abs(cfh).max()
    print(f"max relative deviation: {dev:.2e}  "
          f"(finite-difference floor ~ lambda^2 = {lam**2:.0e})")
    assert dev < 1e-3, "Feynman-Hellmann theorem violated!"
    print("the Feynman-Hellmann theorem holds non-perturbatively. QED.")


if __name__ == "__main__":
    main()
