"""Full-lattice Wilson gauge action and staples: the test-side oracles.

Nothing in ``src/`` computes the Wilson action or a full-lattice staple
sum — the heatbath builds its staples on packed planes of the updated
parity only (``lattice/heatbath.py::_staple``).  These two functions are
the dense definitions the gauge and heatbath tests check against.
"""

from __future__ import annotations

import numpy as np

from repro.lattice import GaugeField
from repro.lattice.su3 import dagger


def wilson_action(gauge: GaugeField, beta: float) -> float:
    """Wilson gauge action ``S = beta * sum_{x, mu<nu} (1 - Re tr P / 3)``."""
    return beta * 6.0 * gauge.geometry.volume * (1.0 - gauge.plaquette())


def staple(gauge: GaugeField, mu: int) -> np.ndarray:
    """Sum of the six staples around the ``mu`` link at every site.

    With this convention ``Re tr [U_mu(x) staple_mu(x)]`` summed over
    sites counts each plaquette in the mu planes twice (once per
    orientation), so the heatbath local action is ``-beta/3 Re tr (U A)``
    with ``A = staple``.
    """
    g, u = gauge.geometry, gauge.u
    total = np.zeros_like(u[mu])
    for nu in range(4):
        if nu == mu:
            continue
        u_nu_xmu = g.shift(u[nu], mu, +1)
        u_mu_xnu = g.shift(u[mu], nu, +1)
        # forward (upper) staple: U_nu(x+mu) U_mu(x+nu)^H U_nu(x)^H
        total += u_nu_xmu @ dagger(u_mu_xnu) @ dagger(u[nu])
        # backward (lower) staple: U_nu(x+mu-nu)^H U_mu(x-nu)^H U_nu(x-nu)
        u_nu_xmu_mnu = g.shift(u_nu_xmu, nu, -1)
        u_mu_mnu = g.shift(u[mu], nu, -1)
        u_nu_mnu = g.shift(u[nu], nu, -1)
        total += dagger(u_nu_xmu_mnu) @ dagger(u_mu_mnu) @ u_nu_mnu
    return total
