#!/usr/bin/env python
"""The neutron-lifetime pipeline: Fig. 1 end to end.

Draws a calibrated synthetic a09m310-like ensemble, extracts g_A with
the Feynman-Hellmann analysis and with the traditional fixed-separation
method (given 10x the statistics), and propagates the FH result through
Eq. (1) to the Standard-Model neutron lifetime.  Closes with the
Section III error budget: how more samples shrink each of the three
dominant uncertainties.

Run:  python examples/neutron_lifetime.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import fit_traditional_ensemble, neutron_lifetime, signal_to_noise, fit_stn_decay
from repro.analysis.ga_fit import fit_fh_joint, g_eff_jackknife
from repro.analysis.lifetime import TAU_BEAM, TAU_TRAP
from repro.core import SyntheticGAEnsemble
from repro.core.error_budget import measure_error_budget
from repro.utils.tables import format_table


def main() -> None:
    ens = SyntheticGAEnsemble(rng=13)
    n_samples = 784
    c2, cfh = ens.sample_correlators(n_samples)

    # --- the exponential signal-to-noise problem -----------------------
    stn = signal_to_noise(c2)
    rate, _ = fit_stn_decay(stn, t_min=1, t_max=12)
    print(f"nucleon StN decays as exp(-{rate:.3f} t)  "
          f"[Parisi-Lepage: m_N - 3/2 m_pi = {ens.spec.stn_exponent:.3f}]")

    # --- the Feynman-Hellmann effective coupling ------------------------
    center, reps = g_eff_jackknife(c2, cfh)
    err = np.sqrt(np.maximum(0.0, (reps.shape[0] - 1) * reps.var(axis=0)))
    rows = [(t, f"{center[t]:+.4f} +- {err[t]:.4f}") for t in range(12)]
    print()
    print(format_table(["t", "g_eff(t)"], rows,
                       title=f"Fig. 1: effective axial coupling, {n_samples} samples"))

    fh = fit_fh_joint(c2, cfh, t_min=1, t_max=10)
    trad = fit_traditional_ensemble(ens.sample_traditional(10 * n_samples))
    print()
    print(f"FH analysis          : {fh}")
    print(f"traditional (10x N)  : {trad}")
    print(f"injected truth       : g_A = {ens.spec.g_a}")

    # --- Eq. (1) ---------------------------------------------------------
    pred = neutron_lifetime(fh.g_a, fh.error)
    print()
    print(f"Eq. (1):  {pred}")
    print(f"  vs trap experiment 879.4(6) s : {pred.sigma_from(TAU_TRAP):.1f} sigma")
    print(f"  vs beam experiment 888(2) s   : {pred.sigma_from(TAU_BEAM):.1f} sigma")
    print()
    goal = neutron_lifetime(fh.g_a, fh.g_a * 0.002)
    print(f"at the 0.2% goal the same central value sits {goal.sigma_from(TAU_TRAP):.1f} sigma "
          f"from the trap and {goal.sigma_from(TAU_BEAM):.1f} sigma from the beam lifetime — "
          f"telling them apart is the paper's target.")

    # --- Section III: the error budget vs calculation time ---------------
    replicas = 4
    rows = []
    for n in (196, 784, 3136):
        budgets = [measure_error_budget(n, rng=seed) for seed in range(replicas)]
        rows.append(
            (
                n,
                f"{np.mean([b.g_a for b in budgets]):.4f}",
                f"{np.mean([b.statistical for b in budgets]):.4f}",
                f"{np.mean([b.excited_state for b in budgets]):.4f}",
                f"{np.mean([b.extrapolation for b in budgets]):.4f}",
                f"{100 * np.mean([b.relative_total for b in budgets]):.2f}%",
            )
        )
    print()
    print(format_table(
        ["samples", "g_A", "statistical", "excited-state", "extrapolation", "total (rel)"],
        rows,
        title=f"Section III: the g_A error budget vs calculation time (mean of {replicas} replicas)",
    ))


if __name__ == "__main__":
    main()
