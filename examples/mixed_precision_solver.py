#!/usr/bin/env python
"""The production solver, dissected: double vs double-single vs double-half.

Solves the red-black preconditioned Mobius domain-wall system on a real
gauge background with three reliable-update configurations and shows
that 16-bit fixed-point storage reaches the double-precision answer.

Run:  python examples/mixed_precision_solver.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.dirac import EvenOddMobius, MobiusOperator
from repro.dirac.flops import cg_blas_flops_per_site
from repro.lattice import GaugeField, Geometry
from repro.solvers import ConjugateGradient, PRECISIONS, ReliableUpdateCG, solve_normal_equations
from repro.utils.rng import make_rng
from repro.utils.tables import format_table


def main() -> None:
    geom = Geometry(4, 4, 4, 8)
    gauge = GaugeField.random(geom, make_rng(21), scale=0.35)
    mobius = MobiusOperator(gauge, ls=6, mass=0.1)
    eo = EvenOddMobius(mobius)
    rng = make_rng(22)
    b = rng.normal(size=mobius.field_shape) + 1j * rng.normal(size=mobius.field_shape)
    rhs_e = eo.prepare_rhs(b)
    rhs_n = eo.schur_dagger_apply(rhs_e)
    flops_matvec = eo.flops_per_normal_apply()
    blas = cg_blas_flops_per_site() * (mobius.n_5d_sites // 2)  # even sites only

    rows = []
    solutions = {}
    for name in ("double", "single", "half"):
        solver = ReliableUpdateCG(
            inner_precision=PRECISIONS[name],
            tol=1e-8,
            max_iter=6000,
            flops_per_matvec=flops_matvec,
            blas_flops_per_iter=blas,
        )
        t0 = time.perf_counter()
        res = solver.solve(eo.schur_normal_apply, rhs_n)
        dt = time.perf_counter() - t0
        x_full = eo.reconstruct(res.x, b)
        true_res = np.linalg.norm((mobius.apply(x_full) - b).ravel()) / np.linalg.norm(b.ravel())
        solutions[name] = x_full
        rows.append(
            (
                f"double-{name}",
                res.iterations,
                res.reliable_updates,
                f"{true_res:.2e}",
                f"{res.flops/1e9:.1f}",
                f"{dt:.1f}",
            )
        )

    print(format_table(
        ["solver", "iterations", "reliable updates", "full-system relres",
         "model GFlop", "wall (s)"],
        rows,
        title="red-black Mobius CGNE on 4^3 x 8 x Ls=6, tol 1e-8",
    ))

    drift = np.abs(solutions["half"] - solutions["double"]).max()
    print(f"\nmax |x_half - x_double| = {drift:.2e} — the 16-bit storage "
          f"solver lands on the double-precision solution.")
    print(f"storage per complex number: half "
          f"{PRECISIONS['half'].bytes_per_complex:.2f} B vs double 16 B "
          f"(the ~4x bandwidth win behind the paper's solver).")

    # For reference: the unpreconditioned solve costs ~2x the iterations.
    cg = ConjugateGradient(tol=1e-8, max_iter=8000)
    full = solve_normal_equations(mobius.apply, mobius.apply_dagger, b, cg)
    print(f"\nunpreconditioned CGNE for comparison: {full.iterations} iterations "
          f"(red-black halves both the system and the count).")


if __name__ == "__main__":
    main()
