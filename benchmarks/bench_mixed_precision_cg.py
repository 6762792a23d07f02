"""Section IV/VI: the red-black preconditioned double-half CG, for real.

This is a *real* solve of the Mobius domain-wall system on a small
lattice, comparing precision strategies: the double-half reliable-update
solver reaches the double-precision answer while storing its Krylov
vectors in 16-bit fixed point.  Flops are counted explicitly with the
paper's conventions (10-12 kflop per 5D site per normal-op application,
arithmetic intensity 1.8-1.9).
"""

from __future__ import annotations

import numpy as np

from repro.dirac import EvenOddMobius, MobiusOperator
from repro.dirac.flops import cg_blas_flops_per_site
from repro.lattice import GaugeField, Geometry
from repro.solvers import ConjugateGradient, PRECISIONS, ReliableUpdateCG
from repro.utils.rng import make_rng
from repro.utils.tables import format_table


def _setup():
    geom = Geometry(4, 4, 4, 8)
    gauge = GaugeField.random(geom, make_rng(41), scale=0.35)
    mob = MobiusOperator(gauge, ls=4, mass=0.1)
    eo = EvenOddMobius(mob)
    rng = make_rng(42)
    b = rng.normal(size=mob.field_shape) + 1j * rng.normal(size=mob.field_shape)
    rhs_e = eo.prepare_rhs(b)
    rhs_n = eo.schur_dagger_apply(rhs_e)
    return mob, eo, b, rhs_n


def test_mixed_precision_cg(benchmark, report):
    mob, eo, b, rhs_n = _setup()
    flops_matvec = eo.flops_per_normal_apply()
    blas = cg_blas_flops_per_site() * (mob.n_5d_sites // 2)  # even sites only
    tol = 1e-8

    results = {}
    for name in ("double", "single", "half"):
        solver = ReliableUpdateCG(
            inner_precision=PRECISIONS[name],
            tol=tol,
            max_iter=4000,
            flops_per_matvec=flops_matvec,
            blas_flops_per_iter=blas,
        )
        results[name] = solver.solve(eo.schur_normal_apply, rhs_n)

    # Wall-clock benchmark of the production (half) configuration.
    half_solver = ReliableUpdateCG(
        inner_precision=PRECISIONS["half"], tol=tol, max_iter=4000,
        flops_per_matvec=flops_matvec, blas_flops_per_iter=blas,
    )
    res = benchmark.pedantic(
        half_solver.solve, args=(eo.schur_normal_apply, rhs_n), rounds=1, iterations=1
    )

    rows = []
    for name, r in results.items():
        rows.append(
            (
                name,
                r.iterations,
                r.reliable_updates,
                f"{r.final_relres:.2e}",
                f"{r.flops/1e9:.2f}",
            )
        )
    table = format_table(
        ["inner precision", "iterations", "reliable updates", "relres", "model GFlop"],
        rows,
        title="Double-X reliable-update CG on the red-black Mobius system (4^4x8, Ls=4)",
    )
    per_site = flops_matvec / mob.n_5d_sites
    detail = (
        f"stencil flop / 5D site / normal-op: {per_site:.0f} "
        f"(paper: 10,000-12,000); storage bytes/complex: half "
        f"{PRECISIONS['half'].bytes_per_complex:.2f} vs double 16.00"
    )
    report("Mixed-precision solver (Sections IV/VI)", f"{table}\n\n{detail}")

    for name, r in results.items():
        assert r.converged, name
        assert r.final_relres < tol * 10
    # The half solver does pay extra iterations, but bounded.
    assert results["half"].iterations < 2.0 * results["double"].iterations + 20
    assert results["half"].reliable_updates >= results["double"].reliable_updates
    assert res.converged
