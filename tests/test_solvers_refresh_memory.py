"""The reliable-update refresh frees the vectors it replaces.

A distributed rank's heap peaks at ``ReliableUpdateCG._run``'s double
refresh ``r_true = b - A x``.  The inner cycle's ``r``, ``p``, ``x_s``
and ``ap`` and the stale ``r_true`` are dead there, so the cycle unbinds
them before the operator allocates and subtracts into its answer.  The
solve's bits are guarded elsewhere (``test_solver_regression.py``,
``test_rucg_parity_across_transports``); this file guards the ceiling.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.dirac import WilsonOperator
from repro.dirac.evenodd_wilson import WilsonSchur
from repro.lattice import GaugeField, Geometry
from repro.solvers import ReliableUpdateCG
from repro.solvers.precision import SinglePrecision
from repro.utils.rng import make_rng


def test_refresh_heap_peak_in_rhs_vectors():
    """One ``_run`` on the 4^3x8 packed Schur system, k = 12 point
    sources, single-precision inner loop at ``rank_solve``'s ``delta``:
    its traced heap peak, counted in vectors of ``b``'s size (0.56 MiB
    here), read 8.52 while the refresh still held the dead cycle and
    6.27 once it frees it (tol 1e-3 to 1e-9, 1-3 refreshes).  The
    ceiling is 7: the measured 6.27 plus 0.73 of a vector for allocator
    and numpy-version drift, well short of the 8.52 it replaced."""
    gauge = GaugeField.random(Geometry(4, 4, 4, 8), make_rng(2026), scale=0.3)
    wilson = WilsonOperator(gauge, mass=0.3)
    eo = WilsonSchur.packed(wilson.kernel, wilson.hopping, wilson.mass)
    b = np.zeros((12,) + gauge.geometry.dims + (4, 3), dtype=np.complex128)
    for sc in range(12):
        b[(sc, 0, 0, 0, 0) + divmod(sc, 3)] = 1.0
    rhs = eo.schur_dagger_apply(eo.prepare_rhs(b))
    delta = float(np.sqrt(SinglePrecision().epsilon()))
    solver = ReliableUpdateCG(SinglePrecision(), tol=1e-6, delta=delta)
    solver._run(eo.schur_normal_apply, rhs)  # the kernel pools its workspaces

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solver._run(eo.schur_normal_apply, rhs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    assert res.converged.all() and res.reliable_updates >= 2
    assert peak <= 7.0 * rhs.nbytes, f"peak {peak / rhs.nbytes:.2f} vectors of b"
