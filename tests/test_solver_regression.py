"""Iteration-count regression harness for the solver family.

Pins the iteration count of every production solver on a frozen seeded
workload against ``tests/data/solver_iteration_baseline.json``: any
pinned count growing more than 5% over the committed baseline fails.

Counts shrinking (a solver got *better*) passes but prints a reminder
to refresh the baseline.  To regenerate after an intentional
algorithmic change::

    PYTHONPATH=src python tests/test_solver_regression.py

The workload is the ill-conditioned regime (weak coupling, light mass,
long temporal extent): the seeded 2^3x16 Wilson operator at ``m=0.02``,
``scale=0.05``, tolerance 1e-7.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.dirac import WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.solvers import (
    BlockCG,
    ConjugateGradient,
    ReliableUpdateCG,
)
from repro.solvers.cg import (
    solve_normal_equations,
    solve_normal_equations_batched,
)
from repro.solvers.precision import DoublePrecision, HalfPrecision
from repro.utils.rng import make_rng

BASELINE = Path(__file__).resolve().parent / "data" / "solver_iteration_baseline.json"
MAX_GROWTH = 1.05

DIMS = (2, 2, 2, 16)
SEED = 7
SCALE = 0.05
MASS = 0.02
TOL = 1e-7


def measure() -> dict[str, int]:
    """Iteration/matvec counts of every solver on the frozen workload."""
    geom = Geometry(*DIMS)
    gauge = GaugeField.random(geom, make_rng(SEED), scale=SCALE)
    wilson = WilsonOperator(gauge, mass=MASS)
    shape = geom.dims + (4, 3)
    rng = make_rng(11)
    stack = np.stack(
        [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(4)]
    )
    b = stack[0]

    cg = ConjugateGradient(tol=TOL, max_iter=30000)
    block = BlockCG(tol=TOL, max_iter=30000)
    ru = ReliableUpdateCG(HalfPrecision(), tol=TOL, max_iter=30000)

    counts: dict[str, int] = {}
    res = solve_normal_equations(wilson.apply, wilson.apply_dagger, b, cg)
    counts["cg_percolumn_iters"] = res.iterations
    res = solve_normal_equations_batched(
        wilson.apply, wilson.apply_dagger, stack, cg
    )
    counts["cg_batched_iters"] = res.iterations
    res = solve_normal_equations_batched(
        wilson.apply, wilson.apply_dagger, stack, block
    )
    counts["blockcg_iters"] = res.iterations
    counts["blockcg_matvecs"] = res.matvecs
    res = solve_normal_equations(wilson.apply, wilson.apply_dagger, b, ru)
    counts["reliable_update_iters"] = res.iterations
    ru_dbl = ReliableUpdateCG(DoublePrecision(), tol=TOL, max_iter=30000)
    res = solve_normal_equations(wilson.apply, wilson.apply_dagger, b, ru_dbl)
    assert res.converged, "double-sloppy reliable-update solve diverged"
    counts["reliable_update_double_sloppy_iters"] = res.iterations
    return counts


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.fixture(scope="module")
def baseline():
    assert BASELINE.exists(), (
        f"missing {BASELINE}; run PYTHONPATH=src python "
        "tests/test_solver_regression.py"
    )
    return json.loads(BASELINE.read_text())


def test_no_solver_regressed(measured, baseline):
    grew = []
    for name, pinned in baseline.items():
        got = measured.get(name)
        assert got is not None, f"harness no longer measures {name!r}"
        if got > math.ceil(pinned * MAX_GROWTH):
            grew.append(f"{name}: {pinned} -> {got}")
    assert not grew, (
        "solver iteration counts regressed >5% over the committed "
        "baseline: " + "; ".join(grew)
    )


def test_no_unpinned_solvers(measured, baseline):
    """Every measured counter must be pinned — new solvers join the
    baseline, they do not run unguarded."""
    missing = set(measured) - set(baseline)
    assert not missing, (
        f"unpinned counters {sorted(missing)}; regenerate the baseline"
    )


def test_half_storage_growth_vs_double_sloppy_bounded(measured):
    """16-bit Krylov storage may cost at most 5% extra iterations over
    running the sloppy inner loop in full double precision."""
    half = measured["reliable_update_iters"]
    dbl = measured["reliable_update_double_sloppy_iters"]
    assert half <= math.ceil(dbl * MAX_GROWTH), (
        f"half-storage inner loop needs {half} iters vs {dbl} in double "
        f"(>{(MAX_GROWTH - 1) * 100:.0f}% growth)"
    )


def main() -> None:
    counts = measure()
    BASELINE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")
    for k, v in sorted(counts.items()):
        print(f"  {k}: {v}")


if __name__ == "__main__":
    main()
