"""Regenerate the golden end-to-end pipeline correlators.

Run from the repository root::

    PYTHONPATH=src python tests/data/regenerate_golden.py

Only regenerate when a change *intends* to alter the physics output
(new action parameters, different contraction conventions).  For pure
refactors, kernel backends or instrumentation work the golden file must
not move — that is the point of ``tests/test_golden_pipeline.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.pipeline import GAPipeline
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng

# Frozen workload definition.  Matches the seeded reference workload of
# ``repro-trace record`` except for the tighter solver tolerance, which
# pins the iteration count and keeps the correlators reproducible to
# well below the comparison tolerance across BLAS builds.
DIMS = (4, 4, 4, 8)
SEED = 2026
SCALE = 0.3
MASS = 0.3
TOL = 1e-10

GOLDEN = Path(__file__).resolve().parent / "golden_pipeline_4x4x4x8.npz"


def compute() -> dict[str, np.ndarray]:
    gauge = GaugeField.random(Geometry(*DIMS), make_rng(SEED), scale=SCALE)
    m = GAPipeline(fermion="wilson", mass=MASS, tol=TOL).measure(gauge)
    return {
        "pion": np.asarray(m.pion),
        "proton": np.asarray(m.proton),
        "c_fh": np.asarray(m.c_fh),
        "g_eff": np.asarray(m.g_eff),
        "solver_iterations": np.asarray(m.solver_iterations),
    }


def main() -> None:
    arrays = compute()
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {GOLDEN}")
    for k, v in arrays.items():
        print(f"  {k}: shape={v.shape} dtype={v.dtype}")


if __name__ == "__main__":
    main()
