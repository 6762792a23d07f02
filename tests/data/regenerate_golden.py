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

# Frozen deflated-campaign workload: the deflation-friendly regime of
# the solver regression harness (weak coupling, light mass, Lt=16),
# solved with the Chebyshev-deflated block-CG path.  The campaign is
# deterministic end to end — seeded gauge, seeded Lanczos, ordered
# solves — so on one host two runs give the same container bytes; across
# hosts (LAPACK builds round differently) the decoded correlators are
# pinned to the solver tolerance, and every task's CG iteration count
# exactly.
DEFL_CAMPAIGN = dict(
    dims=(2, 2, 2, 16),
    masses=(0.02,),
    seed=7,
    tol=1e-7,
    max_iter=30000,
    scale=0.05,
    include_seq=True,
    solver_mode="block",
    n_eigen=48,
    n_krylov=100,
    poly_degree=24,
    poly_window=(0.6, 66.0),
)


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


def compute_deflated_campaign() -> dict[str, np.ndarray]:
    """Run the frozen deflated block-CG campaign and capture its pins."""
    import glob
    import json
    import tempfile

    from repro.runtime import CampaignConfig, CampaignRuntime, build_ga_campaign

    with tempfile.TemporaryDirectory(prefix="repro-golden-defl-") as tmp:
        graph, spec = build_ga_campaign(**DEFL_CAMPAIGN)
        rt = CampaignRuntime(
            Path(tmp) / "wd",
            CampaignConfig(workers=2, policy="metaq", pool="thread"),
            spec=spec,
        )
        res = rt.run(graph)
        assert res.all_done, f"deflated golden campaign failed: {res.status}"
        blob = rt.store.path("assemble:correlators").read_bytes()
        per_task: dict[str, int] = {}
        for fname in glob.glob(str(rt.workdir / "telemetry*.jsonl")):
            with open(fname) as fh:
                for line in fh:
                    ev = json.loads(line)
                    if ev.get("ev") == "solve_done":
                        per_task[ev["task"]] = int(ev.get("iterations", 0))
    names = sorted(per_task)
    return {
        "defl_correlators": np.frombuffer(blob, dtype=np.uint8),
        "defl_task_names": np.array(names),
        "defl_task_iterations": np.array(
            [per_task[n] for n in names], dtype=np.int64
        ),
        "defl_total_iterations": np.int64(sum(per_task.values())),
    }


def main() -> None:
    arrays = {**compute(), **compute_deflated_campaign()}
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {GOLDEN}")
    for k, v in arrays.items():
        print(f"  {k}: shape={v.shape} dtype={v.dtype}")


if __name__ == "__main__":
    main()
