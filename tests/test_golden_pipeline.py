"""Golden-file regression for the end-to-end seeded measurement.

Pins the proton two-point and Feynman-Hellmann correlators of the
seeded 4^3x8 Wilson pipeline against ``tests/data/
golden_pipeline_4x4x4x8.npz``.  Any change to the dslash kernels, the
solver, the FH machinery or the contractions that moves the physics
output beyond roundoff fails here.

To regenerate after an *intentional* physics change::

    PYTHONPATH=src python tests/data/regenerate_golden.py

(see the header of that script for when regeneration is legitimate).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.data import regenerate_golden as golden

# Tight enough to catch any algorithmic change; loose enough to absorb
# BLAS reduction-order differences across builds at solver tol 1e-10.
RTOL = 1e-7


@pytest.fixture(scope="module")
def measured():
    return golden.compute()


@pytest.fixture(scope="module")
def reference():
    assert golden.GOLDEN.exists(), (
        f"missing golden file {golden.GOLDEN}; run "
        "PYTHONPATH=src python tests/data/regenerate_golden.py"
    )
    with np.load(golden.GOLDEN) as f:
        return {k: f[k] for k in f.files}


@pytest.mark.parametrize("key", ["pion", "proton", "c_fh", "g_eff"])
def test_correlator_matches_golden(measured, reference, key):
    got, want = measured[key], reference[key]
    assert got.shape == want.shape
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


def test_solver_work_is_reproducible(measured, reference):
    """Iteration counts at tol 1e-10 are part of the frozen contract."""
    assert int(measured["solver_iterations"]) == int(reference["solver_iterations"])


def test_golden_correlators_are_physical(reference):
    # The two-point functions must be real-positive at the source time —
    # a sanity guard against regenerating a broken golden file.
    assert reference["pion"][0] > 0
    assert np.real(reference["proton"][0]) > 0
    assert np.all(np.isfinite(reference["c_fh"]))
