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

from repro.io.container import FieldFile
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


@pytest.fixture(scope="module")
def measured_deflated():
    return golden.compute_deflated_campaign()


def test_deflated_campaign_deterministic_same_host(measured_deflated):
    """*Deterministic, same host*: the deflated block-CG campaign is
    seeded end to end (gauge, Lanczos, ordered solves), so two runs in
    this session must assemble byte-identical correlator containers —
    tolerance-free.  The bytes are *not* pinned across hosts: Lanczos
    Rayleigh-Ritz (``eigh``) and the BCGrQ thin-QR go through LAPACK,
    whose rounding is build-dependent; that contract is the portable
    test below."""
    again = golden.compute_deflated_campaign()
    assert np.array_equal(
        measured_deflated["defl_correlators"], again["defl_correlators"]
    )


def _decode(blob: np.ndarray, path) -> FieldFile:
    path.write_bytes(blob.tobytes())
    return FieldFile.load(path)


def test_deflated_campaign_correlators_portable(measured_deflated, reference, tmp_path):
    """*Portable*: on any BLAS build every decoded correlator agrees
    with the golden to the campaign's solver tolerance (relative to the
    correlator's scale).  Observed drift between hosts at tol 1e-7:
    3e-11 pion, 8e-11 proton, 1.6e-8 axial three-point."""
    tol = golden.DEFL_CAMPAIGN["tol"]
    got = _decode(measured_deflated["defl_correlators"], tmp_path / "got.lq")
    want = _decode(reference["defl_correlators"], tmp_path / "want.lq")
    assert got.names() == want.names()
    for name in want.names():
        scale = np.max(np.abs(want[name]))
        np.testing.assert_allclose(
            got[name], want[name], rtol=tol, atol=tol * scale, err_msg=name
        )


def test_deflated_campaign_iterations_pinned(measured_deflated, reference):
    """Per-task and total CG iteration counts of the deflated campaign
    are part of the frozen contract — the regression guard on the >=2x
    matvec win of BENCH_solvers.json."""
    assert list(measured_deflated["defl_task_names"]) == list(
        reference["defl_task_names"]
    )
    np.testing.assert_array_equal(
        measured_deflated["defl_task_iterations"],
        reference["defl_task_iterations"],
    )
    assert int(measured_deflated["defl_total_iterations"]) == int(
        reference["defl_total_iterations"]
    )


def test_golden_correlators_are_physical(reference):
    # The two-point functions must be real-positive at the source time —
    # a sanity guard against regenerating a broken golden file.
    assert reference["pion"][0] > 0
    assert np.real(reference["proton"][0]) > 0
    assert np.all(np.isfinite(reference["c_fh"]))
