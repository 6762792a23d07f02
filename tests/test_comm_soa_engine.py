"""Compiled SoA engine as the distributed dslash executor.

The ``engine="compiled"`` tier routes every rank's stencil through the
SoA interior/surface kernels with ghost-face pack/unpack (interpreted
bodies where numba is absent — same expressions, so same bits).  These
tests pin the engine's contract, and each guarantee is one of the two
kinds ``comm/distributed.py``'s module docstring names:

* hopping equals the *serial* SoA kernel on every rank grid and halo
  policy, including the minimal-overlap regime where the local extent
  is exactly 2 along every partitioned axis — *exact on any host* (the
  same per-site float chain, ghosts produced by the same expression
  lines on the sender, no reduction);
* Wilson apply and the Schur ops are invariant under the rank grid
  (single-rank compiled == serial-compiled execution) — *exact on any
  host*, they are elementwise passes around that hopping;
* CG and reliable-update CG answers are invariant under ranks —
  *deterministic, same host*: the fixed-order slice reduction makes the
  iterates rank-count-invariant for any BLAS, but each partial is a
  ``vdot``, so the bits differ between BLAS builds;
* the overlap precondition raises one structured error — naming the
  offending axis — from both the construction-time and the
  ``set_policy`` code path;
* on numpy-only hosts the interpreted kernel bodies are the executables
  behind the compiled engine (the CI guard for the without-numba leg).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.distributed import (
    ENGINES,
    DecompRuntime,
    DistributedCG,
    DistributedEvenOddOperator,
    DistributedWilsonOperator,
)
from repro.comm.transports import dist_fieldwise
from repro.dirac.kernels import NUMBA_AVAILABLE, SoAHalfSpinorKernel
from repro.dirac.kernels import soa_dist
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng

MASS = 0.12
POLICIES = ("blocking", "pairwise", "overlap")


def _background(dims, n_rhs=2, seed=21):
    geom = Geometry(*dims)
    gauge = GaugeField.random(geom, make_rng(seed), scale=0.35)
    rng = np.random.default_rng(5)
    shape = (n_rhs,) + geom.dims + (4, 3)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return gauge, psi


def _serial_soa(gauge):
    u = gauge.fermion_links(antiperiodic_t=True)
    u_dag = np.conjugate(np.swapaxes(u, -1, -2))
    return SoAHalfSpinorKernel(u, u_dag, gauge.geometry)


def test_engines_constant():
    assert ENGINES == ("interpreted", "compiled")


@pytest.mark.parametrize("ranks", [2, 4])
@pytest.mark.parametrize("policy", POLICIES)
def test_hopping_bitwise_vs_serial_soa(ranks, policy):
    gauge, psi = _background((8, 4, 2, 8))
    serial = _serial_soa(gauge)
    with DistributedWilsonOperator(
        gauge, MASS, ranks=ranks, engine="compiled", policy=policy, timeout=60.0
    ) as op:
        assert op.engine == "compiled"
        assert op.backend == "numba_soa"
        got = op.hopping(psi)
    assert np.array_equal(got, serial.hopping(psi))


@pytest.mark.parametrize("policy", POLICIES)
def test_compiled_engine_parity_across_transports(transport, policy):
    """The compiled SoA engine equals the serial kernel on every executed
    transport (exact on any host) — threads/shm/loopback/mpi all drive
    the same kernels."""
    gauge, psi = _background((8, 4, 2, 8))
    serial = _serial_soa(gauge)
    got = dist_fieldwise(
        "hopping", gauge, MASS, psi, transport=transport, ranks=2,
        policy=policy, engine="compiled",
    )
    assert np.array_equal(got, serial.hopping(psi))


def test_multi_axis_grid_bitwise():
    """Two partitioned axes: corner-free face exchange still exact (on
    any host)."""
    gauge, psi = _background((4, 6, 2, 8))
    serial = _serial_soa(gauge)
    with DistributedWilsonOperator(
        gauge, MASS, grid=(2, 3, 1, 1), engine="compiled",
        policy="overlap", timeout=60.0,
    ) as op:
        assert np.array_equal(op.hopping(psi), serial.hopping(psi))


def test_apply_and_schur_rank_invariant():
    """Wilson apply and Schur ops: multi-rank == single-rank compiled
    (exact on any host: elementwise around the hopping, no reduction)."""
    gauge, psi = _background((4, 6, 2, 8))
    geom = gauge.geometry
    mask = geom.parity_mask(0)[..., None, None]
    ref = {}
    for ranks in (1, 2):
        with DistributedEvenOddOperator(
            gauge, MASS, ranks=ranks, engine="compiled", timeout=60.0
        ) as op:
            ref[ranks] = (
                op.apply(psi),
                op.schur_apply(psi * mask),
                op.schur_dagger_apply(psi * mask),
                op.prepare_rhs(psi),
            )
    for a, b in zip(ref[1], ref[2]):
        assert np.array_equal(a, b)
    # the single-rank compiled apply is the serial SoA formula
    serial = _serial_soa(gauge)
    assert np.array_equal(ref[1][0], (MASS + 4.0) * psi + serial.hopping(psi))


# -- minimal-overlap regime: local extent exactly 2 -------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n_rhs", [1, 12])
def test_extent_two_every_partitioned_axis(engine, policy, n_rhs):
    """(4, 4, 2, 8) on a (2, 2, 1, 1) grid: local block (2, 2, 2, 8) —
    every partitioned axis sits at the minimal overlap-legal extent, so
    the interior site set is empty and the surface pass does all the
    work.  Both parities, 1 and 12 RHS, every policy, both engines."""
    gauge, psi = _background((4, 4, 2, 8), n_rhs=n_rhs)
    geom = gauge.geometry
    serial = _serial_soa(gauge)
    with DistributedWilsonOperator(
        gauge, MASS, grid=(2, 2, 1, 1), engine=engine, policy=policy,
        max_rhs=max(n_rhs, 1), timeout=60.0,
    ) as op:
        for parity in (0, 1):
            x = psi * geom.parity_mask(parity)[..., None, None]
            got = np.array(op.hopping(x), copy=True)
            want = np.array(serial.hopping(x), copy=True)
            if engine == "compiled":
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


# -- solver rank invariance --------------------------------------------------

# Rank invariance of a solve is the *deterministic, same host* kind (every
# decision hangs off a ``vdot``-built reduction whose order is fixed).
# Without numba these solves run the interpreted fallback bodies of the
# kernels — a correctness guard, not a tier, and 45 % of tier-1 wall time
# at full size — so there one RHS on ranks (1, 2) is the guard; the
# 4-rank / multi-RHS coverage runs where the engine is really compiled
# (the with-numba CI leg).
CG_RANKS = (1, 2, 4) if NUMBA_AVAILABLE else (1, 2)
CG_NRHS = 3 if NUMBA_AVAILABLE else 1


def test_cg_bitwise_invariant_under_ranks_compiled():
    gauge, b = _background((4, 4, 4, 8), n_rhs=CG_NRHS, seed=7)
    results = {}
    for ranks in CG_RANKS:
        with DistributedEvenOddOperator(
            gauge, MASS, ranks=ranks, engine="compiled", timeout=60.0
        ) as op:
            results[ranks] = DistributedCG(op, tol=1e-8, max_iter=2000).solve_batched(b)
    assert results[1].converged.all()
    for ranks in CG_RANKS[1:]:
        assert results[ranks].iterations == results[1].iterations
        assert np.array_equal(results[ranks].x, results[1].x)


def test_rucg_bitwise_invariant_under_ranks():
    """Reliable-update CG: sloppy storage, folds and restarts are all
    collective decisions, so the answer is rank-count invariant too
    (deterministic, same host)."""
    gauge, b = _background((4, 4, 4, 8), n_rhs=min(CG_NRHS, 2), seed=7)
    results = {}
    for ranks in (1, 2):
        with DistributedEvenOddOperator(
            gauge, MASS, ranks=ranks, engine="compiled", timeout=60.0
        ) as op:
            results[ranks] = DistributedCG(
                op, tol=1e-8, max_iter=2000, reliable=True, delta=0.1
            ).solve_batched(b)
    assert results[1].converged.all()
    assert results[1].reliable_updates >= 1
    assert results[2].iterations == results[1].iterations
    assert results[2].reliable_updates == results[1].reliable_updates
    assert np.array_equal(results[2].x, results[1].x)
    # sloppy-storage answer still solves the true system
    assert results[1].final_relres.max() < 1e-7


def test_default_solve_through_the_compiled_engine():
    """The SoA tier has no complex64 path: it takes the cast at its
    boundary, answers in double, and the cycle stores that in complex64 —
    the default solve is correct there (not faster), rank-invariant, and
    meets the same tolerance."""
    from repro.dirac.wilson import WilsonOperator

    gauge, b = _background((4, 4, 2, 4), n_rhs=1, seed=7)
    results = {}
    for ranks in (1, 2):
        with DecompRuntime(gauge, MASS, ranks=ranks, engine="compiled", max_rhs=1) as rt:
            results[ranks] = rt.solve_cgne(b, tol=1e-6)
    res = results[1]
    assert res.converged.all() and res.inner == "complex64" and res.reliable_updates >= 1
    assert np.array_equal(results[2].x, res.x)
    r = b - WilsonOperator(gauge, MASS).apply(res.x)
    assert np.linalg.norm(r) <= 1e-5 * np.linalg.norm(b)


def test_halo_stats_reports_engine_and_overlap_window():
    gauge, psi = _background((8, 4, 2, 8))
    with DistributedWilsonOperator(
        gauge, MASS, ranks=2, engine="compiled", policy="overlap", timeout=60.0
    ) as op:
        op.hopping(psi)
        stats = op.runtime.halo_stats()
    assert len(stats) == 2
    for s in stats:
        assert s["engine"] == "compiled"
        assert s["rounds"] >= 1
        assert s["wait_seconds"] >= 0.0
        assert s["interior_seconds"] > 0.0


# -- overlap precondition: one structured error, both code paths ------------


def test_overlap_error_identical_both_paths():
    gauge, _ = _background((8, 4, 2, 8))
    with pytest.raises(ValueError, match=r"offending axes: x \(extent 1\)") as ctor:
        DecompRuntime(gauge, MASS, ranks=8, policy="overlap")
    with DecompRuntime(gauge, MASS, ranks=8, policy="blocking") as rt:
        with pytest.raises(ValueError, match=r"offending axes: x \(extent 1\)") as setp:
            rt.set_policy("overlap")
        assert rt.policy == "blocking"  # failed switch leaves policy alone
        assert str(ctor.value) == str(setp.value)


def test_overlap_error_names_every_thin_axis():
    gauge, _ = _background((4, 4, 2, 8))
    with pytest.raises(ValueError) as exc:
        DecompRuntime(gauge, MASS, grid=(4, 4, 1, 1), policy="overlap")
    msg = str(exc.value)
    assert "x (extent 1)" in msg and "y (extent 1)" in msg


# -- numpy-only CI leg guard -------------------------------------------------


def test_interpreted_kernel_bodies_back_the_engine():
    """Without numba the compiled engine must execute the *interpreted*
    interior/surface kernel bodies — same expressions, same bits.  With
    numba the module-level executables must be the JIT dispatchers."""
    if NUMBA_AVAILABLE:
        assert soa_dist._HOPPING_DIST is not soa_dist._hopping_soa_dist
        assert soa_dist._PACK_FACES is not soa_dist._pack_faces_soa
    else:
        assert soa_dist._HOPPING_DIST is soa_dist._hopping_soa_dist
        assert soa_dist._PACK_FACES is soa_dist._pack_faces_soa
    # and they actually run: a compiled-engine overlap hopping exercises
    # pack, interior and surface passes end to end
    gauge, psi = _background((4, 6, 2, 8), n_rhs=1)
    serial = _serial_soa(gauge)
    with DistributedWilsonOperator(
        gauge, MASS, ranks=2, engine="compiled", policy="overlap", timeout=60.0
    ) as op:
        assert np.array_equal(op.hopping(psi), serial.hopping(psi))


def test_engine_auto_resolves_by_numba_availability():
    gauge, _ = _background((4, 6, 2, 8))
    with DistributedWilsonOperator(
        gauge, MASS, ranks=2, engine="auto", timeout=60.0
    ) as op:
        assert op.engine == ("compiled" if NUMBA_AVAILABLE else "interpreted")


def test_unknown_engine_rejected():
    gauge, _ = _background((4, 6, 2, 8))
    with pytest.raises(ValueError, match="engine"):
        DecompRuntime(gauge, MASS, ranks=2, engine="cuda")
