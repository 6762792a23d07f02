"""Distributed batched CGNE: rank-count invariance and legacy agreement.

Global reductions go through the fixed-order per-x-slice table, so the
solver's iterates — and therefore its answers and iteration counts — are
invariant under the rank grid and, through the ``transport`` fixture,
under threads/shm as well.  The guarantee is
*deterministic, same host*: it holds for any BLAS because
``allreduce_rows`` sums in a fixed order, but the bits themselves differ
between BLAS builds (each slice partial is a ``vdot``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.distributed import DecompRuntime, DistributedCG, DistributedEvenOddOperator
from repro.comm.transports import dist_solve
from repro.dirac.evenodd_wilson import EvenOddWilson
from repro.dirac.wilson import WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.solvers.cg import ConjugateGradient, solve_normal_equations_batched
from repro.utils.rng import make_rng

MASS = 0.12
TOL = 1e-8


def _sources(dims, n_rhs=3, seed=7):
    geom = Geometry(*dims)
    gauge = GaugeField.random(geom, make_rng(seed), scale=0.35)
    rng = np.random.default_rng(5)
    shape = (n_rhs,) + geom.dims + (4, 3)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return gauge, b


@pytest.mark.parametrize("dims", [(4, 4, 4, 8), (4, 6, 2, 8)])
def test_cg_bitwise_invariant_under_ranks(dims):
    """Deterministic, same host: identical bits for 1, 2 and 4 ranks —
    and the counters the serial solver publishes, from the same core."""
    gauge, b = _sources(dims)
    results = {}
    for ranks in (1, 2, 4):
        with DistributedEvenOddOperator(
            gauge, MASS, ranks=ranks, timeout=60.0
        ) as op:
            results[ranks] = DistributedCG(op, tol=TOL, max_iter=2000).solve_batched(b)
    assert results[1].converged.all()
    assert results[1].matvecs == b.shape[0] * (results[1].iterations + 1)
    assert results[1].column_iterations.max() == results[1].iterations
    for ranks in (2, 4):
        assert results[ranks].iterations == results[1].iterations
        assert np.array_equal(results[ranks].x, results[1].x)
        assert np.array_equal(results[ranks].final_relres, results[1].final_relres)
        assert results[ranks].matvecs == results[1].matvecs
        assert np.array_equal(
            results[ranks].column_iterations, results[1].column_iterations
        )


def test_cg_obeys_the_halo_policy():
    """The schedule serves the packed solve too: the three policies give
    one answer (deterministic, same host — the exchange is data movement,
    exact on any host, under an unchanged reduction order), and only
    ``overlap`` opens the interior window, timed once in the shared
    schedule."""
    gauge, b = _sources((4, 4, 4, 8))
    results, interior = {}, {}
    for policy in ("blocking", "pairwise", "overlap"):
        with DistributedEvenOddOperator(
            gauge, MASS, ranks=2, policy=policy, timeout=60.0
        ) as op:
            results[policy] = DistributedCG(op, tol=TOL, max_iter=2000).solve_batched(b)
            interior[policy] = [s["interior_seconds"] for s in op.runtime.halo_stats()]
    assert results["blocking"].converged.all()
    for policy in ("pairwise", "overlap"):
        assert np.array_equal(results[policy].x, results["blocking"].x)
        assert results[policy].iterations == results["blocking"].iterations
        assert np.array_equal(
            results[policy].column_iterations, results["blocking"].column_iterations
        )
    assert all(t > 0.0 for t in interior["overlap"])
    assert interior["blocking"] == interior["pairwise"] == [0.0, 0.0]


def test_cg_invariant_under_the_rhs_tile(monkeypatch):
    """Exact on any host per stencil application, hence deterministic for
    the solve: a stack spanning more than one tile of the packed stencil
    (tiles of 2 + 1 columns, each reading its own columns of the ghosts)
    is bit-equal, column by column, to the same solve in one tile."""
    from repro.dirac.kernels import halfspinor

    gauge, b = _sources((4, 4, 4, 8))
    packed_column = b[0, :2].nbytes // 2  # one parity of a 2-rank block
    results = {}
    for tile_bytes in (halfspinor.TILE_BYTES, 2 * packed_column):
        monkeypatch.setattr(halfspinor, "TILE_BYTES", tile_bytes)
        with DistributedEvenOddOperator(gauge, MASS, ranks=2, timeout=60.0) as op:
            results[tile_bytes] = DistributedCG(op, tol=TOL, max_iter=2000).solve_batched(b)
    one_tile, tiled = results.values()
    assert one_tile.converged.all()
    assert np.array_equal(tiled.x, one_tile.x)
    assert np.array_equal(tiled.column_iterations, one_tile.column_iterations)


def test_cg_matches_legacy_serial_solver():
    gauge, b = _sources((4, 4, 4, 8))
    eo = EvenOddWilson(WilsonOperator(gauge, MASS))
    legacy = solve_normal_equations_batched(
        eo.schur_apply,
        eo.schur_dagger_apply,
        eo.prepare_rhs(b),
        ConjugateGradient(tol=TOL, max_iter=2000),
    )
    x_legacy = eo.reconstruct(legacy.x, b)
    with DistributedEvenOddOperator(
        gauge, MASS, ranks=2, timeout=60.0
    ) as op:
        dist = DistributedCG(op, tol=TOL, max_iter=2000).solve_batched(b)
    assert dist.converged.all()
    assert dist.iterations == legacy.iterations
    assert np.allclose(dist.x, x_legacy, rtol=1e-6, atol=1e-9)


def test_cg_true_residual_small():
    """The returned solution solves D x = b, not just the Schur system."""
    gauge, b = _sources((4, 4, 4, 8))
    serial = WilsonOperator(gauge, MASS)
    with DistributedEvenOddOperator(
        gauge, MASS, ranks=2, timeout=60.0
    ) as op:
        res = DistributedCG(op, tol=TOL, max_iter=2000).solve_batched(b)
    r = b - serial.apply(res.x)
    relres = np.linalg.norm(r) / np.linalg.norm(b)
    assert relres < 5e-8


def test_cg_parity_across_transports(transport):
    """Every transport reproduces the threaded answer bit for bit
    (deterministic, same host) — same x, same iteration and matvec
    counts, same final residuals."""
    gauge, b = _sources((4, 4, 4, 8), n_rhs=2)
    with DistributedEvenOddOperator(
        gauge, MASS, ranks=2, timeout=60.0
    ) as op:
        want = DistributedCG(op, tol=TOL, max_iter=2000).solve_batched(b)
    got = dist_solve(
        gauge, MASS, b, transport=transport, ranks=2, tol=TOL, max_iter=2000
    )
    assert want.converged.all() and got.converged.all()
    assert np.array_equal(got.x, want.x)
    assert got.iterations == want.iterations
    assert np.array_equal(got.final_relres, want.final_relres)
    assert got.matvecs == want.matvecs == b.shape[0] * (want.iterations + 1)
    assert np.array_equal(got.column_iterations, want.column_iterations)
    assert want.column_iterations.max() == want.iterations


def test_rucg_parity_across_transports(transport):
    """Reliable-update CG: fold/restart decisions are collective, so the
    sloppy-storage path is transport-invariant too (same update count,
    same bits on one host) — and the answer solves the system."""
    gauge, b = _sources((4, 4, 4, 8), n_rhs=2)
    with DistributedEvenOddOperator(
        gauge, MASS, ranks=2, timeout=60.0
    ) as op:
        want = DistributedCG(
            op, tol=TOL, max_iter=2000, reliable=True, delta=0.1
        ).solve_batched(b)
    got = dist_solve(
        gauge, MASS, b, transport=transport, ranks=2, tol=TOL, max_iter=2000,
        reliable=True, delta=0.1,
    )
    assert want.reliable_updates >= 1
    assert got.reliable_updates == want.reliable_updates
    assert got.iterations == want.iterations
    assert np.array_equal(got.x, want.x)
    assert got.converged.all()
    assert got.final_relres.max() < 10 * TOL


# -- the default: the paper's red-black double-single solver -------------------

SQRT_EPS_SINGLE = float(np.sqrt(np.finfo(np.float32).eps))


def _true_relres(gauge, b, x):
    r = b - WilsonOperator(gauge, MASS).apply(x)
    axes = tuple(range(1, r.ndim))
    return np.sqrt(np.sum(np.abs(r) ** 2, axis=axes) / np.sum(np.abs(b) ** 2, axis=axes))


def test_default_solve_bitwise_invariant_under_ranks_and_policies():
    """Deterministic, same host: the complex64 inner loop keeps the
    collective reducer and the serial stencil's per-site chain, so the
    default solve gives identical bits on 1, 2 and 4 ranks under every
    halo schedule."""
    gauge, b = _sources((4, 4, 4, 8))
    runs = [(1, "blocking"), (2, "blocking"), (2, "pairwise"), (2, "overlap"), (4, "blocking")]
    results = []
    for ranks, policy in runs:
        with DecompRuntime(gauge, MASS, ranks=ranks, policy=policy) as rt:
            results.append(rt.solve_cgne(b, tol=TOL, max_iter=2000))
    want = results[0]
    assert want.converged.all() and want.inner == "complex64"
    for run, got in zip(runs[1:], results[1:]):
        assert (got.iterations, got.reliable_updates, got.matvecs) == (
            want.iterations, want.reliable_updates, want.matvecs), run
        assert np.array_equal(got.x, want.x), run
        assert np.array_equal(got.final_relres, want.final_relres), run


def test_default_solve_parity_across_transports(transport):
    """The default is ``reliable=True`` at ``delta = sqrt(eps_single)``:
    spelled out through every transport it gives the threaded default's
    bits (deterministic, same host)."""
    gauge, b = _sources((4, 4, 4, 8), n_rhs=2)
    with DecompRuntime(gauge, MASS, ranks=2, max_rhs=2) as rt:
        want = rt.solve_cgne(b, tol=TOL)
    got = dist_solve(
        gauge, MASS, b, transport=transport, ranks=2, tol=TOL,
        reliable=True, delta=SQRT_EPS_SINGLE,
    )
    assert got.inner == want.inner == "complex64"
    assert (got.iterations, got.reliable_updates) == (want.iterations, want.reliable_updates)
    assert np.array_equal(got.x, want.x)


@pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-10])
def test_default_solve_meets_the_double_tolerance(tol):
    """Single-precision work, double-precision answer: every column
    converges on a double refresh and the *full* system's true residual
    (serial operator) is within 10 tol, also below eps_single — where one
    refresh cannot be enough.  ``reliable=False`` is still the all-double
    chain ``DistributedCG`` pins, to the bit."""
    gauge, b = _sources((4, 4, 4, 8))
    with DistributedEvenOddOperator(gauge, MASS, ranks=2) as op:
        mixed = op.runtime.solve_cgne(b, tol=tol, max_iter=2000)
        double = op.runtime.solve_cgne(b, tol=tol, max_iter=2000, reliable=False)
        pinned = DistributedCG(op, tol=tol, max_iter=2000).solve_batched(b)
    assert mixed.converged.all() and mixed.inner == "complex64"
    assert mixed.reliable_updates >= (2 if tol < np.finfo(np.float32).eps else 1)
    assert mixed.matvecs == b.shape[0] * (mixed.iterations + mixed.reliable_updates)
    assert (double.inner, double.reliable_updates) == ("complex128", 0)
    assert np.array_equal(double.x, pinned.x)
    for res in (mixed, double):
        assert _true_relres(gauge, b, res.x).max() <= 10 * tol
    assert np.abs(mixed.x - double.x).max() <= 10 * tol * np.abs(double.x).max()


def test_delta_none_is_sqrt_eps_and_explicit_delta_is_honoured():
    """At tol 1e-3 the inner loop reaches the target before a
    ``sqrt(eps_single)`` trigger fires — one double refresh, the
    all-double solve's iteration count; QUDA's half-precision heuristic
    0.1 pays three."""
    gauge, b = _sources((4, 4, 4, 8))
    with DecompRuntime(gauge, MASS, ranks=2) as rt:
        default = rt.solve_cgne(b, tol=1e-3)
        spelled = rt.solve_cgne(b, tol=1e-3, delta=SQRT_EPS_SINGLE)
        half = rt.solve_cgne(b, tol=1e-3, delta=0.1)
        double = rt.solve_cgne(b, tol=1e-3, reliable=False)
    assert np.array_equal(default.x, spelled.x)
    assert (default.reliable_updates, half.reliable_updates) == (1, 3)
    assert default.iterations == double.iterations
    assert half.converged.all() and half.matvecs > default.matvecs == double.matvecs
