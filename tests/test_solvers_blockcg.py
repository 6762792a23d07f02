"""True block CG (BCGrQ): correctness, Krylov sharing, breakdown guards."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import BlockCG, ConjugateGradient
from repro.solvers.cg import solve_normal_equations_batched

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=40, max_value=120)


def _system(seed=0, n=120, low=(0.001, 0.003, 0.01, 0.03)):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = np.concatenate([np.array(low), np.geomspace(0.5, 10, n - len(low))])
    a = (q * eigs) @ q.conj().T
    mv = lambda v: np.einsum("ij,...j->...i", a, v)
    return a, mv


def _rhs(rng, k, n):
    return rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))


class TestBlockCG:
    def test_solves_block(self):
        a, mv = _system()
        n = len(a)
        b = _rhs(np.random.default_rng(1), 4, n)
        res = BlockCG(tol=1e-10, max_iter=2000).solve_batched(mv, b)
        assert res.all_converged
        x_ref = np.linalg.solve(a, b.T).T
        np.testing.assert_allclose(res.x, x_ref, atol=1e-7)

    def test_matches_batched_cg_solutions(self):
        a, mv = _system(seed=2)
        n = len(a)
        b = _rhs(np.random.default_rng(3), 6, n)
        block = BlockCG(tol=1e-10, max_iter=3000).solve_batched(mv, b)
        lock = ConjugateGradient(tol=1e-10, max_iter=3000).solve_batched(mv, b)
        assert block.all_converged and lock.all_converged
        np.testing.assert_allclose(block.x, lock.x, atol=1e-7)

    def test_shares_krylov_information(self):
        """With several RHS the shared space converges in fewer stacked
        operator applications than lock-step batching on an
        ill-conditioned operator."""
        a, mv = _system(seed=4)
        n = len(a)
        b = _rhs(np.random.default_rng(5), 8, n)
        block = BlockCG(tol=1e-8, max_iter=3000).solve_batched(mv, b)
        lock = ConjugateGradient(tol=1e-8, max_iter=3000).solve_batched(mv, b)
        assert block.all_converged and lock.all_converged
        assert block.matvecs < lock.matvecs

    def test_x0_seeding(self):
        a, mv = _system(seed=6)
        n = len(a)
        b = _rhs(np.random.default_rng(7), 3, n)
        x_ref = np.linalg.solve(a, b.T).T
        # Near-exact guess: almost no iterations needed.
        seeded = BlockCG(tol=1e-8, max_iter=2000).solve_batched(
            mv, b, x0=x_ref + 1e-9 * np.ones_like(x_ref)
        )
        cold = BlockCG(tol=1e-8, max_iter=2000).solve_batched(mv, b)
        assert seeded.all_converged
        assert seeded.iterations < cold.iterations

    def test_single_rhs_degenerates_to_cg(self):
        a, mv = _system(seed=8)
        n = len(a)
        b = _rhs(np.random.default_rng(9), 1, n)
        block = BlockCG(tol=1e-10, max_iter=3000).solve_batched(mv, b)
        plain = ConjugateGradient(tol=1e-10, max_iter=3000).solve(mv, b[0])
        assert block.all_converged and plain.converged
        np.testing.assert_allclose(block.x[0], plain.x, atol=1e-7)

    def test_duplicate_rhs_rank_deficiency(self):
        """A rank-deficient block (two identical columns) must not blow
        up: the QR guard keeps the recurrence finite and both columns
        still solve."""
        a, mv = _system(seed=10)
        n = len(a)
        col = _rhs(np.random.default_rng(11), 1, n)[0]
        b = np.stack([col, col.copy()])
        res = BlockCG(tol=1e-8, max_iter=3000).solve_batched(mv, b)
        x_ref = np.linalg.solve(a, col)
        assert np.all(np.isfinite(res.x))
        np.testing.assert_allclose(res.x[0], x_ref, atol=1e-5)
        np.testing.assert_allclose(res.x[1], x_ref, atol=1e-5)

    def test_zero_rhs_column(self):
        a, mv = _system(seed=12)
        n = len(a)
        b = _rhs(np.random.default_rng(13), 3, n)
        b[1] = 0.0
        res = BlockCG(tol=1e-8, max_iter=3000).solve_batched(mv, b)
        assert np.all(np.isfinite(res.x))
        np.testing.assert_allclose(res.x[1], 0.0, atol=1e-8)

    def test_max_iter_reports_unconverged(self):
        a, mv = _system(seed=14)
        n = len(a)
        b = _rhs(np.random.default_rng(15), 2, n)
        res = BlockCG(tol=1e-14, max_iter=3).solve_batched(mv, b)
        assert not res.all_converged
        assert res.iterations == 3

    def test_matvec_accounting(self):
        a, mv = _system(seed=16)
        n = len(a)
        k = 5
        b = _rhs(np.random.default_rng(17), k, n)
        res = BlockCG(tol=1e-8, max_iter=3000).solve_batched(mv, b)
        # k per iteration + k for the final true residual (no x0).
        assert res.matvecs == k * (res.iterations + 1)

    def test_flops_accounting(self):
        a, mv = _system(seed=18)
        n = len(a)
        k = 4
        b = _rhs(np.random.default_rng(19), k, n)
        res = BlockCG(
            tol=1e-8, max_iter=3000, flops_per_matvec=100.0, blas_flops_per_iter=7.0
        ).solve_batched(mv, b)
        expected = k * (res.iterations * 107.0 + 100.0)
        assert res.flops == pytest.approx(expected)

    def test_on_wilson_normal_operator(self, gauge_tiny, rng):
        """Block CGNE on the real operator via solve_normal_equations_batched."""
        from repro.dirac import WilsonOperator
        from tests.conftest import random_fermion

        w = WilsonOperator(gauge_tiny, mass=0.2)
        shape = gauge_tiny.geometry.dims + (4, 3)
        b = np.stack([random_fermion(rng, shape) for _ in range(4)])
        res = solve_normal_equations_batched(
            w.apply, w.apply_dagger, b, solver=BlockCG(tol=1e-8, max_iter=4000)
        )
        assert res.all_converged
        for i in range(4):
            err = np.linalg.norm(w.apply(res.x[i]) - b[i]) / np.linalg.norm(b[i])
            assert err < 1e-7


def _planted(seed: int, n: int, n_low: int, gap_decades: float):
    """Hermitian positive operator with ``n_low`` isolated low modes
    ``gap_decades`` below the bulk: ``(matrix, matvec, low eigenvalues)``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    low = np.geomspace(10.0 ** (-gap_decades), 2.0 * 10.0 ** (-gap_decades), n_low)
    eigs = np.concatenate([low, np.geomspace(1.0, 50.0, n - n_low)])
    a = (q * eigs) @ q.conj().T
    return a, lambda v: np.einsum("ij,...j->...i", a, v), low


@given(seed=seeds, n=sizes)
@settings(deadline=None)
def test_block_cg_never_beaten_by_lockstep(seed, n):
    """Sharing the Krylov space can only help: block CG converges in at
    most the stacked matvecs of lock-step batching (strictly fewer on
    most draws; equality happens on easy spectra)."""
    _, mv, _ = _planted(seed, n, 4, gap_decades=2.5)
    rng = np.random.default_rng(seed + 3)
    b = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
    block = BlockCG(tol=1e-8, max_iter=20000).solve_batched(mv, b)
    lock = ConjugateGradient(tol=1e-8, max_iter=20000).solve_batched(mv, b)
    assert block.all_converged and lock.all_converged
    assert block.matvecs <= lock.matvecs
