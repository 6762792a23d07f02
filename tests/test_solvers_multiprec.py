"""Mixed-precision reliable-update CG — the paper's production solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import EvenOddMobius, MobiusOperator
from repro.solvers import (
    BiCGStab,
    ConjugateGradient,
    PRECISIONS,
    ReliableUpdateCG,
    solve_normal_equations,
)
from tests.conftest import random_fermion


def _spd_system(seed: int, n: int = 40, cond: float = 500.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = np.geomspace(1.0, cond, n)
    a = (q * eigs) @ q.conj().T
    x_true = rng.normal(size=(n, 1, 1)) + 1j * rng.normal(size=(n, 1, 1))
    return a, x_true


def _matvec(a):
    return lambda v: (a @ v.reshape(len(a))).reshape(v.shape)


class TestReliableUpdates:
    def test_half_storage_reaches_double_tolerance(self):
        """The whole point: 16-bit storage, double-precision answer."""
        a, x_true = _spd_system(0)
        b = _matvec(a)(x_true)
        solver = ReliableUpdateCG(inner_precision=PRECISIONS["half"], tol=1e-10, max_iter=2000)
        res = solver.solve(_matvec(a), b)
        assert res.converged
        assert res.final_relres < 1e-10
        # Far beyond what half-precision storage alone could represent.
        assert res.final_relres < PRECISIONS["half"].epsilon() * 1e-3

    def test_reliable_updates_happen(self):
        a, x_true = _spd_system(1)
        b = _matvec(a)(x_true)
        solver = ReliableUpdateCG(inner_precision=PRECISIONS["half"], tol=1e-10, delta=0.1)
        res = solver.solve(_matvec(a), b)
        assert res.reliable_updates >= 2

    def test_double_inner_matches_plain_cg(self):
        a, x_true = _spd_system(2)
        b = _matvec(a)(x_true)
        mp = ReliableUpdateCG(inner_precision=PRECISIONS["double"], tol=1e-11).solve(_matvec(a), b)
        cg = ConjugateGradient(tol=1e-11).solve(_matvec(a), b)
        np.testing.assert_allclose(mp.x, cg.x, atol=1e-8)

    def test_single_precision_inner(self):
        a, x_true = _spd_system(3)
        b = _matvec(a)(x_true)
        res = ReliableUpdateCG(inner_precision=PRECISIONS["single"], tol=1e-11).solve(_matvec(a), b)
        assert res.converged and res.final_relres < 1e-11

    def test_zero_rhs(self):
        a, _ = _spd_system(4)
        solver = ReliableUpdateCG(inner_precision=PRECISIONS["half"])
        res = solver.solve(_matvec(a), np.zeros((len(a), 1, 1), dtype=complex))
        assert res.converged and res.iterations == 0

    def test_initial_guess_exact_reports_converged(self):
        """The reliable-update twin of the CG regression: an exact ``x0``
        is recognised from the initial true residual — no sloppy
        iteration and no reliable update on a 1e-16 residual."""
        a, x_true = _spd_system(2)
        b = _matvec(a)(x_true)
        solver = ReliableUpdateCG(inner_precision=PRECISIONS["half"], tol=1e-10)
        res = solver.solve(_matvec(a), b, x0=x_true)
        assert res.converged
        assert res.iterations == 0 and res.reliable_updates == 0

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            ReliableUpdateCG(inner_precision=PRECISIONS["half"], delta=1.5)

    def test_iteration_overhead_modest(self):
        """Half-precision inner iterations cost at most ~2x plain CG
        iterations on a well-conditioned system."""
        a, x_true = _spd_system(5, cond=100.0)
        b = _matvec(a)(x_true)
        cg = ConjugateGradient(tol=1e-10, max_iter=2000).solve(_matvec(a), b)
        mp = ReliableUpdateCG(inner_precision=PRECISIONS["half"], tol=1e-10, max_iter=2000).solve(_matvec(a), b)
        assert mp.iterations <= 2.0 * cg.iterations + 10


class TestSingleIsExecuted:
    """``SinglePrecision`` is a dtype the cycle runs in, not a round trip."""

    @staticmethod
    def _system(gauge, rng, backend):
        from repro.dirac import EvenOddWilson, WilsonOperator

        eo = EvenOddWilson(WilsonOperator(gauge, mass=0.3, backend=backend))
        b = random_fermion(rng, (2,) + gauge.geometry.dims + (4, 3))
        return eo, b, eo.schur_dagger_apply(eo.prepare_rhs(b))

    def test_inner_loop_never_leaves_complex64(self, gauge_tiny, rng):
        """Every inner application is handed the complex64 Krylov vector
        itself and answers in complex64; the operator sees complex128
        exactly once per reliable update (the refresh), and the exit
        reuses that refresh instead of applying it again."""
        eo, _, rhs = self._system(gauge_tiny, rng, "halfspinor")
        seen = []

        def matvec(v):
            out = eo.schur_normal_apply(v)
            seen.append((v.dtype, out.dtype))
            return out

        solver = ReliableUpdateCG(PRECISIONS["single"], tol=1e-10, delta=1e-3)
        res = solver.solve_batched(matvec, rhs)
        assert res.converged.all() and res.reliable_updates >= 2
        assert res.inner == "complex64"
        single = [pair for pair in seen if pair[0] == np.complex64]
        assert single == [(np.complex64, np.complex64)] * res.iterations
        assert len(seen) - len(single) == res.reliable_updates
        assert res.matvecs == rhs.shape[0] * len(seen)
        resid = rhs - eo.schur_normal_apply(res.x)
        norm = lambda a: np.sqrt([np.vdot(c, c).real for c in a])
        want = norm(resid) / norm(rhs)  # what the parent's extra application computed
        assert np.array_equal(res.final_relres, want)

    def test_operator_without_a_complex64_path(self, gauge_tiny, rng):
        """``backend="reference"`` multiplies in double whatever it is
        given; the cycle stores what it gets in complex64 and reaches the
        same tolerance on the full system."""
        eo, b, rhs = self._system(gauge_tiny, rng, "reference")
        res = ReliableUpdateCG(PRECISIONS["single"], tol=1e-9, delta=1e-3).solve_batched(
            eo.schur_normal_apply, rhs
        )
        assert res.converged.all()
        x = eo.reconstruct(res.x, b)
        r = b - eo.wilson.apply(x)
        assert np.linalg.norm(r) <= 1e-7 * np.linalg.norm(b)


class TestOnMobius:
    def test_double_half_on_preconditioned_dwf(self, gauge_tiny, rng):
        """The paper's solver on the paper's operator (tiny volume)."""
        mob = MobiusOperator(gauge_tiny, ls=4, mass=0.1)
        eo = EvenOddMobius(mob)
        b = random_fermion(rng, mob.field_shape)
        rhs_e = eo.prepare_rhs(b)
        rhs_n = eo.schur_dagger_apply(rhs_e)
        solver = ReliableUpdateCG(inner_precision=PRECISIONS["half"], tol=1e-8, max_iter=3000)
        res = solver.solve(eo.schur_normal_apply, rhs_n)
        assert res.converged
        x = eo.reconstruct(res.x, b)
        resid = np.linalg.norm((mob.apply(x) - b).ravel()) / np.linalg.norm(b.ravel())
        assert resid < 1e-6


class TestBiCGStab:
    def test_solves_nonhermitian_dense(self):
        rng = np.random.default_rng(6)
        n = 30
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 5.0 * np.eye(n)
        x_true = rng.normal(size=(n, 1, 1)) + 0j
        b = (a @ x_true.reshape(n)).reshape(x_true.shape)
        res = BiCGStab(tol=1e-10, max_iter=500).solve(_matvec(a), b)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-7)

    def test_zero_rhs(self):
        res = BiCGStab().solve(lambda v: v, np.zeros((5, 1, 1), dtype=complex))
        assert res.converged

    def test_stagnates_on_domain_wall(self, gauge_tiny, rng):
        """Documented domain behaviour: BiCGStab fails for DWF — the
        reason the paper solves the normal equations with CG instead."""
        mob = MobiusOperator(gauge_tiny, ls=4, mass=0.1)
        b = random_fermion(rng, mob.field_shape)
        res = BiCGStab(tol=1e-10, max_iter=150).solve(mob.apply, b)
        cg = solve_normal_equations(
            mob.apply, mob.apply_dagger, b, ConjugateGradient(tol=1e-10, max_iter=150)
        )
        assert cg.final_relres < res.final_relres
