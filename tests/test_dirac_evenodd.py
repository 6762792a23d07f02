"""Red-black preconditioning: block identities and Schur solves, on the
checkerboard-packed fields the chain works in."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import EvenOddMobius, MobiusOperator
from repro.solvers import ConjugateGradient, solve_normal_equations
from tests.conftest import random_fermion


@pytest.fixture
def mobius(gauge_tiny):
    return MobiusOperator(gauge_tiny, ls=4, mass=0.1)


@pytest.fixture
def eo(mobius):
    return EvenOddMobius(mobius)


def _parities(eo, mobius, rng):
    """A random full 5D field's two packed checkerboards."""
    return eo.split(random_fermion(rng, mobius.field_shape))


def _assert_blocks(eo, mobius, xe, xo):
    """``D join(xe, xo) == join(A xe + B xo, A xo + B xe)``: ``A`` keeps a
    checkerboard, ``B`` takes it to the other."""
    lhs = mobius.apply(eo.join(xe, xo))
    rhs = eo.join(eo.a_apply(xe) + eo.b_apply(xo, 1), eo.a_apply(xo) + eo.b_apply(xe, 0))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestBlockStructure:
    def test_full_operator_is_a_plus_b(self, eo, mobius, rng):
        _assert_blocks(eo, mobius, *_parities(eo, mobius, rng))

    def test_a_preserves_parity(self, eo, mobius, rng):
        xe, xo = _parities(eo, mobius, rng)
        _assert_blocks(eo, mobius, xe, np.zeros_like(xo))

    def test_b_flips_parity(self, eo, mobius, rng):
        xe, xo = _parities(eo, mobius, rng)
        _assert_blocks(eo, mobius, np.zeros_like(xe), xo)

    def test_a_inverse(self, eo, mobius, rng):
        psi = _parities(eo, mobius, rng)[0]
        np.testing.assert_allclose(eo.a_inv_apply(eo.a_apply(psi)), psi, atol=1e-11)
        np.testing.assert_allclose(eo.a_apply(eo.a_inv_apply(psi)), psi, atol=1e-11)

    def test_a_adjoint(self, eo, mobius, rng):
        psi = _parities(eo, mobius, rng)[0]
        phi = _parities(eo, mobius, rng)[0]
        lhs = np.vdot(phi, eo.a_apply(psi))
        rhs = np.vdot(eo.a_dagger_apply(phi), psi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_b_adjoint(self, eo, mobius, rng):
        """``B(., p)`` pairs with ``B^H(., 1 - p)``."""
        for parity in (0, 1):
            psi = _parities(eo, mobius, rng)[parity]
            phi = _parities(eo, mobius, rng)[1 - parity]
            lhs = np.vdot(phi, eo.b_apply(psi, parity))
            rhs = np.vdot(eo.b_dagger_apply(phi, 1 - parity), psi)
            assert lhs == pytest.approx(rhs, rel=1e-11)


class TestSchur:
    def test_schur_adjoint(self, eo, mobius, rng):
        xe = _parities(eo, mobius, rng)[0]
        ye = _parities(eo, mobius, rng)[0]
        lhs = np.vdot(ye, eo.schur_apply(xe))
        rhs = np.vdot(eo.schur_dagger_apply(ye), xe)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_true_solution_satisfies_schur_equation(self, eo, mobius, rng):
        x_true = random_fermion(rng, mobius.field_shape)
        b = mobius.apply(x_true)
        rhs_e = eo.prepare_rhs(b)
        res = eo.schur_apply(eo.split(x_true)[0]) - rhs_e
        assert np.abs(res).max() < 1e-12 * np.abs(b).max()

    def test_reconstruction_recovers_full_solution(self, eo, mobius, rng):
        x_true = random_fermion(rng, mobius.field_shape)
        b = mobius.apply(x_true)
        x = eo.reconstruct(eo.split(x_true)[0], b)
        np.testing.assert_allclose(x, x_true, atol=1e-11)

    def test_preconditioned_solve_matches_unpreconditioned(self, eo, mobius, rng):
        b = random_fermion(rng, mobius.field_shape)
        solver = ConjugateGradient(tol=1e-10, max_iter=3000)
        full = solve_normal_equations(mobius.apply, mobius.apply_dagger, b, solver)
        rhs_e = eo.prepare_rhs(b)
        pre = solve_normal_equations(eo.schur_apply, eo.schur_dagger_apply, rhs_e, solver)
        x = eo.reconstruct(pre.x, b)
        np.testing.assert_allclose(x, full.x, atol=1e-7)

    def test_preconditioning_reduces_iterations(self, eo, mobius, rng):
        b = random_fermion(rng, mobius.field_shape)
        solver = ConjugateGradient(tol=1e-8, max_iter=3000)
        full = solve_normal_equations(mobius.apply, mobius.apply_dagger, b, solver)
        rhs_e = eo.prepare_rhs(b)
        pre = solve_normal_equations(eo.schur_apply, eo.schur_dagger_apply, rhs_e, solver)
        assert pre.iterations < full.iterations
