"""The Feynman-Hellmann theorem, verified non-perturbatively.

The central correctness test of the whole reproduction: the FH
correlator must equal the lambda-derivative of the two-point function
computed from fully perturbed solves, ``D -> D - lambda Gamma``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.contractions import proton_correlator
from repro.contractions.propagator import (
    Propagator,
    boundary_project,
    point_sources,
    point_sources_5d,
    solve_columns,
)
from repro.core.feynman_hellmann import (
    SPIN_POLARIZED_PROJ,
    AxialInsertion4D,
    AxialInsertion5D,
    PerturbedOperator,
    compute_fh_mobius_pair,
    compute_fh_wilson_pair,
    effective_coupling,
    fh_correlator,
)
from repro.dirac import MobiusOperator, WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.solvers import ConjugateGradient
from repro.utils.rng import make_rng
from tests.conftest import random_fermion


@pytest.fixture(scope="module")
def setup():
    geom = Geometry(2, 2, 2, 4)
    gauge = GaugeField.random(geom, make_rng(70), scale=0.3)
    wilson = WilsonOperator(gauge, mass=0.3)
    solver = ConjugateGradient(tol=1e-11, max_iter=4000)
    u, u_fh, stats = compute_fh_wilson_pair(wilson, solver=solver)
    return geom, gauge, wilson, solver, u, u_fh, stats


def _perturbed_prop(wilson, geom, solver, lam) -> Propagator:
    pert = PerturbedOperator(wilson, AxialInsertion4D(), lam)
    x, _ = solve_columns(pert, point_sources(geom, (0, 0, 0, 0)), solver, schur=False)
    return Propagator.from_columns(x, (0, 0, 0, 0))


class TestInsertions:
    def test_4d_adjoint(self, rng):
        ins = AxialInsertion4D()
        psi = random_fermion(rng, (2, 2, 2, 4, 4, 3))
        phi = random_fermion(rng, (2, 2, 2, 4, 4, 3))
        lhs = np.vdot(phi, ins.apply(psi))
        rhs = np.vdot(ins.apply_dagger(phi), psi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_5d_adjoint(self, gauge_tiny, rng):
        mob = MobiusOperator(gauge_tiny, ls=4, mass=0.1)
        ins = AxialInsertion5D()
        psi = random_fermion(rng, mob.field_shape)
        phi = random_fermion(rng, mob.field_shape)
        lhs = np.vdot(phi, ins.apply(psi))
        rhs = np.vdot(ins.apply_dagger(phi), psi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_5d_lives_on_walls(self, gauge_tiny, rng):
        mob = MobiusOperator(gauge_tiny, ls=4, mass=0.1)
        psi = random_fermion(rng, mob.field_shape)
        out = AxialInsertion5D().apply(psi)
        assert np.abs(out[1:-1]).max() == 0.0
        assert np.abs(out[0]).max() > 0 and np.abs(out[-1]).max() > 0

    def test_polarized_projector_traceless_parity_even(self):
        # tr[P_pol] = 0: it picks out spin differences, not the norm.
        assert abs(np.trace(SPIN_POLARIZED_PROJ)) < 1e-13


class TestFHTheoremWilson:
    def test_fh_equals_finite_difference(self, setup):
        """C_FH(t) == dC/dlambda to O(lambda^2), every timeslice."""
        geom, gauge, wilson, solver, u, u_fh, _ = setup
        cfh = fh_correlator(u, u_fh, u, u_fh)
        lam = 1e-4
        # isovector: u sees D - lam G, d sees D + lam G
        u_p = _perturbed_prop(wilson, geom, solver, +lam)
        u_m = _perturbed_prop(wilson, geom, solver, -lam)
        c_plus = proton_correlator(u_p, u_m, projector=SPIN_POLARIZED_PROJ)
        c_minus = proton_correlator(u_m, u_p, projector=SPIN_POLARIZED_PROJ)
        fd = (c_plus - c_minus) / (2.0 * lam)
        scale = np.abs(cfh).max()
        np.testing.assert_allclose(cfh, fd, atol=3e-5 * scale)

    def test_fh_propagator_is_sequential_solve(self, setup):
        """S_FH column == D^{-1} (Gamma S) column, by construction and
        by direct residual check."""
        geom, gauge, wilson, solver, u, u_fh, _ = setup
        ins = AxialInsertion4D()
        col = u_fh.data[..., :, 2, :, 1]
        rhs = ins.apply(u.data[..., :, 2, :, 1])
        np.testing.assert_allclose(wilson.apply(col), rhs, atol=1e-7)

    def test_solver_stats_counted(self, setup):
        *_, stats = setup
        assert len(stats) == 24  # 12 standard + 12 FH solves
        assert all(s.converged for s in stats)


class TestFHTheoremMobius:
    def test_fh_equals_finite_difference_5d(self, gauge_tiny):
        """Same theorem through the 5th dimension and wall projection."""
        mob = MobiusOperator(gauge_tiny, ls=4, mass=0.2)
        solver = ConjugateGradient(tol=1e-11, max_iter=6000)
        u, u_fh, _ = compute_fh_mobius_pair(mob, solver=solver)
        cfh = fh_correlator(u, u_fh, u, u_fh)

        lam = 1e-4
        ins = AxialInsertion5D()

        def prop_for(lamval):
            pert = PerturbedOperator(mob, ins, lamval)
            b = point_sources_5d(mob, (0, 0, 0, 0))
            x, _ = solve_columns(pert, b, solver, schur=False)
            return Propagator.from_columns(boundary_project(x), (0, 0, 0, 0))

        u_p, u_m = prop_for(+lam), prop_for(-lam)
        c_plus = proton_correlator(u_p, u_m, projector=SPIN_POLARIZED_PROJ)
        c_minus = proton_correlator(u_m, u_p, projector=SPIN_POLARIZED_PROJ)
        fd = (c_plus - c_minus) / (2.0 * lam)
        scale = np.abs(cfh).max()
        np.testing.assert_allclose(cfh, fd, atol=3e-5 * scale)


class TestEffectiveCoupling:
    def test_constant_ratio_slope(self):
        """If R(t) = c + g t exactly, g_eff(t) == g everywhere."""
        t = np.arange(8.0)
        c2 = np.exp(-0.5 * t)
        cfh = c2 * (0.3 + 1.27 * t)
        geff = effective_coupling(cfh, c2)
        np.testing.assert_allclose(geff, 1.27, atol=1e-12)

    def test_shape(self):
        geff = effective_coupling(np.ones(10), np.ones(10))
        assert geff.shape == (9,)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            effective_coupling(np.ones(5), np.ones(6))

    def test_excited_contamination_decays(self):
        """With an e^{-dE t} term the curve approaches the plateau."""
        t = np.arange(12.0)
        c2 = np.exp(-0.6 * t)
        cfh = c2 * (0.1 + 1.2 * t + 0.5 * np.exp(-0.4 * t))
        geff = effective_coupling(cfh, c2)
        assert abs(geff[-1] - 1.2) < abs(geff[0] - 1.2)
        assert geff[-1] == pytest.approx(1.2, abs=0.01)
