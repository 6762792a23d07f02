"""Smearing and the sequential-source method."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contractions import (
    GaussianSmearing,
    compute_wilson_propagator,
    pion_correlator,
    pion_three_point,
    pion_two_point_matrix,
    sequential_propagator,
)
from repro.contractions.propagator import Propagator
from repro.core.feynman_hellmann import AxialInsertion4D
from repro.dirac import WilsonOperator
from repro.dirac import gamma as g
from repro.lattice import GaugeField, Geometry
from repro.lattice.su3 import random_su3
from repro.solvers import ConjugateGradient, solve_normal_equations
from repro.utils.rng import make_rng
from tests.conftest import random_fermion


class TestSmearing:
    def test_preserves_shape_and_linearity(self, gauge_tiny, rng):
        sm = GaussianSmearing(gauge_tiny, alpha=0.25, n_iter=4)
        psi = random_fermion(rng, gauge_tiny.geometry.dims + (4, 3))
        phi = random_fermion(rng, gauge_tiny.geometry.dims + (4, 3))
        out = sm.apply(2.0 * psi - phi)
        np.testing.assert_allclose(out, 2.0 * sm.apply(psi) - sm.apply(phi), atol=1e-12)

    def test_gauge_covariance(self, gauge_tiny, rng):
        """g(x) K[U] psi == K[U^g] (g psi) — smearing is covariant."""
        geom = gauge_tiny.geometry
        gt = random_su3(make_rng(3), geom.dims)
        psi = random_fermion(rng, geom.dims + (4, 3))
        rotate = lambda f: np.einsum("xyztab,xyztsb->xyztsa", gt, f)
        s1 = GaussianSmearing(gauge_tiny, alpha=0.25, n_iter=3)
        s2 = GaussianSmearing(gauge_tiny.gauge_transform(gt), alpha=0.25, n_iter=3)
        np.testing.assert_allclose(rotate(s1.apply(psi)), s2.apply(rotate(psi)), atol=1e-10)

    def test_spreads_point_source(self, geom_tiny):
        """On a free field a delta function becomes a smooth profile."""
        gauge = GaugeField.cold(geom_tiny)
        sm = GaussianSmearing(gauge, alpha=0.25, n_iter=6)
        src = np.zeros(geom_tiny.dims + (4, 3), dtype=complex)
        src[0, 0, 0, 0, 0, 0] = 1.0
        out = sm.apply(src)
        # weight leaked off the source site but stayed on its timeslice
        assert abs(out[0, 0, 0, 0, 0, 0]) < 1.0
        assert abs(out[1, 0, 0, 0, 0, 0]) > 0.0
        assert np.abs(out[:, :, :, 1:]).max() < 1e-14  # time untouched

    def test_preserves_total_weight_free_field(self, geom_tiny):
        """The kernel (1+aH)/(1+6a) preserves the zero-momentum mode."""
        gauge = GaugeField.cold(geom_tiny)
        sm = GaussianSmearing(gauge, alpha=0.3, n_iter=5)
        flat = np.ones(geom_tiny.dims + (4, 3), dtype=complex)
        np.testing.assert_allclose(sm.apply(flat), flat, atol=1e-12)

    def test_validation(self, gauge_tiny):
        with pytest.raises(ValueError):
            GaussianSmearing(gauge_tiny, alpha=0.0)
        with pytest.raises(ValueError):
            GaussianSmearing(gauge_tiny, n_iter=0)
        sm = GaussianSmearing(gauge_tiny)
        with pytest.raises(ValueError):
            sm.apply(np.zeros((3, 3, 3, 3, 4, 3), dtype=complex))

    def test_radius_grows_with_iterations(self, gauge_tiny):
        r1 = GaussianSmearing(gauge_tiny, n_iter=4).smearing_radius()
        r2 = GaussianSmearing(gauge_tiny, n_iter=16).smearing_radius()
        assert r2 == pytest.approx(2.0 * r1)


class TestSequentialMethod:
    @pytest.fixture(scope="class")
    def setup(self):
        geom = Geometry(2, 2, 2, 8)
        gauge = GaugeField.random(geom, make_rng(77), scale=0.3)
        w = WilsonOperator(gauge, mass=0.3)
        solver = ConjugateGradient(tol=1e-11, max_iter=6000)
        u, _ = compute_wilson_propagator(w, solver=solver)
        # Feynman-Hellmann propagator for the equivalence check.
        ins = AxialInsertion4D()
        data_fh = np.zeros_like(u.data)
        for spin in range(4):
            for color in range(3):
                b = ins.apply(u.data[..., :, spin, :, color])
                res = solve_normal_equations(w.apply, w.apply_dagger, b, solver)
                data_fh[..., :, spin, :, color] = res.x
        u_fh = Propagator(data_fh, u.source)
        return geom, w, solver, u, u_fh

    def test_two_point_matrix_reduces_to_pion(self, setup):
        geom, w, solver, u, u_fh = setup
        c1 = pion_two_point_matrix(u, u)
        c2 = pion_correlator(u)
        # For identical props sum tr[S^H S] = sum |S|^2 (real positive).
        np.testing.assert_allclose(c1.real, c2, rtol=1e-12)
        assert np.abs(c1.imag).max() < 1e-12 * c2.max()

    def test_sequential_equals_fh_summed_over_insertions(self, setup):
        """THE identity behind the paper's algorithm: the traditional
        method summed over all insertion times equals the FH correlator
        at that sink time — FH just buys every sink time at once."""
        geom, w, solver, u, u_fh = setup
        for t_snk in (2, 5):
            seq = sequential_propagator(w, u, t_snk, solver)
            c3 = pion_three_point(seq, u, g.AXIAL_GAMMA3)
            fh_slice = np.einsum(
                "xyzABab,xyzABab->",
                np.conjugate(u.data[:, :, :, t_snk]),
                u_fh.data[:, :, :, t_snk],
            )
            assert c3.sum() == pytest.approx(fh_slice, rel=1e-7)

    def test_one_solve_per_sink_time(self, setup):
        """The traditional method's cost structure: a separate
        sequential solve per source-sink separation (the FH propagator
        is one solve for all of them)."""
        geom, w, solver, u, u_fh = setup
        seq2 = sequential_propagator(w, u, 2, solver)
        seq5 = sequential_propagator(w, u, 5, solver)
        assert not np.allclose(seq2.data, seq5.data)

    def test_vector_charge_insertion(self, setup):
        """With Gamma = gamma_4, the summed 3pt relates to the baryon
        number of the pion — nonzero and opposite for the two t-slices
        on either side of the sink (charge flows through the diagram)."""
        geom, w, solver, u, u_fh = setup
        seq = sequential_propagator(w, u, 4, solver)
        c3 = pion_three_point(seq, u, g.GAMMA[3])
        assert np.abs(c3).max() > 0.0

    def test_invalid_sink_time(self, setup):
        geom, w, solver, u, _ = setup
        with pytest.raises(ValueError):
            sequential_propagator(w, u, 99, solver)
