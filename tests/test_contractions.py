"""Propagators, pion and nucleon correlators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contractions import (
    Propagator,
    compute_propagator,
    compute_wilson_propagator,
    pion_correlator,
    point_source,
    point_source_5d,
    proton_correlator,
    proton_correlator_bilinear,
)
from repro.dirac import MobiusOperator, WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.lattice.su3 import random_su3
from repro.solvers import ConjugateGradient
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def wilson_prop():
    """One Wilson propagator on a weak-field 2x2x2x4 lattice (module-
    scoped: propagator solves are the expensive part of these tests)."""
    geom = Geometry(2, 2, 2, 4)
    gauge = GaugeField.random(geom, make_rng(50), scale=0.3)
    w = WilsonOperator(gauge, mass=0.3)
    prop, stats = compute_wilson_propagator(
        w, solver=ConjugateGradient(tol=1e-10, max_iter=2000)
    )
    return geom, gauge, w, prop, stats


class TestSources:
    def test_point_source_single_entry(self):
        geom = Geometry(2, 2, 2, 4)
        src = point_source(geom, (1, 0, 1, 2), 2, 1)
        assert src[1, 0, 1, 2, 2, 1] == 1.0
        assert np.abs(src).sum() == 1.0

    def test_point_source_bad_site(self):
        geom = Geometry(2, 2, 2, 4)
        with pytest.raises(ValueError):
            point_source(geom, (2, 0, 0, 0), 0, 0)

    def test_wall_source_chiral_structure(self, gauge_tiny):
        mob = MobiusOperator(gauge_tiny, ls=4, mass=0.1)
        src = point_source_5d(mob, (0, 0, 0, 0), 0, 0)
        # spin 0 is chirality +: only the s=0 wall is populated.
        assert np.abs(src[0]).sum() > 0
        assert np.abs(src[1:-1]).sum() == 0.0


class TestPropagatorSolve:
    def test_propagator_satisfies_dirac_equation(self, wilson_prop, rng):
        geom, gauge, w, prop, stats = wilson_prop
        # Column (spin 1, colour 2): D S = delta-source.
        col = prop.data[..., :, 1, :, 2]
        out = w.apply(col)
        src = point_source(geom, (0, 0, 0, 0), 1, 2)
        np.testing.assert_allclose(out, src, atol=1e-7)

    def test_all_columns_converged(self, wilson_prop):
        *_, stats = wilson_prop
        assert all(s.converged for s in stats)
        assert len(stats) == 12

    def test_shifted_to_origin(self, wilson_prop):
        geom, gauge, w, _, _ = wilson_prop
        prop2, _ = compute_wilson_propagator(
            w, site=(0, 0, 0, 2), solver=ConjugateGradient(tol=1e-10, max_iter=2000)
        )
        shifted = prop2.shifted_to_origin()
        # Source support now at t=0: the source-point entry is ~1.
        assert abs(shifted[0, 0, 0, 0, 0, 0, 0, 0]) > 0.05

    def test_bad_tail_shape_rejected(self):
        with pytest.raises(ValueError):
            Propagator(np.zeros((2, 2, 2, 4, 4, 4, 3, 2), dtype=complex), (0, 0, 0, 0))


class TestPion:
    def test_positive(self, wilson_prop):
        *_, prop, _ = wilson_prop[2:4], wilson_prop[3], wilson_prop[4]
        pion = pion_correlator(wilson_prop[3])
        assert np.all(pion > 0.0)

    def test_time_reflection_symmetry_free_field(self, geom_tiny):
        """On a cold configuration C(t) == C(Lt - t)."""
        gauge = GaugeField.cold(geom_tiny)
        w = WilsonOperator(gauge, mass=0.3)
        prop, _ = compute_wilson_propagator(w, solver=ConjugateGradient(tol=1e-10))
        pion = pion_correlator(prop)
        np.testing.assert_allclose(pion[1:], pion[1:][::-1], rtol=1e-6)

    def test_decays_from_source(self, wilson_prop):
        pion = pion_correlator(wilson_prop[3])
        lt = len(pion)
        assert pion[0] > pion[lt // 2]


def _proton_bilinear_einsum(u1, u2, d, proj):
    """The three-einsum form of ``proton_correlator_bilinear`` (the
    implementation before the matmul one): the oracle for it."""
    from repro.contractions.baryons import _T, _TBAR

    eps = np.zeros((3, 3, 3))
    eps[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
    eps[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0
    s1, s2, sd = (p.shifted_to_origin() for p in (u1, u2, d))
    gtilde = np.einsum("AB,...BRbe,RS->...ASbe", _T, sd, _TBAR, optimize=True)
    tr2 = np.einsum("GH,...HGcf->...cf", proj, s2, optimize=True)
    direct = np.einsum(
        "abc,def,...ASad,...ASbe,...cf->...", eps, eps, s1, gtilde, tr2, optimize=True
    )
    exchange = np.einsum(
        "abc,def,HG,...ASbe,...AHaf,...GScd->...", eps, eps, proj, gtilde, s1, s2,
        optimize=True,
    )
    return (direct - exchange).sum(axis=(0, 1, 2))


class TestProton:
    @pytest.mark.parametrize("projector", ["positive_parity", "spin_polarized"])
    def test_matmul_form_matches_einsum_oracle(self, rng, projector):
        """Three different random 'propagators' off-origin (u1 != u2, as
        in the Feynman-Hellmann derivative), both projectors in use."""
        from repro.contractions.baryons import POSITIVE_PARITY
        from repro.core.feynman_hellmann import SPIN_POLARIZED_PROJ

        proj = POSITIVE_PARITY if projector == "positive_parity" else SPIN_POLARIZED_PROJ
        shape = (2, 2, 2, 4, 4, 4, 3, 3)
        u1, u2, d = (
            Propagator(rng.normal(size=shape) + 1j * rng.normal(size=shape), (1, 0, 1, 3))
            for _ in range(3)
        )
        got = proton_correlator_bilinear(u1, u2, d, projector=proj)
        want = _proton_bilinear_einsum(u1, u2, d, proj)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_imaginary_part_subdominant(self, wilson_prop):
        """Single-configuration correlators are only real after ensemble
        averaging; on a weak field the imaginary part must already be a
        small fluctuation on top of the real signal."""
        prop = wilson_prop[3]
        c = proton_correlator(prop, prop)
        assert np.abs(c.imag).max() < 0.05 * np.abs(c.real).max()

    def test_positive_on_free_field(self, geom_tiny):
        gauge = GaugeField.cold(geom_tiny)
        w = WilsonOperator(gauge, mass=0.3)
        prop, _ = compute_wilson_propagator(w, solver=ConjugateGradient(tol=1e-10))
        c = proton_correlator(prop, prop).real
        assert np.all(c[: len(c) // 2] > 0.0)

    def test_bilinear_reduces_to_standard(self, wilson_prop):
        prop = wilson_prop[3]
        c1 = proton_correlator(prop, prop)
        c2 = proton_correlator_bilinear(prop, prop, prop)
        np.testing.assert_allclose(c1, c2, atol=1e-14)

    def test_bilinearity(self, wilson_prop):
        """C is separately linear in each u-quark slot."""
        prop = wilson_prop[3]
        scaled = Propagator(2.0 * prop.data, prop.source)
        c_scaled = proton_correlator_bilinear(scaled, prop, prop)
        c_base = proton_correlator_bilinear(prop, prop, prop)
        np.testing.assert_allclose(c_scaled, 2.0 * c_base, rtol=1e-12)

    def test_gauge_invariance(self, geom_tiny, rng):
        """The full correlator is exactly gauge invariant."""
        gauge = GaugeField.random(geom_tiny, make_rng(60), scale=0.3)
        gt = random_su3(make_rng(61), geom_tiny.dims)
        solver = ConjugateGradient(tol=1e-11, max_iter=3000)
        w1 = WilsonOperator(gauge, mass=0.3)
        p1, _ = compute_wilson_propagator(w1, solver=solver)
        w2 = WilsonOperator(gauge.gauge_transform(gt), mass=0.3)
        p2, _ = compute_wilson_propagator(w2, solver=solver)
        c1 = proton_correlator(p1, p1)
        c2 = proton_correlator(p2, p2)
        np.testing.assert_allclose(c1, c2, rtol=1e-6, atol=1e-12)


class TestMobiusPropagator:
    def test_boundary_projection_and_pion(self, gauge_tiny):
        mob = MobiusOperator(gauge_tiny, ls=4, mass=0.2)
        prop, stats = compute_propagator(
            mob, solver=ConjugateGradient(tol=1e-8, max_iter=4000)
        )
        assert all(s.converged for s in stats)
        pion = pion_correlator(prop)
        assert np.all(pion > 0)
        assert pion[0] > pion[2]

    def test_evenodd_matches_full_solve(self, gauge_tiny):
        mob = MobiusOperator(gauge_tiny, ls=4, mass=0.2)
        solver = ConjugateGradient(tol=1e-10, max_iter=4000)
        p_eo, _ = compute_propagator(mob, solver=solver, use_evenodd=True)
        p_full, _ = compute_propagator(mob, solver=solver, use_evenodd=False)
        np.testing.assert_allclose(p_eo.data, p_full.data, atol=1e-7)
