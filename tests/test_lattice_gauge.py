"""Gauge field: plaquette, staples, action, gauge invariance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lattice import GaugeField, Geometry
from repro.lattice.su3 import NC, random_su3
from repro.utils.rng import make_rng
from tests.gauge_action import staple, wilson_action


class TestConstructors:
    def test_cold_plaquette_is_one(self, geom_tiny):
        assert GaugeField.cold(geom_tiny).plaquette() == pytest.approx(1.0)

    def test_hot_plaquette_near_zero(self, geom_small, rng):
        plaq = GaugeField.hot(geom_small, rng).plaquette()
        assert abs(plaq) < 0.15

    def test_weak_field_between(self, geom_small, rng):
        plaq = GaugeField.random(geom_small, rng, scale=0.2).plaquette()
        assert 0.5 < plaq < 1.0

    def test_links_unitary(self, gauge_small):
        assert gauge_small.unitarity_violation() < 1e-12

    def test_bad_shape_rejected(self, geom_tiny):
        with pytest.raises(ValueError):
            GaugeField(geom_tiny, np.zeros((4, 2, 2, 2, 2, 3, 3), dtype=complex))


class TestObservables:
    def test_wilson_action_zero_on_cold(self, geom_tiny):
        assert wilson_action(GaugeField.cold(geom_tiny), 6.0) == pytest.approx(0.0)

    def test_wilson_action_positive_on_random(self, gauge_small):
        assert wilson_action(gauge_small, 6.0) > 0.0

    def test_plaquette_requires_distinct_planes(self, gauge_tiny):
        with pytest.raises(ValueError):
            gauge_tiny.plaquette_field(1, 1)

    def test_plaquette_field_unitary_trace_bound(self, gauge_tiny):
        p = gauge_tiny.plaquette_field(0, 3)
        traces = np.trace(p, axis1=-2, axis2=-1)
        assert np.all(np.abs(traces) <= NC + 1e-12)

    def test_staple_action_identity(self, gauge_small):
        """sum_mu Re tr(U_mu A_mu) counts every plaquette four times."""
        total = 0.0
        for mu in range(4):
            ua = gauge_small.u[mu] @ staple(gauge_small, mu)
            total += float(np.trace(ua, axis1=-2, axis2=-1).real.sum())
        plaq_sum = gauge_small.plaquette() * NC * 6 * gauge_small.geometry.volume
        assert total == pytest.approx(4.0 * plaq_sum, rel=1e-10)


class TestGaugeInvariance:
    def test_plaquette_invariant(self, gauge_small, rng):
        g = random_su3(rng, gauge_small.geometry.dims)
        before = gauge_small.plaquette()
        after = gauge_small.gauge_transform(g).plaquette()
        assert after == pytest.approx(before, abs=1e-12)

    def test_action_invariant(self, gauge_small, rng):
        g = random_su3(rng, gauge_small.geometry.dims)
        before = wilson_action(gauge_small, 5.5)
        after = wilson_action(gauge_small.gauge_transform(g), 5.5)
        assert after == pytest.approx(before, rel=1e-10)

    def test_transform_preserves_unitarity(self, gauge_tiny, rng):
        g = random_su3(rng, gauge_tiny.geometry.dims)
        assert gauge_tiny.gauge_transform(g).unitarity_violation() < 1e-12

    def test_identity_transform_is_noop(self, gauge_tiny):
        eye = np.broadcast_to(
            np.eye(3, dtype=complex), gauge_tiny.geometry.dims + (3, 3)
        ).copy()
        out = gauge_tiny.gauge_transform(eye)
        np.testing.assert_allclose(out.u, gauge_tiny.u, atol=1e-14)

    def test_bad_transform_shape(self, gauge_tiny):
        with pytest.raises(ValueError):
            gauge_tiny.gauge_transform(np.eye(3, dtype=complex))


class TestFermionLinks:
    def test_antiperiodic_flips_last_timeslice(self, gauge_tiny):
        u = gauge_tiny.fermion_links(antiperiodic_t=True)
        np.testing.assert_allclose(u[3, :, :, :, -1], -gauge_tiny.u[3, :, :, :, -1])
        np.testing.assert_allclose(u[3, :, :, :, 0], gauge_tiny.u[3, :, :, :, 0])

    def test_periodic_is_copy(self, gauge_tiny):
        u = gauge_tiny.fermion_links(antiperiodic_t=False)
        np.testing.assert_allclose(u, gauge_tiny.u)
        u[0, 0, 0, 0, 0] = 0.0  # must not alias the original
        assert gauge_tiny.unitarity_violation() < 1e-12

    def test_spatial_links_untouched(self, gauge_tiny):
        u = gauge_tiny.fermion_links()
        for mu in range(3):
            np.testing.assert_allclose(u[mu], gauge_tiny.u[mu])


class TestMutation:
    def test_copy_is_deep(self, gauge_tiny):
        c = gauge_tiny.copy()
        c.u[:] = 0.0
        assert gauge_tiny.unitarity_violation() < 1e-12

    def test_reunitarize(self, gauge_tiny):
        gauge_tiny.u *= 1.0 + 1e-4
        assert gauge_tiny.unitarity_violation() > 1e-5
        gauge_tiny.reunitarize()
        assert gauge_tiny.unitarity_violation() < 1e-12
