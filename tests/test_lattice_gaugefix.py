"""Gauge fixing: convergence, monotonicity, invariance of observables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lattice import NC, GaugeField, GaugeFixer, Geometry, dagger
from repro.lattice.heatbath import _SUBGROUPS, _quat_to_su2, _su2_extract
from repro.utils.rng import make_rng


@pytest.fixture
def weak_gauge():
    geom = Geometry(4, 4, 4, 4)
    return GaugeField.random(geom, make_rng(9), scale=0.3)


def _dense_sweep(fx: GaugeFixer, gauge: GaugeField) -> None:
    """The relaxation sweep on full-lattice arrays: masked ``w``, a dense
    embedded ``g3`` per subgroup, then ``GaugeField.gauge_transform`` with
    the identity on the parity not being updated.  (No zero-rotation guard:
    a random field has none.)"""
    geom = gauge.geometry
    eye = lambda shape: np.broadcast_to(np.eye(NC), shape + (NC, NC)).astype(complex)
    for parity in (0, 1):
        mask = geom.parity_mask(parity)
        w = sum(gauge.u[mu] + dagger(geom.shift(gauge.u[mu], mu, -1)) for mu in fx.directions)
        w = w[mask]
        g_total = eye(w.shape[:1])
        for i, j in _SUBGROUPS:
            x = _su2_extract(w[:, (i, j)][:, :, (i, j)])
            v = x / np.linalg.norm(x, axis=-1, keepdims=True)
            vnorm = np.linalg.norm(v[:, 1:], axis=-1, keepdims=True)
            theta = fx.overrelax * np.arctan2(vnorm, v[:, :1])  # angle of V^H, overrelaxed
            q = np.concatenate([np.cos(theta), -v[:, 1:] / vnorm * np.sin(theta)], axis=-1)
            g3 = eye(w.shape[:1])
            g3[:, [i, i, j, j], [i, j, i, j]] = _quat_to_su2(q).reshape(-1, 4)
            w, g_total = g3 @ w, g3 @ g_total
        g_field = eye(geom.dims)
        g_field[mask] = g_total
        gauge.u = gauge.gauge_transform(g_field).u


class TestGaugeFixer:
    def test_coulomb_converges(self, weak_gauge):
        fx = GaugeFixer(gauge_type="coulomb", tol=1e-6, max_iter=500)
        res = fx.fix(weak_gauge)
        assert res.converged
        assert res.residual < 1e-6

    def test_landau_converges(self, weak_gauge):
        fx = GaugeFixer(gauge_type="landau", tol=1e-6, max_iter=800)
        res = fx.fix(weak_gauge)
        assert res.converged

    def test_functional_increases(self, weak_gauge):
        fx = GaugeFixer(gauge_type="coulomb", tol=1e-10, max_iter=3)
        f0 = fx.functional(weak_gauge)
        fx.fix(weak_gauge)
        assert fx.functional(weak_gauge) > f0

    def test_sweep_monotone(self, weak_gauge):
        fx = GaugeFixer(gauge_type="coulomb", overrelax=1.0)
        vals = [fx.functional(weak_gauge)]
        for _ in range(5):
            fx._sweep(weak_gauge)
            vals.append(fx.functional(weak_gauge))
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_plaquette_invariant(self, weak_gauge):
        plaq0 = weak_gauge.plaquette()
        GaugeFixer(gauge_type="coulomb", tol=1e-6, max_iter=300).fix(weak_gauge)
        assert weak_gauge.plaquette() == pytest.approx(plaq0, abs=1e-10)

    def test_links_stay_su3(self, weak_gauge):
        GaugeFixer(gauge_type="coulomb", tol=1e-6, max_iter=300).fix(weak_gauge)
        assert weak_gauge.unitarity_violation() < 1e-10

    def test_cold_field_already_fixed(self):
        gauge = GaugeField.cold(Geometry(2, 2, 2, 4))
        fx = GaugeFixer(gauge_type="landau", tol=1e-10, max_iter=10)
        res = fx.fix(gauge)
        assert res.converged
        assert res.functional == pytest.approx(1.0)

    def test_coulomb_leaves_time_links_free(self, weak_gauge):
        """Coulomb gauge only enters spatial links in the functional."""
        fx = GaugeFixer(gauge_type="coulomb")
        assert fx.directions == (0, 1, 2)
        assert GaugeFixer(gauge_type="landau").directions == (0, 1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaugeFixer(gauge_type="axial")
        with pytest.raises(ValueError):
            GaugeFixer(overrelax=2.5)

    @pytest.mark.parametrize("gauge_type", ["coulomb", "landau"])
    def test_sweep_matches_dense_oracle(self, weak_gauge, gauge_type):
        """The packed sweep is the dense algorithm, to rounding."""
        fx = GaugeFixer(gauge_type=gauge_type)
        dense = weak_gauge.copy()
        fx._sweep(weak_gauge)
        _dense_sweep(fx, dense)
        assert np.max(np.abs(weak_gauge.u - dense.u)) <= 1e-13

    def test_campaign_configuration(self):
        """The campaign's gauge_fix task: 35 sweeps, the same functional."""
        gauge = GaugeField.random(Geometry(4, 4, 4, 8), make_rng(2026), scale=0.35)
        res = GaugeFixer(gauge_type="coulomb", tol=1e-4, max_iter=60).fix(gauge)
        assert res.converged and res.iterations == 35
        assert res.functional == pytest.approx(0.8981009936102188, abs=1e-12)
