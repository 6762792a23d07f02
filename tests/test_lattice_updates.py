"""Gauge-field generation: heatbath thermalization and overrelaxation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lattice import GaugeField, Geometry, HeatbathUpdater
from repro.lattice.heatbath import _kennedy_pendleton, _quat_mul, _quat_conj, _quat_to_su2
from repro.utils.rng import make_rng
from tests.gauge_action import staple, wilson_action


class TestKennedyPendleton:
    def test_range(self):
        rng = make_rng(0)
        a0 = _kennedy_pendleton(np.full(500, 2.0), rng)
        assert np.all(a0 <= 1.0) and np.all(a0 >= -1.0)

    def test_large_alpha_concentrates_near_one(self):
        rng = make_rng(1)
        a0 = _kennedy_pendleton(np.full(500, 50.0), rng)
        assert a0.mean() > 0.9

    def test_small_alpha_broad(self):
        rng = make_rng(2)
        a0 = _kennedy_pendleton(np.full(2000, 0.05), rng)
        # Near-flat sqrt(1-a0^2) measure has mean ~0.
        assert abs(a0.mean()) < 0.15

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            _kennedy_pendleton(np.array([-1.0]), make_rng(0))

    def test_distribution_moment(self):
        """E[a0] under sqrt(1-a0^2) e^{alpha a0} matches numerics."""
        alpha = 4.0
        rng = make_rng(3)
        a0 = _kennedy_pendleton(np.full(40_000, alpha), rng)
        grid = np.linspace(-1, 1, 20_001)
        w = np.sqrt(1 - grid**2) * np.exp(alpha * grid)
        expected = (grid * w).sum() / w.sum()
        assert a0.mean() == pytest.approx(expected, abs=0.01)


class TestQuaternions:
    def test_mul_matches_matrix_product(self):
        rng = make_rng(4)
        q1 = rng.normal(size=(6, 4))
        q2 = rng.normal(size=(6, 4))
        q1 /= np.linalg.norm(q1, axis=-1, keepdims=True)
        q2 /= np.linalg.norm(q2, axis=-1, keepdims=True)
        lhs = _quat_to_su2(_quat_mul(q1, q2))
        rhs = _quat_to_su2(q1) @ _quat_to_su2(q2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_conj_is_dagger(self):
        rng = make_rng(5)
        q = rng.normal(size=(6, 4))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        lhs = _quat_to_su2(_quat_conj(q))
        rhs = np.conjugate(np.swapaxes(_quat_to_su2(q), -1, -2))
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestHeatbath:
    def test_links_stay_su3(self, geom_small):
        g = GaugeField.hot(geom_small, make_rng(7))
        hb = HeatbathUpdater(beta=5.7, rng=make_rng(8))
        hb.sweep(g)
        assert g.unitarity_violation() < 1e-10

    def test_thermalizes_from_both_starts(self, geom_small):
        """Hot and cold starts converge to the same plaquette."""
        beta = 5.9
        hot = GaugeField.hot(geom_small, make_rng(9))
        cold = GaugeField.cold(geom_small)
        hb1 = HeatbathUpdater(beta=beta, rng=make_rng(10))
        hb2 = HeatbathUpdater(beta=beta, rng=make_rng(11))
        p_hot = np.mean(hb1.thermalize(hot, 16)[-6:])
        p_cold = np.mean(hb2.thermalize(cold, 16)[-6:])
        assert p_hot == pytest.approx(p_cold, abs=0.05)
        # Known quenched value at beta=5.9 is ~0.58.
        assert 0.45 < p_hot < 0.70

    def test_strong_coupling_limit(self, geom_small):
        """At small beta the plaquette follows beta/18 + O(beta^3)."""
        beta = 0.9
        g = GaugeField.hot(geom_small, make_rng(12))
        hb = HeatbathUpdater(beta=beta, rng=make_rng(13), n_overrelax=0)
        p = np.mean(hb.thermalize(g, 14)[-6:])
        assert p == pytest.approx(beta / 18.0, abs=0.02)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HeatbathUpdater(beta=-1.0)
        with pytest.raises(ValueError):
            HeatbathUpdater(beta=1.0, n_overrelax=-1)

    def test_overrelaxation_preserves_action(self, geom_small):
        """A pure overrelaxation sweep must leave the action unchanged."""
        g = GaugeField.hot(geom_small, make_rng(14))
        hb = HeatbathUpdater(beta=5.5, rng=make_rng(15))
        before = wilson_action(g, 5.5)
        hb._sweep(g, mode="overrelax")
        after = wilson_action(g, 5.5)
        assert after == pytest.approx(before, rel=1e-6)


def _dense_sweep(hb: HeatbathUpdater, gauge: GaugeField, mode: str) -> None:
    """The sweep on full-lattice arrays: ``gauge_action.staple`` everywhere,
    masked gathers and a dense embedded ``g3`` per SU(2) subgroup."""
    from repro.lattice.heatbath import _SUBGROUPS, _random_unit_vector, _su2_extract

    geom = gauge.geometry
    for mu in range(4):
        for parity in (0, 1):
            mask = geom.parity_mask(parity)
            w = gauge.u[mu][mask] @ staple(gauge, mu)[mask]
            for i, j in _SUBGROUPS:
                x = _su2_extract(w[:, (i, j)][:, :, (i, j)])
                k = np.linalg.norm(x, axis=-1)
                v = x / k[:, None]
                if mode == "heatbath":
                    a0 = _kennedy_pendleton(2.0 * hb.beta * k / 3, hb.rng)
                    radial = np.sqrt(np.maximum(0.0, 1.0 - a0**2))[:, None]
                    direction = _random_unit_vector(a0.shape, hb.rng)
                    q = _quat_mul(np.concatenate([a0[:, None], radial * direction], -1),
                                  _quat_conj(v))
                else:
                    q = _quat_mul(_quat_conj(v), _quat_conj(v))
                g3 = np.broadcast_to(np.eye(3), w.shape).astype(complex)
                g3[:, [i, i, j, j], [i, j, i, j]] = _quat_to_su2(q).reshape(-1, 4)
                w = g3 @ w
                gauge.u[mu][mask] = g3 @ gauge.u[mu][mask]
    gauge.reunitarize()


class TestPackedHeatbath:
    # An overrelaxation step reflects the link it updates, so rounding
    # compounds over the sweep: on this hot start the dense sweep itself
    # moves by 4.8e-12 when the start is scaled by 1 + 1e-15.  A heatbath
    # step draws the new link afresh and forgets the old one's rounding.
    @pytest.mark.parametrize("mode, atol", [("heatbath", 1e-12), ("overrelax", 1e-10)])
    def test_one_sweep_matches_the_dense_oracle(self, mode, atol):
        """Staples on the updated parity only, two-row subgroup rotations
        and one gather/scatter per sweep: the same links as the dense
        full-lattice sweep from the same seed."""
        geom = Geometry(4, 4, 4, 8)
        start = GaugeField.hot(geom, make_rng(31))
        packed, dense = start.copy(), start.copy()
        HeatbathUpdater(beta=5.7, rng=make_rng(32))._sweep(packed, mode)
        _dense_sweep(HeatbathUpdater(beta=5.7, rng=make_rng(32)), dense, mode)
        assert np.abs(packed.u - start.u).max() > 0.1
        np.testing.assert_allclose(packed.u, dense.u, rtol=0, atol=atol)
