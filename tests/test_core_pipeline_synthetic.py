"""End-to-end pipeline and the synthetic a09m310 ensemble generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GAPipeline, SyntheticEnsembleSpec, SyntheticGAEnsemble
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng


class TestGAPipeline:
    @pytest.fixture(scope="class")
    def measurement(self):
        geom = Geometry(2, 2, 2, 4)
        gauge = GaugeField.random(geom, make_rng(80), scale=0.3)
        pipe = GAPipeline(fermion="wilson", mass=0.3, tol=1e-9)
        return pipe.measure(gauge)

    def test_correlator_shapes(self, measurement):
        assert measurement.lt == 4
        assert measurement.pion.shape == (4,)
        assert measurement.proton.shape == (4,)
        assert measurement.c_fh.shape == (4,)
        assert measurement.g_eff.shape == (3,)

    def test_pion_positive(self, measurement):
        assert np.all(measurement.pion > 0)

    def test_accounting_populated(self, measurement):
        assert measurement.solver_iterations > 0
        assert measurement.solver_flops > 0

    def test_mobius_mode(self, monkeypatch):
        """The red-black solve charges its BLAS-1 on the sites a Krylov
        vector occupies, ``n_5d_sites / 2`` (the campaign executor's rule)."""
        from repro.core import pipeline
        from repro.dirac.flops import cg_blas_flops_per_site

        seen = {}
        fh_pair = pipeline.compute_fh_mobius_pair

        def spy(op, **kw):
            seen.update(op=op, solver=kw["solver"])
            return fh_pair(op, **kw)

        monkeypatch.setattr(pipeline, "compute_fh_mobius_pair", spy)
        geom = Geometry(2, 2, 2, 4)
        gauge = GaugeField.random(geom, make_rng(81), scale=0.3)
        pipe = GAPipeline(fermion="mobius", ls=4, mass=0.2, tol=1e-8)
        m = pipe.measure(gauge)
        assert np.all(m.pion > 0)
        op, solver = seen["op"], seen["solver"]
        per_iter = op.flops_per_normal_apply() + cg_blas_flops_per_site() * op.n_5d_sites / 2
        assert solver.flops_per_matvec + solver.blas_flops_per_iter == per_iter
        # every column iteration is charged; lock-step stacks and the
        # closing true-residual applications add the rest
        assert m.solver_iterations * per_iter <= m.solver_flops

    def test_bad_fermion_rejected(self):
        with pytest.raises(ValueError):
            GAPipeline(fermion="staggered")


class TestSyntheticSpec:
    def test_stn_exponent(self):
        spec = SyntheticEnsembleSpec()
        assert spec.stn_exponent == pytest.approx(spec.e0 - 1.5 * spec.m_pi)
        assert spec.stn_exponent > 0  # noise must grow

    def test_a09m310_scales(self):
        spec = SyntheticEnsembleSpec()
        # 1180 MeV at a = 0.09 fm is ~0.54 in lattice units.
        assert spec.e0 == pytest.approx(0.538, abs=0.01)
        assert spec.m_pi == pytest.approx(0.141, abs=0.01)
        assert spec.g_a == 1.271


class TestSyntheticSampler:
    @pytest.fixture(scope="class")
    def ens(self):
        return SyntheticGAEnsemble(rng=90)

    def test_sample_shapes(self, ens):
        c2, cfh = ens.sample_correlators(32)
        assert c2.shape == (32, ens.spec.lt)
        assert cfh.shape == (32, ens.spec.lt)

    def test_mean_converges_to_model(self):
        ens = SyntheticGAEnsemble(rng=91)
        c2, _ = ens.sample_correlators(4000)
        rel = np.abs(c2[:, :8].mean(axis=0) / ens.c2_mean()[:8] - 1.0)
        assert rel.max() < 0.02

    def test_noise_grows_with_parisi_lepage_exponent(self, ens):
        c2, _ = ens.sample_correlators(800)
        rel_err = c2.std(axis=0) / np.abs(c2.mean(axis=0))
        # relative noise must grow by ~e^{0.33} per timeslice
        assert rel_err[8] > 5.0 * rel_err[1]

    def test_g_eff_mean_approaches_ga(self, ens):
        """Contamination shrinks from ~0.3 at t=0 to a few percent by the
        end of the window (the slow dE decay is why the fit must model
        the excited state rather than wait for a plateau)."""
        geff = ens.g_eff_mean()
        assert abs(geff[-3] - ens.spec.g_a) < 0.04
        assert abs(geff[0] - ens.spec.g_a) > 0.1
        assert abs(geff[-3] - ens.spec.g_a) < abs(geff[0] - ens.spec.g_a)

    def test_traditional_shapes_and_noise(self, ens):
        data = ens.sample_traditional(64, tseps=(8, 10))
        assert set(data) == {8, 10}
        assert data[8].shape == (64, 7)
        # larger tsep -> exponentially larger noise
        assert data[10].std() > 1.5 * data[8].std()

    def test_traditional_bad_tsep(self, ens):
        with pytest.raises(ValueError):
            ens.sample_traditional(8, tseps=(1,))

    def test_sample_count_validated(self, ens):
        with pytest.raises(ValueError):
            ens.sample_correlators(0)

    def test_reproducible(self):
        a = SyntheticGAEnsemble(rng=7).sample_correlators(4)[0]
        b = SyntheticGAEnsemble(rng=7).sample_correlators(4)[0]
        np.testing.assert_array_equal(a, b)
