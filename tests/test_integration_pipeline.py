"""Cross-package integration: quenched ensemble -> measurement -> analysis.

One thread through the whole library, the way a user would run it:
generate configurations with the heatbath, persist them through the
field container, measure the g_A pipeline on each, and push the
correlators through the jackknife — every subsystem touching every
other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import jackknife, neutron_lifetime
from repro.core import GAPipeline
from repro.io import FieldFile
from repro.lattice import GaugeField, Geometry, HeatbathUpdater
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def mini_campaign(tmp_path_factory):
    """Three heatbath configurations, measured and persisted."""
    geom = Geometry(2, 2, 2, 4)
    gauge = GaugeField.random(geom, make_rng(90), scale=0.3)
    updater = HeatbathUpdater(beta=5.5, rng=make_rng(91))
    pipe = GAPipeline(fermion="wilson", mass=0.5, tol=1e-8)
    outdir = tmp_path_factory.mktemp("campaign")
    measurements = []
    for i in range(3):
        updater.thermalize(gauge, 2)  # decorrelation
        m = pipe.measure(gauge)
        ff = FieldFile({"config": i, "plaquette": gauge.plaquette()})
        ff.add("links", gauge.u)
        ff.add("pion", m.pion)
        ff.add("proton", m.proton)
        ff.add("c_fh", m.c_fh)
        path = outdir / f"meas_{i}.lq"
        ff.save(path)
        measurements.append(path)
    return geom, measurements


class TestMiniCampaign:
    def test_all_configurations_measured_and_persisted(self, mini_campaign):
        geom, paths = mini_campaign
        assert len(paths) == 3
        for p in paths:
            ff = FieldFile.load(p)
            assert set(ff.names()) == {"c_fh", "links", "pion", "proton"}
            assert 0.0 < ff.metadata["plaquette"] < 1.0

    def test_pions_positive_on_every_config(self, mini_campaign):
        geom, paths = mini_campaign
        for p in paths:
            pion = FieldFile.load(p)["pion"]
            assert np.all(pion > 0)

    def test_jackknife_over_the_ensemble(self, mini_campaign):
        geom, paths = mini_campaign
        pions = np.array([FieldFile.load(p)["pion"] for p in paths])
        val, err = jackknife(pions)
        assert val.shape == (geom.lt,)
        assert np.all(err >= 0)
        assert np.all(val > 0)

    def test_links_roundtrip_reconstructs_gauge(self, mini_campaign):
        geom, paths = mini_campaign
        ff = FieldFile.load(paths[-1])
        gauge = GaugeField(geom, ff["links"])
        assert gauge.unitarity_violation() < 1e-8
        assert gauge.plaquette() == pytest.approx(ff.metadata["plaquette"], abs=1e-10)

    def test_lifetime_from_any_ga(self, mini_campaign):
        # The analysis tail runs on whatever g_A the campaign would give.
        pred = neutron_lifetime(1.271, 0.02)
        assert 850 < pred.tau < 920
