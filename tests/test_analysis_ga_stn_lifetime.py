"""g_A extraction, signal-to-noise diagnostics and Eq. (1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    fit_fh_ensemble,
    fit_stn_decay,
    fit_traditional_ensemble,
    neutron_lifetime,
    signal_to_noise,
)
from repro.analysis.ga_fit import fit_fh_joint, g_eff_jackknife
from repro.analysis.lifetime import TAU_BEAM, TAU_TRAP
from repro.core import SyntheticGAEnsemble


@pytest.fixture(scope="module")
def ensemble():
    ens = SyntheticGAEnsemble(rng=100)
    c2, cfh = ens.sample_correlators(784)
    return ens, c2, cfh


class TestGEffJackknife:
    def test_center_is_ratio_of_means(self, ensemble):
        ens, c2, cfh = ensemble
        center, reps = g_eff_jackknife(c2, cfh)
        r = cfh.sum(0) / c2.sum(0)
        np.testing.assert_allclose(center, r[1:] - r[:-1])
        assert reps.shape == (784, ens.spec.lt - 1)

    def test_replicates_cluster_around_center(self, ensemble):
        _, c2, cfh = ensemble
        center, reps = g_eff_jackknife(c2, cfh)
        assert np.abs(reps[:, :6] - center[:6]).max() < 0.05

    def test_error_grows_exponentially_in_t(self, ensemble):
        """Fig. 1's large-t noise: the jackknife error at t = 10 is more
        than 20x the error at t = 1."""
        _, c2, cfh = ensemble
        _, reps = g_eff_jackknife(c2, cfh)
        err = np.sqrt((reps.shape[0] - 1) * reps.var(axis=0))
        assert err[10] > 20 * err[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            g_eff_jackknife(np.ones((3, 4)), np.ones((3, 5)))
        with pytest.raises(ValueError):
            g_eff_jackknife(np.ones((1, 4)), np.ones((1, 4)))


class TestFHFits:
    def test_joint_fit_recovers_truth_at_one_percent(self, ensemble):
        """The paper's headline: ~1% g_A from O(800) samples."""
        ens, c2, cfh = ensemble
        fit = fit_fh_joint(c2, cfh, t_min=1, t_max=10)
        assert fit.relative_error < 0.02
        assert abs(fit.g_a - ens.spec.g_a) < 3.0 * fit.error
        assert fit.chi2_per_dof < 3.0

    def test_simple_fit_consistent_but_wider(self, ensemble):
        ens, c2, cfh = ensemble
        joint = fit_fh_joint(c2, cfh, t_min=1, t_max=10)
        simple = fit_fh_ensemble(c2, cfh, t_min=1, t_max=10)
        assert simple.error > joint.error
        assert abs(simple.g_a - ens.spec.g_a) < 4.0 * simple.error

    def test_bad_window(self, ensemble):
        _, c2, cfh = ensemble
        with pytest.raises(ValueError):
            fit_fh_joint(c2, cfh, t_min=9, t_max=5)


class TestTraditionalFit:
    def test_traditional_with_10x_samples_is_less_precise(self, ensemble):
        """Fig. 1's comparison: FH beats traditional with 10x the data."""
        ens, c2, cfh = ensemble
        fh = fit_fh_joint(c2, cfh, t_min=1, t_max=10)
        trad = fit_traditional_ensemble(ens.sample_traditional(7840))
        assert trad.error > 2.0 * fh.error
        assert abs(trad.g_a - ens.spec.g_a) < 4.0 * trad.error

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_traditional_ensemble({})


class TestSignalToNoise:
    def test_decay_rate_matches_parisi_lepage(self, ensemble):
        ens, c2, _ = ensemble
        stn = signal_to_noise(c2)
        rate, _ = fit_stn_decay(stn, t_min=1, t_max=12)
        assert rate == pytest.approx(ens.spec.stn_exponent, abs=0.05)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            signal_to_noise(np.ones((1, 8)))

    def test_fit_window_validated(self, ensemble):
        _, c2, _ = ensemble
        stn = signal_to_noise(c2)
        with pytest.raises(ValueError):
            fit_stn_decay(stn, t_min=10, t_max=10)


class TestLifetime:
    def test_equation_one_at_cms_ga(self):
        """g_A = 1.2755 (the Czarnecki-Marciano-Sirlin favoured value)
        gives the trap lifetime ~879.5 s through Eq. (1)."""
        pred = neutron_lifetime(1.2755)
        assert pred.tau == pytest.approx(879.5, abs=1.0)

    def test_monotone_decreasing_in_ga(self):
        assert neutron_lifetime(1.30).tau < neutron_lifetime(1.25).tau

    def test_error_propagation(self):
        pred = neutron_lifetime(1.271, 0.013)
        # dtau/dga ~ -920 s: 0.013 -> ~12 s
        assert 8.0 < pred.error < 16.0

    def test_tension_calculation(self):
        pred = neutron_lifetime(1.2723, 0.0023)
        assert pred.sigma_from(TAU_TRAP) < 2.0
        assert pred.sigma_from(TAU_BEAM) > pred.sigma_from(TAU_TRAP)

    def test_invalid_ga(self):
        with pytest.raises(ValueError):
            neutron_lifetime(-1.0)

    def test_one_percent_brackets_both_experiments(self):
        """The paper's 1 % g_A sits within 1.5 sigma of the trap and the
        beam lifetimes; the 0.2 % goal puts the beam value > 2 sigma off."""
        one_pct = neutron_lifetime(1.271, 0.013)
        assert one_pct.sigma_from(TAU_TRAP) < 1.5
        assert one_pct.sigma_from(TAU_BEAM) < 1.5
        goal = neutron_lifetime(1.2755, 1.2755 * 0.002)
        assert goal.sigma_from(TAU_BEAM) > 2.0

    def test_resolving_power_needs_two_permille(self):
        """The paper's motivation: 0.2% on g_A separates trap from beam."""
        precise = neutron_lifetime(1.2723, 1.2723 * 0.002)
        loose = neutron_lifetime(1.2723, 1.2723 * 0.01)
        gap = abs(TAU_BEAM[0] - TAU_TRAP[0])
        assert precise.error < gap / 2.0 < loose.error * 2.5
