"""Correlated fits: parameter recovery and chi^2 behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    FitResult,
    correlated_fit,
    g_eff_model,
    ratio_model,
    two_state_c2,
)
from repro.analysis.fitting import traditional_ratio_model


def _gaussian_data(model, t, p_true, sigma, seed, n=400):
    rng = np.random.default_rng(seed)
    truth = model(t, np.asarray(p_true))
    samples = truth[None, :] + sigma * rng.normal(size=(n, len(t)))
    y = samples.mean(axis=0)
    cov = np.cov(samples.T) / n
    return y, cov


class TestCorrelatedFit:
    def test_recovers_two_state_parameters(self):
        t = np.arange(1.0, 12.0)
        p_true = (1.0, 0.5, 0.4, 0.3)
        y, cov = _gaussian_data(two_state_c2, t, p_true, 1e-4, seed=0)
        fit = correlated_fit(t, y, cov, two_state_c2, (0.9, 0.45, 0.3, 0.4))
        assert fit.converged
        np.testing.assert_allclose(fit.params, p_true, atol=0.05)

    def test_chi2_per_dof_near_one(self):
        t = np.arange(1.0, 14.0)
        p_true = (1.0, 0.5, 0.4, 0.3)
        chi2s = []
        for seed in range(8):
            y, cov = _gaussian_data(two_state_c2, t, p_true, 1e-4, seed=seed)
            fit = correlated_fit(t, y, cov, two_state_c2, p_true, shrinkage=0.0)
            chi2s.append(fit.chi2_per_dof)
        assert 0.3 < np.mean(chi2s) < 2.0

    def test_errors_scale_with_noise(self):
        t = np.arange(1.0, 12.0)
        p_true = (1.0, 0.5, 0.4, 0.3)
        errs = []
        for sigma in (1e-5, 1e-4):
            y, cov = _gaussian_data(two_state_c2, t, p_true, sigma, seed=3)
            fit = correlated_fit(t, y, cov, two_state_c2, p_true)
            errs.append(fit.errors[0])
        assert errs[1] > 3.0 * errs[0]

    def test_input_validation(self):
        t = np.arange(4.0)
        with pytest.raises(ValueError):
            correlated_fit(t, np.ones(3), np.eye(3), two_state_c2, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            correlated_fit(t, np.ones(4), np.eye(3), two_state_c2, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            correlated_fit(t, np.ones(4), np.eye(4), two_state_c2, (1,) * 4, shrinkage=2.0)

    def test_bounds_respected(self):
        t = np.arange(1.0, 10.0)
        y, cov = _gaussian_data(two_state_c2, t, (1.0, 0.5, 0.4, 0.3), 1e-4, seed=4)
        fit = correlated_fit(
            t, y, cov, two_state_c2, (1.0, 0.6, 0.4, 0.3),
            bounds=((0, 0.55, 0, 0), (10, 10, 10, 10)),
        )
        assert fit.params[1] >= 0.55


class TestModels:
    def test_g_eff_is_difference_of_ratio(self):
        t = np.arange(10.0)
        p_ratio = np.array([0.2, 1.27, 0.5, -0.2, 0.35])
        r = ratio_model(np.arange(11.0), p_ratio)
        expected = r[1:] - r[:-1]
        got = g_eff_model(t, p_ratio[1:])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_g_eff_asymptote(self):
        p = np.array([1.31, 0.4, -0.1, 0.5])
        val = g_eff_model(np.array([40.0]), p)
        assert val[0] == pytest.approx(1.31, abs=1e-8)

    def test_traditional_model_symmetric_in_tau(self):
        p = np.array([1.27, 0.3, 0.1, 0.4])
        tsep = 10.0
        tau = np.arange(1.0, 10.0)
        vals = traditional_ratio_model(tau, p, tsep)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)

    def test_traditional_model_midpoint_approaches_ga(self):
        p = np.array([1.27, 0.3, 0.0, 0.5])
        mid = traditional_ratio_model(np.array([10.0]), p, 20.0)
        assert mid[0] == pytest.approx(1.27, abs=0.01)

    def test_fit_result_chi2_per_dof_guard(self):
        fr = FitResult(np.ones(2), np.ones(2), chi2=1.0, dof=0, converged=True)
        assert fr.chi2_per_dof == np.inf


def test_measurement_pipeline_does_not_import_scipy():
    """SciPy serves the fits and the GEVP only; importing the measurement
    pipeline (which reaches ``repro.analysis`` through the error budget)
    must not pay its 0.4 s / 40 MB."""
    import subprocess
    import sys

    code = "import sys, repro.core.pipeline; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:] or "scipy was imported"
