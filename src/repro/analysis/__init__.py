"""Statistical analysis: resampling, correlated fits, StN, neutron lifetime.

The chain that turns correlator ensembles into the paper's headline
numbers: jackknife/bootstrap resampling, correlated least-squares fits of
the two-point and Feynman-Hellmann data, model averaging over fit
windows, Parisi-Lepage signal-to-noise diagnostics, and the Standard-Model
neutron lifetime formula Eq. (1).
"""

from repro.analysis.resampling import jackknife, jackknife_covariance, bootstrap
from repro.analysis.fitting import FitResult, correlated_fit, two_state_c2, g_eff_model, ratio_model
from repro.analysis.ga_fit import GAFitResult, fit_fh_ensemble, fit_traditional_ensemble
from repro.analysis.stn import signal_to_noise, fit_stn_decay
from repro.analysis.lifetime import neutron_lifetime, NEUTRON_LIFETIME_NUMERATOR
from repro.analysis.model_average import ModelAverageResult, average_ga_over_windows, model_average

__all__ = [
    "jackknife",
    "jackknife_covariance",
    "bootstrap",
    "FitResult",
    "correlated_fit",
    "two_state_c2",
    "g_eff_model",
    "ratio_model",
    "GAFitResult",
    "fit_fh_ensemble",
    "fit_traditional_ensemble",
    "signal_to_noise",
    "fit_stn_decay",
    "neutron_lifetime",
    "NEUTRON_LIFETIME_NUMERATOR",
    "ModelAverageResult",
    "model_average",
    "average_ga_over_windows",
]
