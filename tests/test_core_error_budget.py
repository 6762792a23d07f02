"""The g_A error-budget decomposition (Section III)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.error_budget import ErrorBudget, measure_error_budget


class TestErrorBudget:
    def test_total_is_quadrature_sum(self):
        b = ErrorBudget(
            n_samples=100, g_a=1.27, statistical=0.03, excited_state=0.04, extrapolation=0.0
        )
        assert b.total == pytest.approx(0.05)
        assert b.relative_total == pytest.approx(0.05 / 1.27)

    def test_measurement_consistent_with_truth(self):
        b = measure_error_budget(784, rng=5)
        assert abs(b.g_a - 1.271) < 4.0 * b.total
        assert b.statistical > 0 and b.excited_state >= 0 and b.extrapolation > 0

    def test_statistics_shrink_with_samples(self):
        small = np.mean([measure_error_budget(196, rng=s).statistical for s in range(3)])
        large = np.mean([measure_error_budget(1568, rng=s).statistical for s in range(3)])
        assert large < 0.7 * small

    def test_calculation_time_improves_every_component(self):
        """Section III: more samples shrink all three dominant
        uncertainties at once (mean of 4 replicas), to ~1 % overall."""
        means = []
        for n in (196, 784, 3136):
            budgets = [measure_error_budget(n, rng=seed) for seed in range(4)]
            means.append(
                {
                    key: np.mean([getattr(b, key) for b in budgets])
                    for key in ("statistical", "excited_state", "extrapolation", "relative_total")
                }
            )
        for key in means[0]:
            assert means[0][key] > means[1][key] > means[2][key], key
        assert means[2]["relative_total"] < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_error_budget(4)
