"""Weak-scaling campaign driver (the engine behind Figs. 5-7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machines import get_machine
from repro.workflow.weakscaling import (
    WeakScalingPoint,
    run_weak_scaling,
    solve_performance_histogram,
)


@pytest.fixture(scope="module")
def sierra():
    return get_machine("sierra")


class TestRunWeakScaling:
    @pytest.mark.parametrize("mode", ["spectrum", "openmpi", "mvapich2", "metaq"])
    def test_all_modes_complete(self, sierra, mode):
        p = run_weak_scaling(sierra, 8, mode, rng=1)
        assert isinstance(p, WeakScalingPoint)
        assert p.n_gpus == 8 * 4 * sierra.gpus_per_node
        assert p.sustained_pflops > 0
        assert 0 < p.gpu_utilization <= 1.0

    def test_aggregate_grows_with_groups(self, sierra):
        small = run_weak_scaling(sierra, 8, "mvapich2", rng=2)
        big = run_weak_scaling(sierra, 32, "mvapich2", rng=2)
        assert big.sustained_pflops > 2.0 * small.sustained_pflops

    def test_weak_scaling_near_linear(self, sierra):
        """Per-GPU sustained rate roughly flat across scales."""
        pts = [run_weak_scaling(sierra, n, "mvapich2", rng=3) for n in (8, 32, 64)]
        per_gpu = [p.sustained_pflops / p.n_gpus for p in pts]
        assert max(per_gpu) / min(per_gpu) < 1.25

    def test_mvapich2_pays_solver_penalty_vs_metaq(self, sierra):
        """Same scheduler efficiency class, but the untuned MVAPICH2
        build runs each solve 7% slower."""
        m = run_weak_scaling(sierra, 16, "mvapich2", rng=4)
        q = run_weak_scaling(sierra, 16, "metaq", rng=4)
        assert m.sustained_pflops < q.sustained_pflops

    def test_summit_mode(self):
        summit = get_machine("summit")
        p = run_weak_scaling(summit, 8, "metaq", global_dims=(64, 64, 64, 96), ls=12, rng=5)
        assert p.n_gpus == 8 * 4 * 6
        assert p.sustained_pflops > 0

    def test_validation(self, sierra):
        with pytest.raises(ValueError):
            run_weak_scaling(sierra, 0, "mvapich2")
        with pytest.raises(ValueError):
            run_weak_scaling(sierra, 4, "slurm")


class TestHistogram:
    def test_histogram_properties(self, sierra):
        counts, edges, point = solve_performance_histogram(sierra, 24, bins=8, rng=6)
        assert counts.sum() == 24 * 3  # WAVES solves per group
        assert len(edges) == 9
        assert np.all(np.diff(edges) > 0)
        assert point.n_gpus == 24 * 16

    def test_rates_positive_and_physical(self, sierra):
        counts, edges, _ = solve_performance_histogram(sierra, 16, rng=7)
        assert edges[0] > 0
        # a 16-GPU group cannot exceed ~16 x 2 TF even with jitter
        assert edges[-1] < 50.0


class TestPaperFigures:
    """The shapes of Figs. 5-7 at the paper's own scale."""

    def test_fig5_launch_modes_within_twenty_percent(self, sierra):
        rates = [
            run_weak_scaling(sierra, 100, mode, rng=11).sustained_pflops
            for mode in ("spectrum", "openmpi", "mvapich2")
        ]
        assert max(rates) / min(rates) < 1.20

    def test_fig6_summit_metaq_scales_perfectly(self):
        summit = get_machine("summit")
        points = {
            n: run_weak_scaling(summit, n, "metaq", global_dims=(64, 64, 64, 96), ls=12, rng=13)
            for n in (12, 24, 48, 96, 144, 216, 288)
        }
        per_gpu = np.array([p.sustained_pflops / p.n_gpus for p in points.values()])
        assert per_gpu.std() / per_gpu.mean() < 0.05
        assert points[288].n_gpus == 6912
        assert 5.0 < points[288].sustained_pflops < 11.0

    def test_fig7_histogram_at_13520_gpus_is_unimodal(self, sierra):
        """845 concurrent 4-node solves: a dominant peak, sparse tails,
        and a spread from node jitter that stays bounded."""
        counts, edges, point = solve_performance_histogram(sierra, 845, bins=14, rng=7)
        assert point.n_gpus == 13520
        assert counts.max() > 0.15 * counts.sum()
        assert counts[0] + counts[-1] < 0.1 * counts.sum()
        mids = 0.5 * (edges[:-1] + edges[1:])
        mean = np.average(mids, weights=counts)
        std = np.sqrt(np.average((mids - mean) ** 2, weights=counts))
        assert 0.02 < std / mean < 0.25
