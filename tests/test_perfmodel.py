"""Performance model: roofline, dslash cost, scaling anchors."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.machines import GPU_K20X, GPU_P100, GPU_V100, get_machine
from repro.perfmodel import (
    GPUKernelModel,
    LaunchParams,
    SolverPerfModel,
    dslash_cost,
    solver_performance,
    strong_scaling,
)
from repro.perfmodel.scaling import admissible_gpu_counts


class TestGPUKernelModel:
    def _model(self, gpu=GPU_V100):
        return GPUKernelModel(gpu, bytes_moved=1e8, flops=1.9e8)

    def test_time_positive_all_launches(self):
        m = self._model()
        from repro.perfmodel.gpu import BLOCK_SIZES

        for b in BLOCK_SIZES:
            assert m.time(LaunchParams(b)) > 0.0

    def test_best_no_worse_than_default(self):
        m = self._model()
        assert m.best_time() <= m.default_time() + 1e-15

    def test_efficiency_bounded(self):
        m = self._model()
        for b in (32, 256, 1024):
            assert 0.30 <= m.efficiency(LaunchParams(b)) <= 1.0

    def test_optimum_depends_on_architecture(self):
        """Different GPU generations tune to different block sizes —
        the performance-portability motivation for run-time tuning."""
        from repro.perfmodel.gpu import BLOCK_SIZES

        def argbest(gpu):
            m = GPUKernelModel(gpu, bytes_moved=1e8)
            return min(BLOCK_SIZES, key=lambda b: m.time(LaunchParams(b)))

        assert argbest(GPU_K20X) != argbest(GPU_V100)

    def test_invalid_launch_params(self):
        with pytest.raises(ValueError):
            LaunchParams(100)
        with pytest.raises(ValueError):
            LaunchParams(128, reg_cap=2)


class TestDslashCost:
    def test_arithmetic_intensity_in_paper_band(self):
        cost = dslash_cost(48**3 * 64 // 16, ls=20)
        assert 1.8 <= cost.arithmetic_intensity <= 1.9

    def test_flops_in_paper_band(self):
        for ls in (12, 16, 20):
            cost = dslash_cost(10_000, ls=ls)
            per_site = cost.flops_stencil / cost.local_5d_sites
            assert 10_000 <= per_site <= 12_000

    def test_blas_fraction_small(self):
        cost = dslash_cost(100_000, ls=12)
        assert cost.flops_blas < 0.02 * cost.flops_stencil

    def test_validation(self):
        with pytest.raises(ValueError):
            dslash_cost(0, 12)


class TestCalibrationAnchors:
    """The Section VII numbers the model is calibrated to."""

    def test_sierra_20_percent_at_low_node_count(self):
        sierra = get_machine("sierra")
        p = solver_performance(sierra, (48, 48, 48, 64), 20, 16)
        assert p.pct_peak(sierra.gpu.fp32_tflops) == pytest.approx(20.0, abs=1.5)

    @pytest.mark.parametrize(
        "name,n_gpus,target",
        [("titan", 1, 139.0), ("ray", 4, 516.0), ("sierra", 4, 975.0)],
    )
    def test_effective_bandwidth_per_gpu(self, name, n_gpus, target):
        m = get_machine(name)
        p = solver_performance(m, (48, 48, 48, 64), 20, n_gpus)
        assert p.bw_per_gpu_gbs == pytest.approx(target, rel=0.05)

    def test_summit_approaches_1p5_pflops(self):
        """Fig. 4: 96^3 x 144 strong scaling approaches 1.5 PFlops."""
        summit = get_machine("summit")
        model = SolverPerfModel(summit, (96, 96, 96, 144), 20)
        peak = max(model.predict(n).pflops_total for n in (4608, 6912, 9216))
        assert peak == pytest.approx(1.5, abs=0.25)

    def test_summit_efficiency_cliff_past_2000_gpus(self):
        summit = get_machine("summit")
        model = SolverPerfModel(summit, (96, 96, 96, 144), 20)
        eff_small = model.predict(768).tflops_per_gpu
        eff_large = model.predict(4608).tflops_per_gpu
        assert eff_large < 0.5 * eff_small

    def test_summit_total_still_grows_past_the_cliff(self):
        model = SolverPerfModel(get_machine("summit"), (96, 96, 96, 144), 20)
        assert model.predict(6912).pflops_total > model.predict(2304).pflops_total

    def test_sierra_20_percent_at_its_smallest_point(self):
        """Fig. 3's leftmost Sierra point, one node of 4 GPUs."""
        sierra = get_machine("sierra")
        p = solver_performance(sierra, (48, 48, 48, 64), 20, 4)
        assert p.pct_peak(sierra.gpu.fp32_tflops) == pytest.approx(20.0, abs=2.0)


class TestScalingShapes:
    def test_generation_ordering_everywhere(self):
        """Fig. 3: Sierra > Ray > Titan at every GPU count, in TFlops,
        percent of peak and bandwidth."""
        curves = {}
        for name in ("titan", "ray", "sierra"):
            m = get_machine(name)
            curves[name] = {
                p.n_gpus: p for p in strong_scaling(m, (48, 48, 48, 64), 20, gpu_counts=[16, 32, 64, 128])
            }
        for n in (16, 32, 64, 128):
            assert (
                curves["sierra"][n].tflops_total
                > curves["ray"][n].tflops_total
                > curves["titan"][n].tflops_total
            )
            assert (
                curves["sierra"][n].bw_per_gpu_gbs
                > curves["ray"][n].bw_per_gpu_gbs
                > curves["titan"][n].bw_per_gpu_gbs
            )

    @pytest.mark.parametrize("name,first", [("titan", 1), ("ray", 4), ("sierra", 4)])
    def test_per_gpu_rate_declines_on_every_generation(self, name, first):
        m = get_machine(name)
        low, high = strong_scaling(m, (48, 48, 48, 64), 20, gpu_counts=[first, 144])
        assert high.tflops_per_gpu < low.tflops_per_gpu

    def test_percent_of_peak_declines_with_scale(self):
        sierra = get_machine("sierra")
        pts = strong_scaling(sierra, (48, 48, 48, 64), 20, gpu_counts=[16, 64, 144])
        pcts = [p.pct_peak(sierra.gpu.fp32_tflops) for p in pts]
        assert pcts[0] > pcts[1] > pcts[2]

    def test_total_tflops_increases_with_gpus(self):
        sierra = get_machine("sierra")
        pts = strong_scaling(sierra, (48, 48, 48, 64), 20, gpu_counts=[16, 64, 144])
        assert pts[0].tflops_total < pts[1].tflops_total < pts[2].tflops_total

    def test_admissible_counts_whole_nodes(self):
        sierra = get_machine("sierra")
        counts = admissible_gpu_counts(sierra, (48, 48, 48, 64), max_gpus=64)
        assert all(c % 4 == 0 for c in counts)
        assert 16 in counts

    def test_autotuned_policy_never_worse(self):
        """The tuned policy is optimal within the policy set — the
        communication-autotuning claim of Section V."""
        from repro.comm import available_policies

        sierra = get_machine("sierra")
        model = SolverPerfModel(sierra, (48, 48, 48, 64), 20)
        for n in (16, 64):
            tuned = model.iteration_time(n, model.tuned_policy(n))
            for pol in available_policies(sierra):
                assert tuned <= model.iteration_time(n, pol) + 1e-15

    def test_tuning_beats_a_fixed_policy_somewhere(self):
        """Against a fixed staged/fused policy the tuned one gains > 10 %
        somewhere on Fig. 3's Sierra range."""
        from repro.comm.policies import CommPolicy, HaloGranularity, TransferPath

        model = SolverPerfModel(get_machine("sierra"), (48, 48, 48, 64), 20)
        fixed = CommPolicy(TransferPath.STAGED_CPU, HaloGranularity.FUSED)
        gains = [
            model.iteration_time(n, fixed) / model.iteration_time(n, model.tuned_policy(n))
            for n in (16, 32, 64, 96, 144)
        ]
        assert min(gains) >= 1.0 and max(gains) > 1.1

    def test_gpu_direct_rdma_pays_most_at_the_cliff(self):
        """The paper's missing piece: with GDR the Fig. 4 solve at 9216
        GPUs runs > 1.3x faster, on a GDR policy."""
        summit = get_machine("summit")
        base = SolverPerfModel(summit, (96, 96, 96, 144), 20).predict(9216)
        gdr = SolverPerfModel(
            dataclasses.replace(summit, gdr_supported=True), (96, 96, 96, 144), 20
        ).predict(9216)
        assert gdr.pflops_total > 1.3 * base.pflops_total
        assert "gdr" in gdr.policy

    def test_mpi_factor_scales_rate(self):
        sierra = get_machine("sierra")
        fast = SolverPerfModel(sierra, (48, 48, 48, 64), 20).predict(16)
        slow = SolverPerfModel(
            sierra, (48, 48, 48, 64), 20, mpi_performance_factor=0.93
        ).predict(16)
        assert slow.tflops_total == pytest.approx(0.93 * fast.tflops_total, rel=0.01)


class TestPerfPointAccounting:
    def test_pct_peak_uses_1675_factor(self):
        sierra = get_machine("sierra")
        p = solver_performance(sierra, (48, 48, 48, 64), 20, 16)
        raw_frac = p.tflops_per_gpu / sierra.gpu.fp32_tflops
        assert p.pct_peak(sierra.gpu.fp32_tflops) == pytest.approx(100 * raw_frac * 1.675)

    def test_bandwidth_uses_reporting_ai(self):
        sierra = get_machine("sierra")
        p = solver_performance(sierra, (48, 48, 48, 64), 20, 16)
        assert p.bw_per_gpu_gbs == pytest.approx(p.tflops_per_gpu * 1000 / 1.9)
