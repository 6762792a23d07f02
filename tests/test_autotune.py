"""Autotuners: brute-force search, tune cache, comm policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune import CommPolicyTuner, KernelAutotuner, TuneKey
from repro.comm import TransferPath
from repro.machines import GPU_V100, get_machine
from repro.perfmodel import GPUKernelModel


def _kernel(bytes_moved=5e7, ws=0.8):
    return GPUKernelModel(GPU_V100, bytes_moved=bytes_moved, flops=1.9 * bytes_moved,
                          working_set_per_thread=ws)


class TestTuneKey:
    def test_distinct_aux_distinct_keys(self):
        a = TuneKey("dslash", 10, "half", "x")
        b = TuneKey("dslash", 10, "half", "y")
        assert a != b


class TestKernelAutotuner:
    def test_brute_force_searches_all_candidates(self):
        tuner = KernelAutotuner(rng=0, noise=0.0)
        entry = tuner.tune(TuneKey("dslash", 1000, "half"), _kernel())
        from repro.perfmodel.gpu import BLOCK_SIZES

        assert entry.n_candidates == 2 * len(BLOCK_SIZES)

    def test_noiseless_tuner_finds_global_optimum(self):
        tuner = KernelAutotuner(rng=0, noise=0.0)
        model = _kernel()
        entry = tuner.tune(TuneKey("dslash", 1000, "half"), model)
        assert model.time(entry.params) == pytest.approx(model.best_time())

    def test_cache_hit_skips_search(self):
        tuner = KernelAutotuner(rng=0)
        key = TuneKey("dslash", 1000, "half")
        tuner.tune(key, _kernel())
        assert tuner.tune_calls == 1
        tuner.tune(key, _kernel())
        assert tuner.tune_calls == 1
        assert tuner.lookup_hits == 1
        assert key in tuner and len(tuner) == 1

    def test_speedup_vs_default_at_least_one(self):
        tuner = KernelAutotuner(rng=1, noise=0.0)
        for ws in (0.2, 0.5, 0.9):
            s = tuner.speedup_vs_default(TuneKey("k", 100, "half", f"ws{ws}"), _kernel(ws=ws))
            assert s >= 1.0

    def test_tuning_gain_significant_for_mismatched_kernels(self):
        """The ~20% class of gains the paper attributes to autotuning:
        kernels whose optimum is far from the default launch."""
        tuner = KernelAutotuner(rng=2, noise=0.0)
        s = tuner.speedup_vs_default(TuneKey("blas", 100, "half"), _kernel(ws=0.05))
        assert s > 1.10

    def test_gain_across_generations_and_kernels(self):
        """Over three GPU generations and five kernel shapes, with 3 %
        timing noise, tuning never loses and wins > 15 % somewhere."""
        from repro.machines import GPU_K20X, GPU_P100

        tuner = KernelAutotuner(rng=31, noise=0.03)
        gains = [
            tuner.speedup_vs_default(
                TuneKey(kernel, 442368, "half", gpu.name),
                GPUKernelModel(gpu, bytes_moved=5e7, flops=9.5e7, working_set_per_thread=ws),
            )
            for gpu in (GPU_K20X, GPU_P100, GPU_V100)
            for kernel, ws in (
                ("dslash_interior", 0.85), ("dslash_halo", 0.75), ("m5inv", 0.55),
                ("blas_axpy", 0.10), ("reduction", 0.20),
            )
        ]
        assert min(gains) >= 1.0 and max(gains) > 1.15

    def test_noise_suppressed_by_best_of_k(self):
        noisy = KernelAutotuner(rng=3, noise=0.10, launches_per_candidate=5)
        model = _kernel()
        entry = noisy.tune(TuneKey("dslash", 1000, "half"), model)
        # Chosen point within 10% of the true optimum despite 10% noise.
        assert model.time(entry.params) < 1.10 * model.best_time()

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelAutotuner(noise=-0.1)
        with pytest.raises(ValueError):
            KernelAutotuner(launches_per_candidate=0)

    def test_destructive_kernel_input_preserved(self):
        """Section IV: data-destructive kernels are tuned behind a
        backup/restore, so the caller's input never changes."""
        tuner = KernelAutotuner(rng=6, noise=0.0)
        data = np.arange(12.0)
        original = data.copy()

        def kernel(buf, params):
            buf *= 0.0  # destroys its input
            return buf + params.block_size

        entry, out = tuner.tune_destructive(
            TuneKey("destructive", 12, "half"), _kernel(), data, kernel
        )
        np.testing.assert_array_equal(data, original)
        assert out[0] == entry.block_size

    def test_destructive_uses_cache_on_second_call(self):
        tuner = KernelAutotuner(rng=7, noise=0.0)
        data = np.ones(4)
        key = TuneKey("destructive2", 4, "half")

        def kernel(buf, params):
            buf[:] = 0
            return buf

        tuner.tune_destructive(key, _kernel(), data, kernel)
        calls = tuner.tune_calls
        tuner.tune_destructive(key, _kernel(), data, kernel)
        assert tuner.tune_calls == calls


class TestCommPolicyTuner:
    def test_tunes_and_caches(self):
        tuner = CommPolicyTuner()
        sierra = get_machine("sierra")
        r1 = tuner.tune(sierra, (48, 48, 48, 64), 20, 64)
        r2 = tuner.tune(sierra, (48, 48, 48, 64), 20, 64)
        assert r1 is r2
        assert len(tuner) == 1

    def test_best_is_minimum(self):
        tuner = CommPolicyTuner()
        sierra = get_machine("sierra")
        res = tuner.tune(sierra, (48, 48, 48, 64), 20, 64)
        assert res.times[res.best] == min(res.times.values())
        assert res.speedup_vs_worst >= 1.0

    def test_no_gdr_policies_on_sierra(self):
        tuner = CommPolicyTuner()
        res = tuner.tune(get_machine("sierra"), (48, 48, 48, 64), 20, 64)
        assert all(p.path is not TransferPath.GDR for p in res.times)

    def test_ranking_sorted(self):
        tuner = CommPolicyTuner()
        res = tuner.tune(get_machine("ray"), (48, 48, 48, 64), 20, 32)
        times = [t for _, t in res.ranking()]
        assert times == sorted(times)

    def test_policy_choice_depends_on_deployment(self):
        """Different node counts can prefer different policies — the
        reason the tuner keys on the deployment point."""
        tuner = CommPolicyTuner()
        sierra = get_machine("sierra")
        results = {n: tuner.tune(sierra, (48, 48, 48, 64), 20, n) for n in (4, 16, 64, 144)}
        # at minimum, verify the table of times varies with n
        spreads = [r.speedup_vs_worst for r in results.values()]
        assert max(spreads) > 1.01


class TestMeasuredCommTuning:
    def test_modeled_result_tagged(self):
        tuner = CommPolicyTuner()
        res = tuner.tune(get_machine("sierra"), (48, 48, 48, 64), 20, 16)
        assert res.source == "model"
