"""The GPU memory-footprint model."""

from __future__ import annotations

import pytest

from repro.perfmodel.memory import minimum_gpus, solve_footprint


class TestMemoryModel:
    def test_paper_group_sizes_are_memory_minima(self):
        """The production granularities match the footprint floor:
        48^3x64x20 fits from 8 V100s (run on 16 = 4 Sierra nodes);
        64^3x96x12 needs exactly the 24 GPUs of the Summit groups."""
        assert minimum_gpus((48, 48, 48, 64), 20) == 8
        assert minimum_gpus((64, 64, 64, 96), 12, gpus_per_node=6) == 24

    def test_large_lattice_needs_many_gpus(self):
        m = minimum_gpus((96, 96, 96, 144), 20)
        assert m >= 100  # cannot run small — Fig. 4's starting point

    def test_footprint_shrinks_with_gpus(self):
        a = solve_footprint((48, 48, 48, 64), 20, 8)
        b = solve_footprint((48, 48, 48, 64), 20, 32)
        assert b.total_bytes < a.total_bytes / 2.5

    def test_k20x_has_less_room(self):
        """Titan's 6 GiB K20X cannot hold what a V100 can."""
        fp = solve_footprint((48, 48, 48, 64), 20, 16)
        assert fp.fits("V100") and not fp.fits("K20X")

    def test_unknown_gpu_rejected(self):
        with pytest.raises(KeyError):
            minimum_gpus((48, 48, 48, 64), 20, gpu_name="H100")

    def test_vector_memory_dominates(self):
        """The 5D Krylov vectors, not the gauge field, set the floor —
        why Ls multiplies the cost of everything."""
        fp = solve_footprint((48, 48, 48, 64), 20, 16)
        assert fp.vector_bytes > 5.0 * fp.gauge_bytes
