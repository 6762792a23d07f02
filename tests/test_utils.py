"""Tests for repro.utils: rng spawning, table rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.tables import format_table


class TestRng:
    def test_make_rng_passthrough(self):
        g = np.random.default_rng(3)
        assert make_rng(g) is g

    def test_make_rng_from_seed_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_spawn_rngs_independent_streams(self):
        a, b = spawn_rngs(42, 2)
        assert a.random() != b.random()

    def test_spawn_rngs_reproducible(self):
        first = [g.random() for g in spawn_rngs(9, 3)]
        second = [g.random() for g in spawn_rngs(9, 3)]
        assert first == second

    def test_spawn_rngs_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_zero_is_empty(self):
        assert spawn_rngs(0, 0) == []


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("a ")
        assert "30" in lines[3]

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_formats_applied(self):
        out = format_table(["v"], [[1.23456]], formats=[".2f"])
        assert "1.23" in out and "1.2345" not in out

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_formats_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1]], formats=[".2f", ".2f"])

    def test_non_numeric_cells_not_formatted(self):
        out = format_table(["v"], [["text"]], formats=[".2f"])
        assert "text" in out
