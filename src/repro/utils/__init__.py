"""Shared utilities: deterministic RNG management and tables."""

from repro.utils.rng import spawn_rngs, make_rng
from repro.utils.tables import format_table

__all__ = ["spawn_rngs", "make_rng", "format_table"]
