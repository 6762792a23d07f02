"""Property suite for the 16-bit half storage format.

The contracts the double-half solver rests on, explored by hypothesis
under the deterministic profiles of ``tests/conftest.py``.  Every
equality here is *exact on any host*: the round trip is data movement
plus elementwise arithmetic — no reduction, nothing a BLAS build could
reorder.  ``HalfPrecision.roundtrip``: the relative error per site is
bounded by the fixed-point step, and exact zeros survive.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.solvers import HalfPrecision
from repro.solvers.precision import _FIXED_POINT_MAX

seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: log10 of the field's overall magnitude — the format's per-site block
#: scale must make the error bound hold across wild dynamic ranges.
scales = st.integers(min_value=-12, max_value=12)


def _field(seed: int, shape: tuple[int, ...], scale_decades: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return x * 10.0**scale_decades


@given(seed=seeds, scale=scales)
def test_half_roundtrip_relative_error_bounded_per_site(seed, scale):
    x = _field(seed, (4, 4, 3), scale)
    back = HalfPrecision().roundtrip(x)
    err = np.abs(back - x).max(axis=(-2, -1))
    mags = np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=(-2, -1))
    # One quantization step of the fixed point (re and im each round to
    # within half a step -> sqrt(2)/2 steps in modulus), plus the
    # float32 rounding of the per-site block scale.
    bound = mags * (1.0 / _FIXED_POINT_MAX + 2.0 * np.finfo(np.float32).eps)
    assert bool(np.all(err <= bound))


@given(seed=seeds)
def test_half_roundtrip_preserves_exact_zeros(seed):
    x = _field(seed, (5, 4, 3))
    x[0] = 0.0          # an all-zero site (degenerate scale path)
    x[1:, 2, 1] = 0.0   # zero components inside live sites
    back = HalfPrecision().roundtrip(x)
    assert bool(np.all(back[0] == 0.0))
    assert bool(np.all(back[1:, 2, 1] == 0.0))
