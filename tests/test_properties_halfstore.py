"""Property suite for the 16-bit storage codec.

The contracts the mixed-precision solver rests on, explored by
hypothesis under the deterministic profiles of ``tests/conftest.py``.
Every equality here is *exact on any host*: the codec is data movement
plus elementwise arithmetic — no reduction, nothing a BLAS build could
reorder.  ``Half16Codec``: ``decode(encode(x))`` is, to the bit, the
dense ``HalfPrecision.roundtrip`` (the identity that makes compressed
and dense reliable-update solves produce identical iterates), the
relative error per site is bounded by the fixed-point step, exact zeros
survive, and the handle really is ~4x smaller.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.solvers import Half16Codec, HalfPrecision
from repro.solvers.precision import _FIXED_POINT_MAX

seeds = st.integers(min_value=0, max_value=2**32 - 1)
n_rhss = st.integers(min_value=1, max_value=3)
#: log10 of the field's overall magnitude — the codec's per-site block
#: scale must make the error bound hold across wild dynamic ranges.
scales = st.integers(min_value=-12, max_value=12)


def _field(seed: int, shape: tuple[int, ...], scale_decades: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return x * 10.0**scale_decades


@given(seed=seeds, scale=scales)
def test_codec_roundtrip_is_bitwise_the_dense_roundtrip(seed, scale):
    """``decode(encode(x))`` equals the dense round-trip (exact on any host)."""
    prec = HalfPrecision()
    codec = Half16Codec(prec)
    x = _field(seed, (3, 2, 2, 4, 3), scale)
    np.testing.assert_array_equal(codec.decode(codec.encode(x)), prec.roundtrip(x))


@given(seed=seeds, scale=scales)
def test_codec_relative_error_bounded_per_site(seed, scale):
    codec = Half16Codec()
    x = _field(seed, (4, 4, 3), scale)
    back = codec.decode(codec.encode(x))
    err = np.abs(back - x).max(axis=(-2, -1))
    mags = np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=(-2, -1))
    # One quantization step of the fixed point (re and im each round to
    # within half a step -> sqrt(2)/2 steps in modulus), plus the
    # float32 rounding of the per-site block scale.
    bound = mags * (1.0 / _FIXED_POINT_MAX + 2.0 * np.finfo(np.float32).eps)
    assert bool(np.all(err <= bound))


@given(seed=seeds)
def test_codec_preserves_exact_zeros(seed):
    codec = Half16Codec()
    x = _field(seed, (5, 4, 3))
    x[0] = 0.0          # an all-zero site (degenerate scale path)
    x[1:, 2, 1] = 0.0   # zero components inside live sites
    back = codec.decode(codec.encode(x))
    assert bool(np.all(back[0] == 0.0))
    assert bool(np.all(back[1:, 2, 1] == 0.0))


@given(seed=seeds, n=n_rhss)
def test_codec_handle_is_compact(seed, n):
    codec = Half16Codec()
    x = _field(seed, (n, 2, 2, 2, 4, 4, 3))
    f = codec.encode(x)
    # int16 re+im + one float32 scale per site: ~4.33 bytes per complex
    # component vs 16 dense -> strictly under 30%.
    assert f.nbytes < 0.3 * x.nbytes
    assert f.copy().nbytes == f.nbytes
