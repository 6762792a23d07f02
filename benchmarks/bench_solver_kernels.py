"""Real NumPy kernel timings: the stencils this reproduction actually runs.

Wall-clock pytest-benchmark timings of the Wilson dslash, the Mobius
normal operator and the half-precision storage round-trip, with the
achieved model-GFlop/s reported (the paper's explicit flop-counting
convention applied to the Python kernels).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import EvenOddMobius, MobiusOperator, WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.solvers import PRECISIONS
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def setup():
    geom = Geometry(8, 8, 8, 16)
    gauge = GaugeField.random(geom, make_rng(55), scale=0.35)
    mob = MobiusOperator(gauge, ls=8, mass=0.1)
    eo = EvenOddMobius(mob)
    rng = make_rng(56)
    psi4 = rng.normal(size=geom.dims + (4, 3)) + 1j * rng.normal(size=geom.dims + (4, 3))
    psi5 = rng.normal(size=mob.field_shape) + 1j * rng.normal(size=mob.field_shape)
    return geom, gauge, mob, eo, psi4, psi5


def test_wilson_dslash_throughput(benchmark, setup, report):
    geom, gauge, mob, eo, psi4, psi5 = setup
    wilson = WilsonOperator(gauge, mass=0.1)
    result = benchmark(wilson.apply, psi4)
    assert result.shape == psi4.shape
    gflops = wilson.flops_per_apply(psi4.shape) / benchmark.stats["mean"] / 1e9
    report(
        "Python kernel throughput: Wilson dslash",
        f"8^3x16 lattice: {gflops:.2f} model-GFlop/s in NumPy "
        f"(paper convention: 1320 flop/site)",
    )


def test_mobius_normal_op_throughput(benchmark, setup, report):
    geom, gauge, mob, eo, psi4, psi5 = setup
    xe = eo.split(psi5)[0]
    result = benchmark(eo.schur_normal_apply, xe)
    assert result.shape == xe.shape == psi5.shape[:4] + (psi5.shape[4] // 2, 4, 3)
    gflops = eo.flops_per_normal_apply() / benchmark.stats["mean"] / 1e9
    report(
        "Python kernel throughput: Mobius normal op",
        f"8^3x16 x Ls=8 red-black normal op: {gflops:.2f} model-GFlop/s in NumPy",
    )


def test_half_precision_roundtrip_throughput(benchmark, setup):
    *_, psi5 = setup
    half = PRECISIONS["half"]
    out = benchmark(half.roundtrip, psi5)
    site_mag = np.maximum(np.abs(psi5.real), np.abs(psi5.imag)).max(axis=(-2, -1), keepdims=True)
    assert (np.abs(out - psi5) / site_mag).max() < 3 * half.epsilon()
