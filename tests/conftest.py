"""Shared fixtures: tiny lattices, weak-field gauge backgrounds, RNGs.

Physics tests run on 2x2x2x4 or 4x4x4x4 volumes: large enough for every
operator identity (all identities here are exact at any volume), small
enough that the whole suite runs in minutes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng

try:
    from hypothesis import HealthCheck, settings

    # Both profiles are fully deterministic (derandomize=True): the
    # property suites replay the same seeded examples on every run, so
    # CI failures reproduce locally byte-for-byte.  "ci" just turns the
    # crank more times.
    settings.register_profile(
        "repro",
        max_examples=25,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "ci",
        max_examples=100,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass


@pytest.fixture(params=("threads", "shm"))
def transport(request) -> str:
    """Every executed distributed transport.

    The distributed parity suites parameterize over this fixture so
    ``serial == threads == shm`` is asserted from one source of truth.
    """
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(12345)


@pytest.fixture
def geom_tiny() -> Geometry:
    """The smallest admissible lattice."""
    return Geometry(2, 2, 2, 4)


@pytest.fixture
def geom_small() -> Geometry:
    return Geometry(4, 4, 4, 4)


@pytest.fixture
def gauge_tiny(geom_tiny, rng) -> GaugeField:
    """Weak-field background on the tiny lattice (well-conditioned D)."""
    return GaugeField.random(geom_tiny, rng, scale=0.4)


@pytest.fixture
def gauge_small(geom_small, rng) -> GaugeField:
    return GaugeField.random(geom_small, rng, scale=0.4)


def random_fermion(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussian test vector."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)
