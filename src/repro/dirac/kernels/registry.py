"""Backend registry: every hopping-term implementation registers itself
under a short name, and an operator instantiates one by that name.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.dirac.kernels.base import DslashKernel
from repro.lattice.geometry import Geometry

__all__ = [
    "DEFAULT_BACKEND",
    "register_backend",
    "get_backend",
    "available_backends",
    "make_kernel",
]

_REGISTRY: dict[str, type[DslashKernel]] = {}

#: The production backend.  The half-spinor kernel is algebraically
#: identical to the reference stencil (same stencil, spin work halved);
#: ``reference`` is kept as the test oracle.
DEFAULT_BACKEND = "halfspinor"


def register_backend(name: str) -> Callable[[type[DslashKernel]], type[DslashKernel]]:
    """Class decorator adding a :class:`DslashKernel` to the registry."""

    def deco(cls: type[DslashKernel]) -> type[DslashKernel]:
        if name in _REGISTRY:
            raise ValueError(f"dslash backend {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def get_backend(name: str) -> type[DslashKernel]:
    """Look up a backend class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown dslash backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_kernel(name: str, u: np.ndarray, u_dag: np.ndarray, geometry: Geometry) -> DslashKernel:
    """Instantiate a registered backend on a gauge background."""
    return get_backend(name)(u, u_dag, geometry)
