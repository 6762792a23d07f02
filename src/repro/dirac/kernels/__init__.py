"""Interchangeable dslash kernel backends.

The Wilson hopping term is the hot loop of every solve in this
reproduction — the paper's sustained ~20 PFlops rests on QUDA's
engineering of exactly this kernel.  This package provides:

* ``reference`` — the original full 4-spinor einsum stencil, kept as the
  correctness oracle (:mod:`repro.dirac.kernels.reference`);
* ``halfspinor`` — DeGrand-Rossi spin projection to two-spinor half
  fields before the SU(3) multiply, on a component-major, RHS-tiled
  workspace (:mod:`repro.dirac.kernels.halfspinor`), the production
  kernel of every serial and distributed solve;
* a registry mapping backend names to kernel classes
  (:mod:`repro.dirac.kernels.registry`).
"""

from repro.dirac.kernels.base import DslashKernel, Workspace, roll_into
from repro.dirac.kernels.registry import (
    DEFAULT_BACKEND,
    available_backends,
    get_backend,
    make_kernel,
    register_backend,
)
from repro.dirac.kernels.reference import ReferenceKernel
from repro.dirac.kernels.halfspinor import HalfSpinorKernel

__all__ = [
    "DslashKernel",
    "Workspace",
    "roll_into",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "make_kernel",
    "register_backend",
    "ReferenceKernel",
    "HalfSpinorKernel",
]
