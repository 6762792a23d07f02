"""The dslash kernels.

The Wilson hopping term is the hot loop of every solve in this
reproduction — the paper's sustained ~20 PFlops rests on QUDA's
engineering of exactly this kernel.  This package provides:

* :class:`HalfSpinorKernel` — DeGrand-Rossi spin projection to
  two-spinor half fields before the SU(3) multiply, on a
  component-major, RHS-tiled workspace
  (:mod:`repro.dirac.kernels.halfspinor`), the kernel of every serial and
  distributed solve;
* :class:`ReferenceKernel` — the original full 4-spinor einsum stencil,
  kept as the correctness oracle the tests hold it against
  (:mod:`repro.dirac.kernels.reference`).
"""

from repro.dirac.kernels.base import DslashKernel, Workspace, roll_into
from repro.dirac.kernels.reference import ReferenceKernel
from repro.dirac.kernels.halfspinor import HalfSpinorKernel

__all__ = [
    "DslashKernel",
    "Workspace",
    "roll_into",
    "ReferenceKernel",
    "HalfSpinorKernel",
]
