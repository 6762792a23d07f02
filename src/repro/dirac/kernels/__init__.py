"""Interchangeable, benchmarkable dslash kernel backends.

The Wilson hopping term is the hot loop of every solve in this
reproduction — the paper's sustained ~20 PFlops rests on QUDA's
engineering of exactly this kernel.  This package provides:

* ``reference`` — the original full 4-spinor einsum stencil, kept as the
  correctness oracle (:mod:`repro.dirac.kernels.reference`);
* ``halfspinor`` — DeGrand-Rossi spin projection to two-spinor half
  fields before the SU(3) multiply, on a component-major, RHS-tiled
  workspace (:mod:`repro.dirac.kernels.halfspinor`);
* ``numba_soa`` — a compiled tier: the same half-spinor stencil as a
  Numba-JIT per-site loop over a structure-of-arrays layout, registered
  only when numba imports (:mod:`repro.dirac.kernels.numba_soa`,
  :mod:`repro.dirac.kernels.soa`);
* a registry plus autotuner integration that oracle-verifies and times
  every backend on the actual local volume at first encounter and caches
  the winner in the JSON tunecache (:mod:`repro.dirac.kernels.registry`).
"""

from repro.dirac.kernels.base import DslashKernel, Workspace, roll_into
from repro.dirac.kernels.registry import (
    DEFAULT_BACKEND,
    ORACLE_ATOL,
    ORACLE_RTOL,
    available_backends,
    dslash_tune_key,
    get_backend,
    make_kernel,
    register_backend,
    select_backend,
    verify_backends,
)
from repro.dirac.kernels.reference import ReferenceKernel
from repro.dirac.kernels.halfspinor import HalfSpinorKernel
from repro.dirac.kernels.soa import (
    SOA_LAYOUT_VERSION,
    neighbor_tables,
    pack_fermion,
    pack_links,
    unpack_fermion,
)
from repro.dirac.kernels.numba_soa import NUMBA_AVAILABLE, SoAHalfSpinorKernel
from repro.dirac.kernels.soa_dist import DistTables, distributed_tables

__all__ = [
    "DslashKernel",
    "Workspace",
    "roll_into",
    "DEFAULT_BACKEND",
    "ORACLE_ATOL",
    "ORACLE_RTOL",
    "available_backends",
    "dslash_tune_key",
    "get_backend",
    "make_kernel",
    "register_backend",
    "select_backend",
    "verify_backends",
    "ReferenceKernel",
    "HalfSpinorKernel",
    "SOA_LAYOUT_VERSION",
    "NUMBA_AVAILABLE",
    "SoAHalfSpinorKernel",
    "DistTables",
    "distributed_tables",
    "pack_fermion",
    "unpack_fermion",
    "pack_links",
    "neighbor_tables",
]
