"""Dirac operators: gamma algebra, Wilson and Mobius domain-wall stencils.

The Mobius domain-wall operator is the discretization used in the paper
(Section IV); the Wilson operator is its 4D kernel.  Both are radius-one
stencils acting on spin-colour fields, implemented as fused NumPy
operations over the whole lattice (the Python analogue of QUDA's
matrix-free stencil kernels).
"""

from repro.dirac.gamma import GAMMA, GAMMA5, P_MINUS, P_PLUS, proj_minus, proj_plus
from repro.dirac.wilson import WilsonOperator
from repro.dirac.mobius import MobiusOperator
from repro.dirac.evenodd import EvenOddMobius
from repro.dirac.evenodd_wilson import EvenOddWilson
from repro.dirac.flops import (
    mobius_dslash_flops_per_5d_site,
    wilson_dslash_flops_per_site,
)

__all__ = [
    "GAMMA",
    "GAMMA5",
    "P_MINUS",
    "P_PLUS",
    "proj_minus",
    "proj_plus",
    "WilsonOperator",
    "MobiusOperator",
    "EvenOddMobius",
    "EvenOddWilson",
    "wilson_dslash_flops_per_site",
    "mobius_dslash_flops_per_5d_site",
]
