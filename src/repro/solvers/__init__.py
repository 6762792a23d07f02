"""Krylov solvers with mixed-precision storage emulation.

The production solver of the paper is a red-black preconditioned
"double-half" conjugate gradient on the normal equations: vectors are
stored in 16-bit fixed point (with one norm per site), arithmetic runs in
single precision, and occasional "reliable updates" recompute the true
residual in double precision [Clark et al., Comput. Phys. Commun. 181
(2010) 1517].  :class:`HalfPrecision` emulates exactly that storage
format in NumPy, and :class:`ReliableUpdateCG` implements the solver.
"""

from repro.solvers.precision import (
    DoublePrecision,
    HalfPrecision,
    Precision,
    SinglePrecision,
    PRECISIONS,
)
from repro.solvers.cg import (
    BatchedSolveResult,
    CGState,
    ConjugateGradient,
    SolveResult,
    solve_normal_equations,
    solve_normal_equations_batched,
)
from repro.solvers.multiprec import ReliableUpdateCG, RUCGState
from repro.solvers.blockcg import BlockCG

__all__ = [
    "BlockCG",
    "Precision",
    "DoublePrecision",
    "SinglePrecision",
    "HalfPrecision",
    "PRECISIONS",
    "ConjugateGradient",
    "ReliableUpdateCG",
    "SolveResult",
    "BatchedSolveResult",
    "CGState",
    "RUCGState",
    "solve_normal_equations",
    "solve_normal_equations_batched",
]
