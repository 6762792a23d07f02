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
    load_state,
    save_state,
    solve_normal_equations,
    solve_normal_equations_batched,
)
from repro.solvers.halfstore import Half16Codec, Half16Field
from repro.solvers.multiprec import (
    ReliableUpdateCG,
    RUCGState,
    load_ru_state,
    save_ru_state,
)
from repro.solvers.blockcg import BlockCG
from repro.solvers.multishift import MultiShiftCG, MultiShiftResult

__all__ = [
    "MultiShiftCG",
    "MultiShiftResult",
    "BlockCG",
    "Precision",
    "DoublePrecision",
    "SinglePrecision",
    "HalfPrecision",
    "Half16Codec",
    "Half16Field",
    "PRECISIONS",
    "ConjugateGradient",
    "ReliableUpdateCG",
    "SolveResult",
    "BatchedSolveResult",
    "CGState",
    "RUCGState",
    "save_state",
    "load_state",
    "save_ru_state",
    "load_ru_state",
    "solve_normal_equations",
    "solve_normal_equations_batched",
]
