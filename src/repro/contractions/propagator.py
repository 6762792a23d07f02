"""Quark propagators: sources, solves and the 4D boundary projection.

A propagator is the set of 12 Dirac-equation solutions (one per source
spin-colour); the paper's workflow computes ~10,000 of them per ensemble.
For domain-wall fermions the physical 4D quark field lives on the
fifth-dimension walls:

``q(x) = P_- psi(x, 0) + P_+ psi(x, Ls-1)``

so a 4D propagator column is obtained by solving the 5D system with the
wall source ``B(s) = delta_{s,Ls-1} P_- eta + delta_{s,0} P_+ eta`` and
projecting the solution back onto the walls.  (We omit the Mobius
``D_-`` contact-term factor; it affects only contact terms and overall
normalization, which cancel in the correlator ratios used for ``g_A``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.dirac import gamma as g
from repro.dirac.evenodd import EvenOddMobius
from repro.dirac.evenodd_wilson import EvenOddWilson, WilsonSchur
from repro.dirac.mobius import MobiusOperator
from repro.dirac.wilson import WilsonOperator
from repro.lattice.geometry import Geometry
from repro.solvers.cg import (
    BatchedSolveResult,
    CGState,
    ConjugateGradient,
    SolveResult,
    solve_normal_equations,
    solve_normal_equations_batched,
)

__all__ = [
    "Propagator",
    "point_source",
    "point_source_5d",
    "compute_propagator",
    "compute_wilson_propagator",
    "solve_5d",
    "solve_5d_batched",
    "stack_width",
    "solve_column_stacks",
    "SchurColumnStacks",
    "column_relres",
]


@dataclass
class Propagator:
    """A point-to-all propagator ``S(x; y0)``.

    Attributes
    ----------
    data:
        Array of shape ``(Lx, Ly, Lz, Lt, 4, 4, 3, 3)`` indexed as
        ``[x, spin_snk, spin_src, col_snk, col_src]``.
    source:
        The 4D source site ``(x, y, z, t)``.
    """

    data: np.ndarray
    source: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if self.data.shape[-4:] != (4, 4, 3, 3):
            raise ValueError(f"propagator tail shape {self.data.shape[-4:]} != (4,4,3,3)")

    @classmethod
    def from_columns(cls, x: np.ndarray, source: tuple[int, int, int, int]) -> "Propagator":
        """Assemble the 12 solution columns ``x[3 * src_spin + src_col]``,
        each ``dims + (snk spin, snk colour)``."""
        cols = x.reshape((4, 3) + x.shape[1:])
        return cls(np.ascontiguousarray(np.moveaxis(cols, (0, 1), (-3, -1))), source)

    @property
    def geometry_dims(self) -> tuple[int, ...]:
        return self.data.shape[:4]

    def shifted_to_origin(self) -> np.ndarray:
        """Data rolled so the source sits at the origin (for correlators)."""
        out = self.data
        for axis, s in enumerate(self.source):
            if s:
                out = np.roll(out, -s, axis=axis)
        return out

    def apply_spin(self, mat: np.ndarray, side: str = "snk") -> np.ndarray:
        """``mat @ S`` (snk side) or ``S @ mat`` (src side) in spin space."""
        if side == "snk":
            return np.einsum("ab,...bcde->...acde", mat, self.data, optimize=True)
        if side == "src":
            return np.einsum("...abde,bc->...acde", self.data, mat, optimize=True)
        raise ValueError(f"side must be 'snk' or 'src', got {side}")


def point_source(geometry: Geometry, site: tuple[int, int, int, int], spin: int, color: int) -> np.ndarray:
    """A delta-function source at ``site`` with the given spin and colour."""
    if not all(0 <= c < L for c, L in zip(site, geometry.dims)):
        raise ValueError(f"site {site} outside lattice {geometry.dims}")
    src = geometry.site_field((4, 3))
    src[site + (spin, color)] = 1.0
    return src


def point_source_5d(mobius: MobiusOperator, site: tuple[int, int, int, int], spin: int, color: int) -> np.ndarray:
    """Wall source for a 4D point source through the 5th dimension."""
    eta = point_source(mobius.geometry, site, spin, color)
    src = np.zeros(mobius.field_shape, dtype=np.complex128)
    src[-1] = g.proj_minus(eta)
    src[0] += g.proj_plus(eta)
    return src


def _boundary_project(psi5: np.ndarray) -> np.ndarray:
    """Physical 4D quark field from a 5D solution."""
    return g.proj_minus(psi5[0]) + g.proj_plus(psi5[-1])


def _boundary_project_batched(psi5: np.ndarray) -> np.ndarray:
    """Boundary projection of a ``(n_rhs, Ls, ...)`` solution stack."""
    return g.proj_minus(psi5[:, 0]) + g.proj_plus(psi5[:, -1])


def compute_propagator(
    mobius: MobiusOperator,
    site: tuple[int, int, int, int] = (0, 0, 0, 0),
    solver: ConjugateGradient | None = None,
    use_evenodd: bool = True,
    source_transform: Callable[[np.ndarray], np.ndarray] | None = None,
    batched: bool = False,
) -> tuple[Propagator, list[SolveResult]]:
    """Solve the 12 spin-colour systems for one domain-wall propagator.

    Parameters
    ----------
    mobius:
        The Dirac operator (fixed gauge background).
    site:
        4D source position.
    solver:
        CG configuration; a sensible default is used when omitted.
    use_evenodd:
        Solve the red-black preconditioned system (the production path).
    source_transform:
        Optional map applied to each 5D wall source before solving —
        used by the Feynman-Hellmann machinery to build sequential-style
        sources.
    batched:
        Stack the 12 spin-colour sources on a leading axis and solve
        them in one lock-step multi-RHS CG, so each iteration reads the
        gauge field once for all columns.

    Returns
    -------
    (propagator, solve_results):
        The assembled 4D propagator and the per-column solver stats
        (per-RHS views of the batched result when ``batched=True``).
    """
    solver = solver or ConjugateGradient(tol=1e-8, max_iter=5000)
    geom = mobius.geometry
    data = np.zeros(geom.dims + (4, 4, 3, 3), dtype=np.complex128)
    eo = EvenOddMobius(mobius) if use_evenodd else None

    if batched:
        sources = []
        for spin in range(4):
            for color in range(3):
                b = point_source_5d(mobius, site, spin, color)
                if source_transform is not None:
                    b = source_transform(b)
                sources.append(b)
        stack = np.stack(sources, axis=0)
        psi5, batch_res = solve_5d_batched(mobius, stack, solver, eo)
        return Propagator.from_columns(_boundary_project_batched(psi5), site), batch_res.split()

    results: list[SolveResult] = []
    for spin in range(4):
        for color in range(3):
            b = point_source_5d(mobius, site, spin, color)
            if source_transform is not None:
                b = source_transform(b)
            psi5, res = solve_5d(mobius, b, solver, eo)
            results.append(res)
            q = _boundary_project(psi5)
            data[..., :, spin, :, color] = q
    return Propagator(data, site), results


def solve_5d(
    mobius: MobiusOperator,
    b: np.ndarray,
    solver: ConjugateGradient,
    eo: EvenOddMobius | None = None,
) -> tuple[np.ndarray, SolveResult]:
    """Solve ``D psi = b`` (optionally red-black preconditioned)."""
    if eo is None:
        res = solve_normal_equations(mobius.apply, mobius.apply_dagger, b, solver)
        return res.x, res
    rhs_e = eo.prepare_rhs(b)
    res = solve_normal_equations(eo.schur_apply, eo.schur_dagger_apply, rhs_e, solver)
    x = eo.reconstruct(res.x, b)
    # Report the residual of the full unpreconditioned system.
    bnorm = float(np.linalg.norm(b.ravel()))
    if bnorm > 0.0:
        res.final_relres = float(
            np.linalg.norm((b - mobius.apply(x)).ravel()) / bnorm
        )
    res.x = x
    return x, res


def solve_5d_batched(
    mobius: MobiusOperator,
    b: np.ndarray,
    solver: ConjugateGradient,
    eo: EvenOddMobius | None = None,
) -> tuple[np.ndarray, BatchedSolveResult]:
    """Multi-RHS ``D psi_i = b_i`` on a leading-axis source stack.

    Every operator application acts on the whole stack, so the gauge
    field and fifth-dimension machinery are traversed once per iteration
    regardless of the number of right-hand sides.
    """
    if eo is None:
        res = solve_normal_equations_batched(
            mobius.apply, mobius.apply_dagger, b, solver
        )
        return res.x, res
    rhs_e = eo.prepare_rhs(b)
    res = solve_normal_equations_batched(
        eo.schur_apply, eo.schur_dagger_apply, rhs_e, solver
    )
    x = eo.reconstruct(res.x, b)
    # Report per-RHS residuals of the full unpreconditioned system.
    k = b.shape[0]
    bnorm = np.linalg.norm(b.reshape(k, -1), axis=1)
    rnorm = np.linalg.norm((b - mobius.apply(x)).reshape(k, -1), axis=1)
    res.final_relres = np.where(bnorm > 0.0, rnorm / np.where(bnorm > 0.0, bnorm, 1.0), res.final_relres)
    res.x = x
    return x, res


def compute_wilson_propagator(
    wilson: WilsonOperator,
    site: tuple[int, int, int, int] = (0, 0, 0, 0),
    solver: ConjugateGradient | None = None,
    source_transform: Callable[[np.ndarray], np.ndarray] | None = None,
    batched: bool = False,
) -> tuple[Propagator, list[SolveResult]]:
    """Wilson-fermion analogue of :func:`compute_propagator` (no 5th dim).

    Cheaper by a factor ``Ls`` — the workhorse for exactness tests of the
    contraction and Feynman-Hellmann machinery.  ``batched=True`` solves
    all 12 spin-colour columns in one lock-step multi-RHS CG.
    """
    solver = solver or ConjugateGradient(tol=1e-8, max_iter=5000)
    geom = wilson.geometry
    data = np.zeros(geom.dims + (4, 4, 3, 3), dtype=np.complex128)

    sources = []
    for spin in range(4):
        for color in range(3):
            b = point_source(geom, site, spin, color)
            if source_transform is not None:
                b = source_transform(b)
            sources.append(b)

    if batched:
        stack = np.stack(sources, axis=0)
        batch_res = solve_normal_equations_batched(
            wilson.apply, wilson.apply_dagger, stack, solver
        )
        return Propagator.from_columns(batch_res.x, site), batch_res.split()

    results: list[SolveResult] = []
    for idx, b in enumerate(sources):
        spin, color = divmod(idx, 3)
        res = solve_normal_equations(wilson.apply, wilson.apply_dagger, b, solver)
        results.append(res)
        data[..., :, spin, :, color] = res.x
    return Propagator(data, site), results


# Bytes of live solver workspace one column stack may hold.  A wider
# stack buys interpreter overhead per stencil call (and fewer checkpoint
# files), which saturates after a few columns; it costs ~12 live
# column-sized arrays per column (x, r, p, tmp, the normal-system RHS,
# the operator's results and the stencil's tile workspace: 11.0 by
# tracemalloc inside the loop, 12.5 by worker RSS, at 4^3 x 8).  4 MiB
# admits 3 columns of a 4^3 x 8 field (96 KiB each) and 1 of an 8^3 x 16
# one (1.5 MiB), where a column already is a whole stencil tile and a
# stack has nothing left to amortize (DESIGN section 11 has the table).
_STACK_WORKSPACE_BYTES = 4 << 20
_LIVE_ARRAYS_PER_COLUMN = 12


def stack_width(column_nbytes: int, n_columns: int = 12) -> int:
    """Columns per lock-step stack: the widest divisor of ``n_columns``
    whose solver workspace fits the budget, and never less than 1."""
    fits = _STACK_WORKSPACE_BYTES // (_LIVE_ARRAYS_PER_COLUMN * column_nbytes)
    return max(
        (w for w in range(1, n_columns + 1) if n_columns % w == 0 and w <= fits), default=1
    )


def solve_column_stacks(
    apply_op: Callable[[np.ndarray], np.ndarray],
    apply_dagger: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    solver: ConjugateGradient | None = None,
    *,
    deflation=None,
    width: int | None = None,
    start: int = 0,
    state: CGState | None = None,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[int, CGState], None] | None = None,
):
    """CGNE on the columns of ``b`` as consecutive lock-step stacks.

    The columns keep independent Krylov spaces — each one's iterates are
    exactly those of its own :func:`solve_normal_equations` — but are
    scheduled ``width`` (default: :func:`stack_width`) at a time through
    :func:`solve_normal_equations_batched`, so a stencil call serves a
    whole stack.  Yields ``(first_column, BatchedSolveResult)`` per
    finished stack, in column order.

    ``start`` / ``state`` resume at the stack beginning at column
    ``start`` (a multiple of the width) from its stacked mid-solve
    state; ``on_checkpoint(first_column, state)`` fires every
    ``checkpoint_every`` stacked iterations of the stack in flight.
    """
    n = b.shape[0]
    width = width or stack_width(b[0].nbytes, n)
    if start % width or not 0 <= start <= n:
        raise ValueError(f"resume column {start} is not a boundary of width-{width} stacks")
    for lo in range(start, n, width):
        resume = {}
        if state is not None or on_checkpoint is not None:
            resume = dict(
                state=state,
                checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint and (lambda st, lo=lo: on_checkpoint(lo, st)),
            )
        yield lo, solve_normal_equations_batched(
            apply_op, apply_dagger, b[lo : lo + width], solver, deflation=deflation, **resume
        )
        state = None


def column_relres(apply_op: Callable[[np.ndarray], np.ndarray], b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-column ``|b - D x| / |b|`` of a stack (0 for a zero column).
    One column at a time: a check made once per solve must not size the
    stencil's workspace or the task's peak memory."""
    rnorm = np.array([np.linalg.norm((bi - apply_op(xi)).ravel()) for bi, xi in zip(b, x)])
    bnorm = np.linalg.norm(b.reshape(b.shape[0], -1), axis=1)
    return rnorm / np.where(bnorm > 0.0, bnorm, 1.0)


class SchurColumnStacks:
    """:func:`solve_column_stacks` on the red-black preconditioned system
    of a serial Wilson operator — the paper's solver, and the 1-rank case
    of ``repro.comm.distributed.rank_solve``.

    The even-site system lives in the cheapest field space the active
    kernel has: checkerboard-packed (half the sites in every stencil
    pass and solver array) when it has the layout, else masked
    full-lattice fields (the iteration count alone).  ``width`` defaults
    to the workspace budget's answer for an *even-site* column, and the
    right-hand sides are prepared a stack at a time, so every hop of a
    task has one shape and the kernel pools one workspace.
    """

    def __init__(self, wilson: WilsonOperator, b: np.ndarray, width: int | None = None):
        kernel = wilson.kernel
        if hasattr(kernel, "pack"):
            self.eo = WilsonSchur.packed(kernel, wilson.hopping, wilson.mass)
        else:
            self.eo = EvenOddWilson(wilson)
        self.wilson, self.b = wilson, b
        n, column = b.shape[0], self.eo.split(b[:1])[0]
        self.width = width or stack_width(column.nbytes, n)
        self.rhs = np.concatenate(
            [self.eo.prepare_rhs(b[lo : lo + self.width]) for lo in range(0, n, self.width)]
        )
        #: shape of the stack in flight — what a resume ``state`` must have
        self.stack_shape = (self.width,) + self.rhs.shape[1:]

    def solve(self, solver: ConjugateGradient | None = None, **resume):
        """Yields what :func:`solve_column_stacks` does, each finished
        stack reconstructed to full-lattice columns and ``final_relres``
        the residual of the *full* system (:func:`column_relres`)."""
        eo = self.eo
        for lo, res in solve_column_stacks(
            eo.schur_apply, eo.schur_dagger_apply, self.rhs, solver, width=self.width, **resume
        ):
            cols = self.b[lo : lo + res.n_rhs]
            res.x = eo.reconstruct(res.x, cols)
            res.final_relres = column_relres(self.wilson.apply, cols, res.x)
            yield lo, res
