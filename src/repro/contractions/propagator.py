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

Every 12-column solve is written here once: the sources
(:func:`point_sources`), column stacks of the red-black system
(:class:`SchurColumnStacks`) or the full operator
(:func:`solve_column_stacks`), and their one consumer
(:func:`collect_columns`) — :func:`solve_columns` chains them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.dirac import gamma as g
from repro.dirac.evenodd import EvenOddMobius
from repro.dirac.evenodd_wilson import WilsonSchur
from repro.dirac.mobius import MobiusOperator
from repro.dirac.wilson import WilsonOperator
from repro.lattice.geometry import Geometry
from repro.solvers.cg import (
    BatchedSolveResult,
    CGState,
    ConjugateGradient,
    SolveResult,
    solve_normal_equations_batched,
)

__all__ = [
    "Propagator",
    "point_source",
    "point_sources",
    "point_sources_5d",
    "boundary_project",
    "compute_propagator",
    "compute_wilson_propagator",
    "stack_width",
    "solve_column_stacks",
    "SchurColumnStacks",
    "column_relres",
    "collect_columns",
    "solve_columns",
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

    def columns(self) -> np.ndarray:
        """The 12 columns as a fresh stack — the inverse of :meth:`from_columns`."""
        cols = np.moveaxis(self.data, (-3, -1), (0, 1))
        return cols.reshape((12,) + cols.shape[2:])

    def shifted_to_origin(self) -> np.ndarray:
        """Data rolled so the source sits at the origin (for correlators)."""
        out = self.data
        for axis, s in enumerate(self.source):
            if s:
                out = np.roll(out, -s, axis=axis)
        return out


def point_source(geometry: Geometry, site: tuple[int, int, int, int], spin: int, color: int) -> np.ndarray:
    """A delta-function source at ``site`` with the given spin and colour."""
    if not all(0 <= c < L for c, L in zip(site, geometry.dims)):
        raise ValueError(f"site {site} outside lattice {geometry.dims}")
    src = geometry.site_field((4, 3))
    src[site + (spin, color)] = 1.0
    return src


def point_sources(geometry: Geometry, site: tuple[int, int, int, int]) -> np.ndarray:
    """The 12 point sources at ``site`` as one stack, column ``3 * spin +
    color`` (the order :meth:`Propagator.from_columns` reads)."""
    return np.stack([point_source(geometry, site, *divmod(k, 3)) for k in range(12)])


def point_sources_5d(mobius: MobiusOperator, site: tuple[int, int, int, int]) -> np.ndarray:
    """The 12 wall sources of :func:`point_sources` through the 5th dimension."""
    eta = point_sources(mobius.geometry, site)
    src = np.zeros((12,) + mobius.field_shape, dtype=np.complex128)
    src[:, -1] = g.proj_minus(eta)
    src[:, 0] += g.proj_plus(eta)
    return src


def boundary_project(psi5: np.ndarray) -> np.ndarray:
    """Physical 4D quark field of 5D fields (any leading axes)."""
    walls = np.moveaxis(psi5, MobiusOperator.S_AXIS, 0)
    return g.proj_minus(walls[0]) + g.proj_plus(walls[-1])


def compute_propagator(
    mobius: MobiusOperator,
    site: tuple[int, int, int, int] = (0, 0, 0, 0),
    solver: ConjugateGradient | None = None,
    source_transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[Propagator, list[SolveResult]]:
    """Solve the 12 spin-colour systems for one domain-wall propagator
    on the red-black system (:class:`SchurColumnStacks`).

    Parameters
    ----------
    mobius:
        The Dirac operator (fixed gauge background).
    site:
        4D source position.
    solver:
        CG configuration; a sensible default is used when omitted.
    source_transform:
        Optional map applied to each 5D wall source before solving.

    Returns
    -------
    (propagator, solve_results):
        The assembled 4D propagator and the per-column solver stats (each
        ``x`` the column's 5D solution).
    """
    solver = solver or ConjugateGradient(tol=1e-8, max_iter=5000)
    sources = point_sources_5d(mobius, site)
    if source_transform is not None:
        sources = np.stack([source_transform(b) for b in sources])
    x, results = solve_columns(mobius, sources, solver)
    return Propagator.from_columns(boundary_project(x), site), results


def compute_wilson_propagator(
    wilson: WilsonOperator,
    site: tuple[int, int, int, int] = (0, 0, 0, 0),
    solver: ConjugateGradient | None = None,
    source_transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[Propagator, list[SolveResult]]:
    """Wilson-fermion analogue of :func:`compute_propagator` (no 5th dim).

    Cheaper by a factor ``Ls`` — the workhorse for exactness tests of the
    contraction and Feynman-Hellmann machinery.  Solves the full operator,
    so each column is that of its own :func:`solve_normal_equations`.
    """
    solver = solver or ConjugateGradient(tol=1e-8, max_iter=5000)
    sources = point_sources(wilson.geometry, site)
    if source_transform is not None:
        sources = np.stack([source_transform(b) for b in sources])
    x, results = solve_columns(wilson, sources, solver, schur=False)
    return Propagator.from_columns(x, site), results


# Bytes of live solver workspace one column stack may hold.  A wider
# stack buys interpreter overhead per stencil call (and fewer checkpoint
# files), which saturates after a few columns; it costs at most ~12 live
# column-sized arrays per column (x, r, p, ap, the normal-system RHS, the
# operator's result and the stencil's tile workspace: 7.7 by tracemalloc
# in a full-operator loop at 4^3 x 8).  4 MiB admits 3 columns of a 4^3 x 8
# field (96 KiB each) and 1 of an 8^3 x 16 one (1.5 MiB), where a column is
# a whole stencil tile and nothing is left to amortize (DESIGN section 11).
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
            apply_op, apply_dagger, b[lo : lo + width], solver, **resume
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
    of a serial operator — the paper's solver, and (for Wilson) the
    1-rank case of ``repro.comm.distributed.rank_solve``.

    ``op`` is a :class:`WilsonOperator` or a :class:`MobiusOperator`.  The
    even-site system lives on checkerboard-packed fields (half the sites
    in every stencil pass and solver array): :meth:`WilsonSchur.packed`
    and :class:`EvenOddMobius` share that one field space.  ``width``
    defaults to the workspace budget's answer for an *even-site* column,
    and the right-hand sides are prepared a stack at a time, so every hop
    of a task has one shape and the kernel pools one workspace.
    """

    def __init__(self, op, b: np.ndarray, width: int | None = None):
        if isinstance(op, MobiusOperator):
            self.eo = EvenOddMobius(op)
        else:
            self.eo = WilsonSchur.packed(op.kernel, op.hopping, op.mass)
        self.op, self.b = op, b
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
            res.final_relres = column_relres(self.op.apply, cols, res.x)
            yield lo, res


def collect_columns(
    stacks: Iterable[tuple[int, BatchedSolveResult]],
    x: np.ndarray,
    totals: dict | None = None,
    *,
    percolumn: bool = True,
    label: str = "propagator solve",
    on_stack: Callable[[int, BatchedSolveResult], None] | None = None,
) -> list[SolveResult]:
    """The one consumer of ``(first_column, BatchedSolveResult)`` stacks.

    A stack with an unconverged column raises ``RuntimeError`` naming the
    columns; otherwise its columns are written once into ``x`` and, when
    ``totals`` is a dict, added into its ``iterations`` (the per-column
    sum of :meth:`BatchedSolveResult.split` when ``percolumn`` — what
    one-column solves count — else the stacked count), ``matvecs``,
    ``flops`` and ``reliable_updates``, with ``true_relres`` the worst
    column's ``final_relres`` so far and ``inner`` the recurrence's
    dtype.  ``on_stack(end, result)`` runs after each stack, ``end`` the
    first column not yet solved.  Returns the per-column results, each
    ``x`` its column of ``x``.
    """
    results: list[SolveResult] = []
    for lo, res in stacks:
        if not res.all_converged:
            bad = [lo + i for i in range(res.n_rhs) if not res.converged[i]]
            raise RuntimeError(
                f"{label}: columns {bad} did not converge "
                f"(worst relres {float(np.max(res.final_relres)):.2e})"
            )
        x[lo : lo + res.n_rhs] = res.x
        res.x = x[lo : lo + res.n_rhs]  # the stack's own copy is freed before the next one runs
        columns = res.split()
        if totals is not None:
            its = sum(r.iterations for r in columns) if percolumn else res.iterations
            for key, value in (
                ("iterations", its), ("matvecs", res.matvecs), ("flops", res.flops),
                ("reliable_updates", res.reliable_updates),
            ):
                totals[key] = totals.get(key, 0) + value
            worst = float(res.final_relres.max())
            totals["true_relres"] = max(totals.get("true_relres", 0.0), worst)
            totals["inner"] = res.inner
        for i, r in enumerate(columns):
            r.x = x[lo + i]
            results.append(r)
        if on_stack is not None:
            on_stack(lo + res.n_rhs, res)
    return results


def solve_columns(
    op, b: np.ndarray, solver: ConjugateGradient | None = None, *, schur: bool = True,
    width: int | None = None,
) -> tuple[np.ndarray, list[SolveResult]]:
    """``D x = b`` for every column of ``b``: the red-black system of
    ``op`` (:class:`SchurColumnStacks`) or, with ``schur=False``, CGNE on
    any operator with ``apply`` / ``apply_dagger``
    (:func:`solve_column_stacks`), gathered by :func:`collect_columns`.
    Returns the solutions and the per-column results."""
    if schur:
        stacks = SchurColumnStacks(op, b, width).solve(solver)
    else:
        stacks = solve_column_stacks(op.apply, op.apply_dagger, b, solver, width=width)
    # the solutions are allocated once the first stack's workspace is
    # freed, so a single-stack solve peaks no higher than the solver does
    first = next(stacks)
    x = np.empty_like(b)
    return x, collect_columns(itertools.chain([first], stacks), x)
