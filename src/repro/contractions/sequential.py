"""Sequential-source (traditional) three-point functions.

The method the Feynman-Hellmann algorithm replaces: fix the sink
timeslice ``t_snk``, solve one extra "sequential" propagator through the
sink, and obtain the current insertion at every intermediate time
``tau`` — but for *one* source-sink separation per solve, with the
signal-to-noise frozen at the (large) sink time.

Implemented here for the pion with a u-quark current insertion.  Quark
flow: source ``0 --u--> (z, tau) [Gamma] --u--> (x, t_snk) --dbar--> 0``:

``C_3pt(tau; t_snk) = sum_{x,z} tr[ S_d(x;0)^H  S_u(x;z) Gamma S_u(z;0) ]``

The all-to-all piece ``sum_x S_u(x;z)^H ...`` collapses into one solve:

``sigma = gamma_5 D_u^{-1} [ gamma_5 (S_d restricted to t_snk) ]``
``C_3pt(tau) = sum_{z on tau} tr[ sigma(z)^H Gamma S_u(z) ]``

Exactness check (tested): summing ``C_3pt`` over *all* insertion times
equals the Feynman-Hellmann correlator restricted to the sink timeslice
— the two methods compute the same derivative, they just slice it
differently.  That identity is the heart of the paper's algorithmic
advance: the FH solve buys every ``t_snk`` at once.
"""

from __future__ import annotations

import numpy as np

from repro.contractions.propagator import (
    Propagator,
    SchurColumnStacks,
    collect_columns,
    solve_column_stacks,
)
from repro.dirac import gamma as g
from repro.dirac.wilson import WilsonOperator
from repro.solvers.blockcg import BlockCG
from repro.solvers.cg import ConjugateGradient

__all__ = ["sequential_propagator", "pion_three_point", "pion_two_point_matrix"]


def sequential_propagator(
    wilson: WilsonOperator,
    prop_d: Propagator,
    t_snk: int,
    solver: ConjugateGradient | None = None,
    *,
    deflation=None,
    mode: str = "percolumn",
    stats: dict | None = None,
) -> Propagator:
    """Solve the through-the-sink propagator for a pion sink at ``t_snk``.

    Returns ``sigma`` with the same (snk, src) index layout as a normal
    propagator: ``sigma(z)^{ab}_{alpha beta} = sum_x [S_u(x;z)^H
    S_d(x;0)]`` restricted to ``t_x = t_snk``.

    ``mode`` is a schedule of 12 independent CGNE Krylov spaces —
    ``"percolumn"`` (lock-step column stacks of the budgeted width,
    :func:`repro.contractions.propagator.solve_column_stacks`) or
    ``"batched"`` (one 12-stack) — on the red-black preconditioned
    system (:class:`repro.contractions.propagator.SchurColumnStacks`),
    unless ``deflation`` (a low-mode basis of this operator's ``D^H D``,
    seeding every column) is given.  The solver's type decides the
    rest: a :class:`repro.solvers.blockcg.BlockCG` shares one Krylov
    space across all 12 columns of the full operator, whatever ``mode``
    says.  When ``stats`` is a dict, the accumulated
    ``iterations``/``matvecs``/``flops`` of the solves are added into it
    (``iterations`` is the per-column sum under ``"percolumn"``, the
    stacked count otherwise) and ``true_relres`` is the worst column's
    ``|b - D x| / |b|`` on the full operator.
    """
    geom = wilson.geometry
    if not 0 <= t_snk < geom.lt:
        raise ValueError(f"t_snk={t_snk} outside 0..{geom.lt - 1}")
    if mode not in ("percolumn", "batched"):
        raise ValueError(f"unknown sequential solve mode {mode!r}")
    if solver is None:
        solver = ConjugateGradient(tol=1e-10, max_iter=6000)

    # Source: gamma_5 (S_d delta_{t, t_snk}) column by column.
    b = prop_d.columns()
    b[:, :, :, :, np.arange(geom.lt) != t_snk] = 0.0
    g.gamma5_mul(b, out=b)
    block = isinstance(solver, BlockCG)
    width = b.shape[0] if block or mode == "batched" else None
    if deflation is None and not block:
        stacks = SchurColumnStacks(wilson, b, width).solve(solver)
    else:
        # full operator: the basis is of D^H D; BlockCG shares one Krylov space
        stacks = solve_column_stacks(
            wilson.apply, wilson.apply_dagger, b, solver, deflation=deflation, width=width
        )
    x = np.empty_like(b)
    collect_columns(
        stacks, x, stats, percolumn=mode == "percolumn" and not block,
        label=f"sequential {'block' if block else mode} solve",
    )
    return Propagator.from_columns(g.gamma5_mul(x, out=x), prop_d.source)


def pion_three_point(
    seq: Propagator,
    prop_u: Propagator,
    insertion: np.ndarray,
) -> np.ndarray:
    """``C_3pt(tau)`` for every insertion timeslice (length ``Lt``).

    Parameters
    ----------
    seq:
        Output of :func:`sequential_propagator` (fixed sink time).
    prop_u:
        The u-quark propagator from the same source.
    insertion:
        4x4 spin matrix of the current (e.g. ``gamma_4`` for the vector
        charge, ``gamma_3 gamma_5`` for the axial one).
    """
    # tr[sigma^H Gamma S_u] over spin (x) colour per site:
    #   sum_{C,D,B,c,b} conj(sigma_{C B c b}) Gamma_{C D} S_{D B c b}
    # (C is the sink spin the dagger conjugates onto Gamma's row).
    site = np.einsum(
        "xyztCBcb,CD,xyztDBcb->xyzt",
        np.conjugate(seq.data),
        insertion,
        prop_u.data,
        optimize=True,
    )
    return site.sum(axis=(0, 1, 2))


def pion_two_point_matrix(prop_u: Propagator, prop_d: Propagator) -> np.ndarray:
    """Pion two-point function from two (possibly different) propagators.

    ``C(t) = sum_x tr[S_d(x)^H S_u(x)]`` — the generalization of
    :func:`repro.contractions.mesons.pion_correlator` needed by the
    Feynman-Hellmann derivative (one line replaced at a time).
    """
    site = np.einsum(
        "xyztABab,xyztABab->xyzt",
        np.conjugate(prop_d.data),
        prop_u.data,
        optimize=True,
    )
    return site.sum(axis=(0, 1, 2))
