"""Tensor contractions: quark propagators, meson and baryon correlators.

In the paper's workflow (Fig. 2) the propagator solves consume ~97% of
the runtime on GPUs while these contractions run on otherwise-idle CPUs
(~3%), interleaved by the ``mpi_jm`` job manager.  Here they are exact
einsum contractions over spin and colour.
"""

from repro.contractions.propagator import (
    Propagator,
    SchurColumnStacks,
    collect_columns,
    column_relres,
    compute_propagator,
    compute_wilson_propagator,
    point_source,
    point_sources,
    point_sources_5d,
    solve_column_stacks,
    solve_columns,
    stack_width,
)
from repro.contractions.mesons import pion_correlator
from repro.contractions.baryons import proton_correlator, proton_correlator_bilinear
from repro.contractions.smearing import GaussianSmearing
from repro.contractions.sequential import (
    pion_three_point,
    pion_two_point_matrix,
    sequential_propagator,
)

__all__ = [
    "Propagator",
    "point_source",
    "point_sources",
    "point_sources_5d",
    "compute_propagator",
    "compute_wilson_propagator",
    "solve_column_stacks",
    "stack_width",
    "SchurColumnStacks",
    "column_relres",
    "collect_columns",
    "solve_columns",
    "pion_correlator",
    "proton_correlator",
    "proton_correlator_bilinear",
    "GaussianSmearing",
    "sequential_propagator",
    "pion_three_point",
    "pion_two_point_matrix",
]
