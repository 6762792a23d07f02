"""Lattice substrate: geometry, SU(3) group algebra, gauge fields, the
quenched heatbath and gauge fixing.

This is the "femtoscale universe" of the paper title: a periodic 4D
space-time grid carrying SU(3) gauge links.  The paper runs on lattices up
to 96^3 x 144; this NumPy implementation targets the small volumes
(4^3 x 8 .. 8^3 x 16) where the full physics pipeline is exact and fast,
while :mod:`repro.perfmodel` extrapolates the computational cost to the
paper's volumes.
"""

from repro.lattice.geometry import Geometry
from repro.lattice.su3 import (
    NC,
    dagger,
    identity_links,
    project_su3,
    project_traceless_antihermitian,
    random_algebra,
    random_su3,
    su3_expm,
    unitarity_violation,
)
from repro.lattice.gauge import GaugeField
from repro.lattice.heatbath import HeatbathUpdater
from repro.lattice.gaugefix import GaugeFixer, GaugeFixResult

__all__ = [
    "Geometry",
    "GaugeField",
    "HeatbathUpdater",
    "GaugeFixer",
    "GaugeFixResult",
    "NC",
    "dagger",
    "identity_links",
    "project_su3",
    "project_traceless_antihermitian",
    "random_algebra",
    "random_su3",
    "su3_expm",
    "unitarity_violation",
]
