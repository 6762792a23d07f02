"""repro — reproduction of Berkowitz et al., SC18 (arXiv:1810.01609).

"Simulating the weak death of the neutron in a femtoscale universe with
near-Exascale computing."

The package contains two halves that mirror the paper:

* a real (laptop-scale) lattice-QCD stack — SU(3) gauge fields, Wilson and
  Mobius domain-wall Dirac operators, mixed-precision conjugate-gradient
  solvers, baryon contractions and the Feynman-Hellmann method for the
  nucleon axial coupling ``g_A`` (subpackages :mod:`repro.lattice`,
  :mod:`repro.dirac`, :mod:`repro.solvers`, :mod:`repro.contractions`,
  :mod:`repro.core`, :mod:`repro.analysis`); and

* a simulated near-exascale environment — machine models of Titan, Ray,
  Sierra and Summit, a roofline GPU performance model, kernel and
  communication-policy autotuners, a discrete-event cluster simulator and
  the METAQ / mpi_jm job managers (subpackages :mod:`repro.machines`,
  :mod:`repro.perfmodel`, :mod:`repro.autotune`, :mod:`repro.comm`,
  :mod:`repro.cluster`, :mod:`repro.jobmgr`, :mod:`repro.workflow`).

See ``DESIGN.md`` for the full system inventory and the per-experiment
index mapping every table and figure of the paper to its renderer and
tier-1 test.
"""

from repro.version import __version__

__all__ = ["__version__"]
