"""Job management: METAQ and mpi_jm (Section V).

METAQ is the shell-script proof of concept: a backfilling middle layer
between the batch scheduler and the user's job scripts that recovers the
20-25% idle time of naive bundling, at the cost of node fragmentation
and one ``mpirun`` per task.

``mpi_jm`` is the production library: nodes are organized into *lumps*
(independent mpirun launches that connect to a central scheduler via MPI
DPM) subdivided into *blocks* (contiguous node groups sized to the jobs)
that prevent fragmentation; CPU-only tasks co-schedule onto the idle
cores of GPU nodes; and the partitioned startup brings thousands of
nodes up in minutes.

Both are placement only: *what* starts is the executed runtime's policy
(:mod:`repro.runtime.policies`), run on the simulator's virtual clock by
:class:`repro.cluster.Dispatch`; *where* is each manager's ``_place``.
"""

from repro.jobmgr.metaq import METAQ, MetaqStats
from repro.jobmgr.mpijm import MpiJm, MpiJmConfig, MpiJmStats, startup_time

__all__ = [
    "METAQ",
    "MetaqStats",
    "MpiJm",
    "MpiJmConfig",
    "MpiJmStats",
    "startup_time",
]
