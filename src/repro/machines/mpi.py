"""MPI implementation traits (Section V / Fig. 5).

``mpi_jm`` needs the MPI-3.1 dynamic-process-management (DPM) features —
``MPI_Comm_spawn_multiple`` and communicator disconnect — which at the
time only MPICH and MVAPICH2 supported.  SpectrumMPI jobs therefore ran
as individual scheduler submissions, and the MVAPICH2 build carried a
small untuned-performance penalty on Sierra.  These traits feed the
Fig. 5 weak-scaling comparison; :func:`mpi_implementation_for` reads
them off a Table II machine's ``mpi`` string.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machines.registry import MachineSpec

__all__ = [
    "MPIImplementation",
    "MPI_IMPLEMENTATIONS",
    "mpi_implementation_for",
    "dpm_supported",
]


@dataclass(frozen=True)
class MPIImplementation:
    """Scheduling-relevant properties of one MPI stack."""

    name: str
    #: supports MPI_Comm_spawn_multiple / disconnect (mpi_jm requirement)
    dpm_supported: bool
    #: relative solver performance (1.0 = vendor-tuned baseline)
    performance_factor: float
    #: seconds of scheduler + mpirun overhead per *separate* job launch
    per_job_launch_s: float
    #: seconds for one lump of nodes to start and connect under mpi_jm
    lump_startup_s: float
    note: str = ""


MPI_IMPLEMENTATIONS: dict[str, MPIImplementation] = {
    "spectrum": MPIImplementation(
        name="SpectrumMPI",
        dpm_supported=False,
        performance_factor=1.0,
        per_job_launch_s=25.0,
        lump_startup_s=float("inf"),  # cannot run under mpi_jm
        note="vendor MPI; no DPM, so every task is a separate scheduler job",
    ),
    "openmpi": MPIImplementation(
        name="openMPI",
        dpm_supported=True,
        performance_factor=0.97,
        per_job_launch_s=20.0,
        lump_startup_s=45.0,
        note="DPM usable per block; ran as several 100-node mpi_jm jobs",
    ),
    "mvapich2": MPIImplementation(
        name="MVAPICH2",
        dpm_supported=True,
        performance_factor=0.93,
        per_job_launch_s=15.0,
        lump_startup_s=40.0,
        note="full DPM: single mpi_jm job across all nodes; not yet fully "
        "tuned for Sierra (the paper's 15% -> 20% headroom)",
    ),
}

#: ``MachineSpec.mpi`` prefix -> :data:`MPI_IMPLEMENTATIONS` key (Cray
#: MPICH has no modeled entry — its traits never fed Fig. 5).
_MPI_PREFIXES = {
    "spectrum": "spectrum",
    "mvapich2": "mvapich2",
    "openmpi": "openmpi",
    "open mpi": "openmpi",
}


def mpi_implementation_for(machine: MachineSpec) -> MPIImplementation | None:
    """The modeled MPI stack behind a machine's ``mpi`` string, if any."""
    label = machine.mpi.lower()
    for prefix, key in _MPI_PREFIXES.items():
        if label.startswith(prefix):
            return MPI_IMPLEMENTATIONS[key]
    return None


def dpm_supported(machine: MachineSpec) -> bool:
    """Whether the machine's MPI stack supports dynamic process management.

    ``mpi_jm``-style lumped launches need ``MPI_Comm_spawn_multiple`` +
    disconnect; an unmodeled stack (Cray MPICH) is conservatively
    treated as unsupported, matching the paper's per-job fallback.
    """
    impl = mpi_implementation_for(machine)
    return impl is not None and impl.dpm_supported
