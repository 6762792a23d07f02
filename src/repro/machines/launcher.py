"""Machine-aware MPI launcher selection (the ``produtil.mpi_impl`` idiom).

One campaign spec must run laptop → multi-node unchanged: the machine
registry (Table II) — or, off-registry, the host's ``PATH`` — picks how
rank programs are started.  A :class:`Launcher` knows only how to turn
``(n_ranks, argv)`` into a command line.  Nothing here starts a process:
the launchers are the modeled Table II starters, and mpi_jm's lumped
launches (:mod:`repro.jobmgr.mpijm`) read their DPM gating from here.

Three runners cover the space:

``mpiexec``
    The MPI standard's portable starter (``mpiexec -n N prog``); also
    matched by ``mpirun`` where only that spelling exists.
``srun``
    SLURM's native starter, used on the LLNL machines (Sierra/rzAnsel
    class) where jobs run inside an allocation.
``no_mpi``
    The degenerate single-rank runner: ``build_command(1, argv)`` is
    ``argv`` itself, and any wider request raises — what a host
    without an MPI stack gets.

DPM capability rides along from :mod:`repro.machines.mpi`: machines whose
MPI stack lacks ``MPI_Comm_spawn_multiple`` (SpectrumMPI) cannot host
``mpi_jm``-style lumped launches, which the scheduler models.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass

from repro.machines.mpi import MPI_IMPLEMENTATIONS, MPIImplementation
from repro.machines.registry import MachineSpec

__all__ = [
    "Launcher",
    "LAUNCHERS",
    "detect_launcher",
    "launcher_for",
    "mpi_implementation_for",
    "dpm_supported",
]


@dataclass(frozen=True)
class Launcher:
    """How rank programs are started on one machine class."""

    name: str  # "mpiexec" | "srun" | "no_mpi"
    program: str | None  # executable looked up on PATH (None: run in place)

    def available(self) -> tuple[bool, str]:
        """(usable-here, reason-if-not) — by PATH lookup, never by running."""
        if self.program is None:
            return True, ""
        if shutil.which(self.program):
            return True, ""
        return False, f"launcher binary {self.program!r} not on PATH"

    def build_command(self, n_ranks: int, argv: list[str]) -> list[str]:
        """The full command line starting ``argv`` on ``n_ranks`` ranks."""
        n_ranks = int(n_ranks)
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        if self.program is None:
            if n_ranks != 1:
                raise ValueError(
                    f"launcher {self.name!r} cannot start {n_ranks} ranks "
                    "(no MPI stack; single-rank only)"
                )
            return list(argv)
        return [self.program, "-n", str(n_ranks), *argv]


#: The runner registry, by launcher name.
LAUNCHERS: dict[str, Launcher] = {
    "mpiexec": Launcher(name="mpiexec", program="mpiexec"),
    "mpirun": Launcher(name="mpirun", program="mpirun"),
    "srun": Launcher(name="srun", program="srun"),
    "no_mpi": Launcher(name="no_mpi", program=None),
}

#: Table II machines using SLURM's native starter; everything else in the
#: registry launches through ``mpiexec``.
_SRUN_MACHINES = frozenset({"sierra"})

#: ``MachineSpec.mpi`` prefix -> :data:`repro.machines.mpi.MPI_IMPLEMENTATIONS`
#: key (Cray MPICH has no modeled entry — its traits never fed Fig. 5).
_MPI_PREFIXES = {
    "spectrum": "spectrum",
    "mvapich2": "mvapich2",
    "openmpi": "openmpi",
    "open mpi": "openmpi",
}


def detect_launcher() -> Launcher:
    """The first usable runner on this host (``no_mpi`` as the floor)."""
    for name in ("mpiexec", "mpirun", "srun"):
        launcher = LAUNCHERS[name]
        ok, _ = launcher.available()
        if ok:
            return launcher
    return LAUNCHERS["no_mpi"]


def launcher_for(machine: MachineSpec | None = None) -> Launcher:
    """Registry-driven runner selection.

    With a Table II machine, the machine dictates the starter (Sierra
    runs under SLURM's ``srun``; the others use ``mpiexec``).  Without
    one — the laptop/CI case — fall back to :func:`detect_launcher`.
    """
    if machine is None:
        return detect_launcher()
    if machine.name.lower() in _SRUN_MACHINES:
        return LAUNCHERS["srun"]
    return LAUNCHERS["mpiexec"]


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
