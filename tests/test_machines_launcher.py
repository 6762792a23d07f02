"""Launcher abstraction: registry-driven runner selection, golden
command lines, and DPM-capability gating against the modeled MPI stacks.

The ``produtil.mpi_impl`` idiom: the Table II machine dictates how rank
programs start (Sierra under SLURM's ``srun``, the rest via
``mpiexec``); off-registry hosts fall back to whatever is on ``PATH``,
bottoming out at the degenerate single-rank ``no_mpi`` runner.
"""

from __future__ import annotations

import pytest

from repro.machines.mpi import MPI_IMPLEMENTATIONS
from repro.machines.launcher import (
    LAUNCHERS,
    Launcher,
    detect_launcher,
    dpm_supported,
    launcher_for,
    mpi_implementation_for,
)
from repro.machines.registry import MACHINES


# -- golden command strings ---------------------------------------------------


def test_mpiexec_golden_command():
    cmd = LAUNCHERS["mpiexec"].build_command(4, ["python", "-m", "w"])
    assert cmd == ["mpiexec", "-n", "4", "python", "-m", "w"]


def test_srun_golden_command():
    cmd = LAUNCHERS["srun"].build_command(16, ["prog", "--flag"])
    assert cmd == ["srun", "-n", "16", "prog", "--flag"]


def test_no_mpi_single_rank_is_argv_itself():
    assert LAUNCHERS["no_mpi"].build_command(1, ["prog", "x"]) == ["prog", "x"]


def test_no_mpi_rejects_multirank():
    with pytest.raises(ValueError, match="single-rank only"):
        LAUNCHERS["no_mpi"].build_command(4, ["prog"])


def test_nonpositive_ranks_rejected():
    with pytest.raises(ValueError, match="n_ranks"):
        LAUNCHERS["mpiexec"].build_command(0, ["prog"])


def test_build_command_does_not_mutate_argv():
    argv = ["prog", "a"]
    LAUNCHERS["mpiexec"].build_command(2, argv)
    out = LAUNCHERS["no_mpi"].build_command(1, argv)
    out.append("b")
    assert argv == ["prog", "a"]


# -- registry-driven selection ------------------------------------------------


def test_registry_covers_all_runner_names():
    assert set(LAUNCHERS) == {"mpiexec", "mpirun", "srun", "no_mpi"}
    assert all(launcher.name == name for name, launcher in LAUNCHERS.items())


def test_sierra_launches_under_srun():
    assert launcher_for(MACHINES["sierra"]).name == "srun"


@pytest.mark.parametrize("machine", ["titan", "ray", "summit"])
def test_other_machines_launch_under_mpiexec(machine):
    assert launcher_for(MACHINES[machine]).name == "mpiexec"


def test_no_machine_falls_back_to_path_detection():
    assert launcher_for(None).name == detect_launcher().name


def test_detect_launcher_floor_is_no_mpi(monkeypatch):
    """With nothing on PATH the detector must land on no_mpi, not raise."""
    import repro.machines.launcher as mod

    monkeypatch.setattr(mod.shutil, "which", lambda prog: None)
    launcher = detect_launcher()
    assert launcher.name == "no_mpi" and launcher.program is None
    ok, reason = launcher.available()
    assert ok and reason == ""


def test_detect_launcher_prefers_mpiexec(monkeypatch):
    import repro.machines.launcher as mod

    monkeypatch.setattr(mod.shutil, "which", lambda prog: f"/usr/bin/{prog}")
    assert detect_launcher().name == "mpiexec"


def test_unavailable_launcher_reports_reason(monkeypatch):
    import repro.machines.launcher as mod

    monkeypatch.setattr(mod.shutil, "which", lambda prog: None)
    ok, reason = LAUNCHERS["srun"].available()
    assert not ok and "srun" in reason and "PATH" in reason


# -- DPM capability gating (Table II x MPI_IMPLEMENTATIONS) -------------------


def test_mpi_implementation_resolution():
    assert mpi_implementation_for(MACHINES["sierra"]) is MPI_IMPLEMENTATIONS["mvapich2"]
    assert mpi_implementation_for(MACHINES["ray"]) is MPI_IMPLEMENTATIONS["spectrum"]
    assert mpi_implementation_for(MACHINES["summit"]) is MPI_IMPLEMENTATIONS["spectrum"]
    # Cray MPICH never fed the Fig. 5 model: no entry
    assert mpi_implementation_for(MACHINES["titan"]) is None


def test_dpm_gating_matches_modeled_stacks():
    """dpm_supported must agree with the comm-model's per-stack flag,
    with unmodeled stacks conservatively unsupported."""
    expected = {"sierra": True, "ray": False, "summit": False, "titan": False}
    for key, want in expected.items():
        assert dpm_supported(MACHINES[key]) is want, key
    for key, want in expected.items():
        impl = mpi_implementation_for(MACHINES[key])
        if impl is not None:
            assert impl.dpm_supported is want


def test_launcher_dataclass_frozen():
    with pytest.raises(Exception):
        Launcher(name="x", program="x").name = "y"
