"""Weak-scaling campaigns (Figures 5, 6 and 7).

The production pattern: the outer loop over propagator solves is
embarrassingly parallel, so the machine is filled with independent
4-node jobs.  What differs between the curves of Fig. 5 is *how the jobs
are launched*:

* ``spectrum`` — SpectrumMPI has no DPM, so every solve is an individual
  scheduler job (one ``mpirun`` each; the paper submitted 400 of them at
  the largest point);
* ``openmpi`` — mpi_jm in independent ~100-node blocks;
* ``mvapich2`` — one mpi_jm instance managing every node (a single
  scheduler submission), with the untuned-MVAPICH2 solver penalty.

Fig. 6 is the Summit variant driven by METAQ with ``jsrun`` per task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.simulator import ClusterSim, Task
from repro.cluster.workload import WorkloadSpec, make_propagator_workload
from repro.machines.mpi import MPI_IMPLEMENTATIONS
from repro.jobmgr.metaq import METAQ
from repro.jobmgr.mpijm import MpiJm, MpiJmConfig
from repro.machines.registry import MachineSpec

__all__ = ["WeakScalingPoint", "run_weak_scaling", "solve_performance_histogram"]

#: Solves per group in one campaign (steady-state averaging).
WAVES = 3


@dataclass(frozen=True)
class WeakScalingPoint:
    """One point of a Fig. 5/6-style curve."""

    mode: str
    n_groups: int
    n_gpus: int
    makespan_s: float
    sustained_pflops: float
    gpu_utilization: float


def _make_sim(machine: MachineSpec, n_nodes: int, rng: int) -> ClusterSim:
    return ClusterSim(
        n_nodes,
        machine.gpus_per_node,
        machine.cpu_slots_per_node,
        rng=rng,
        perf_jitter=0.03,
    )


def run_weak_scaling(
    machine: MachineSpec,
    n_groups: int,
    mode: str,
    global_dims: tuple[int, int, int, int] = (48, 48, 48, 64),
    ls: int = 20,
    nodes_per_job: int = 4,
    cg_iterations: int = 3000,
    rng: int = 0,
    waves: int = WAVES,
) -> WeakScalingPoint:
    """Simulate one weak-scaling campaign and report sustained PFlops.

    Parameters
    ----------
    machine:
        The system (Sierra for Fig. 5, Summit for Fig. 6).
    n_groups:
        Concurrent solve groups (each ``nodes_per_job`` nodes).
    mode:
        ``"spectrum"``, ``"openmpi"``, ``"mvapich2"`` (Fig. 5) or
        ``"metaq"`` (Fig. 6).
    """
    if n_groups < 1:
        raise ValueError("need at least one group")
    if mode not in ("spectrum", "openmpi", "mvapich2", "metaq"):
        raise ValueError(f"unknown launch mode {mode!r}")
    n_nodes = n_groups * nodes_per_job
    mpi_factor = {
        "spectrum": MPI_IMPLEMENTATIONS["spectrum"].performance_factor,
        "openmpi": MPI_IMPLEMENTATIONS["openmpi"].performance_factor,
        "mvapich2": MPI_IMPLEMENTATIONS["mvapich2"].performance_factor,
        "metaq": 1.0,
    }[mode]
    spec = WorkloadSpec(
        n_propagators=n_groups * waves,
        nodes_per_job=nodes_per_job,
        global_dims=global_dims,
        ls=ls,
        cg_iterations=cg_iterations,
        duration_sigma=0.12,
    )
    tasks = make_propagator_workload(
        machine, spec, rng=rng, mpi_performance_factor=mpi_factor
    )
    sim = _make_sim(machine, n_nodes, rng=rng + 1)

    if mode == "spectrum":
        # Individual scheduler jobs: one mpirun per task, no shared
        # manager.  METAQ's executor with a per-task mpirun cost is the
        # closest simulator analogue of the scheduler's own backfilling.
        mgr = METAQ(sim, mpirun_overhead=MPI_IMPLEMENTATIONS["spectrum"].per_job_launch_s)
        makespan = mgr.run(tasks)
    elif mode == "metaq":
        mgr = METAQ(sim, mpirun_overhead=15.0)  # jsrun per task
        makespan = mgr.run(tasks)
    else:
        lump = 100 if mode == "openmpi" else 128
        block = nodes_per_job
        lump -= lump % block  # keep block | lump
        lump = min(lump, n_nodes - n_nodes % block) or block
        jm = MpiJm(
            sim,
            MpiJmConfig(lump_size=lump, block_size=block, mpi=MPI_IMPLEMENTATIONS[mode]),
            include_startup=True,
        )
        makespan = jm.run(tasks)
        # Sustained performance is a steady-state measure: the one-off
        # partitioned startup (minutes on an hours-long allocation) is
        # excluded, exactly as the paper reports production rates.
        steady = makespan - jm.stats.startup_seconds
        return WeakScalingPoint(
            mode=mode,
            n_groups=n_groups,
            n_gpus=n_nodes * machine.gpus_per_node,
            makespan_s=makespan,
            sustained_pflops=sim.sustained_pflops(steady),
            gpu_utilization=sim.gpu_utilization(steady),
        )

    return WeakScalingPoint(
        mode=mode,
        n_groups=n_groups,
        n_gpus=n_nodes * machine.gpus_per_node,
        makespan_s=makespan,
        sustained_pflops=sim.sustained_pflops(makespan),
        gpu_utilization=sim.gpu_utilization(makespan),
    )


def solve_performance_histogram(
    machine: MachineSpec,
    n_groups: int,
    mode: str = "mvapich2",
    bins: int = 12,
    rng: int = 7,
    **kwargs,
) -> tuple[np.ndarray, np.ndarray, WeakScalingPoint]:
    """Fig. 7: per-solve performance distribution across a big campaign.

    Returns ``(counts, bin_edges, point)`` where the histogram is over
    per-solve sustained TFlops (node speed jitter plus scheduling
    effects spread the solves around the nominal group rate).
    """
    n_nodes = n_groups * 4
    mpi_factor = MPI_IMPLEMENTATIONS["mvapich2"].performance_factor if mode == "mvapich2" else 1.0
    spec = WorkloadSpec(
        n_propagators=n_groups * WAVES, nodes_per_job=4, duration_sigma=0.12, **kwargs
    )
    tasks = make_propagator_workload(machine, spec, rng=rng, mpi_performance_factor=mpi_factor)
    sim = _make_sim(machine, n_nodes, rng=rng + 1)
    jm = MpiJm(
        sim,
        MpiJmConfig(lump_size=128, block_size=4, mpi=MPI_IMPLEMENTATIONS["mvapich2"]),
        include_startup=True,
    )
    makespan = jm.run(tasks)
    rates = np.array(
        [t.flops / (t.end_time - t.start_time) / 1e12 for t in sim.completed if t.flops > 0]
    )
    counts, edges = np.histogram(rates, bins=bins)
    point = WeakScalingPoint(
        mode=mode,
        n_groups=n_groups,
        n_gpus=n_nodes * machine.gpus_per_node,
        makespan_s=makespan,
        sustained_pflops=sim.sustained_pflops(makespan),
        gpu_utilization=sim.gpu_utilization(makespan),
    )
    return counts, edges, point
