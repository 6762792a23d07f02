"""Workload generators for the scheduling experiments.

The paper's production workload: thousands of propagator solves (4-node
GPU jobs whose durations vary with the stochastic CG iteration count and
node speed), contraction tasks (CPU-only, short), and I/O.  Durations
are drawn from a lognormal around the performance-model prediction,
which is what makes naive bundling leak 20-25% idle time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.simulator import Task
from repro.machines.registry import MachineSpec
from repro.perfmodel.solver import SolverPerfModel
from repro.utils.rng import make_rng

__all__ = ["WorkloadSpec", "make_propagator_workload"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one propagator-campaign workload.

    Parameters
    ----------
    n_propagators:
        GPU solve tasks to run.
    nodes_per_job:
        Nodes per solve (4 on Sierra = 16 GPUs, the production shape).
    global_dims, ls:
        The lattice each solve works on.
    cg_iterations:
        Mean CG iterations per solve (sets the work).
    duration_sigma:
        Lognormal sigma of the per-task duration spread (iteration-count
        variance between sources/configurations).
    contraction_fraction:
        CPU contraction work as a fraction of propagator work (~3%).
    """

    n_propagators: int
    nodes_per_job: int = 4
    global_dims: tuple[int, int, int, int] = (48, 48, 48, 64)
    ls: int = 20
    cg_iterations: int = 5000
    duration_sigma: float = 0.18
    contraction_fraction: float = 0.03


def make_propagator_workload(
    machine: MachineSpec,
    spec: WorkloadSpec,
    rng: np.random.Generator | int | None = None,
    mpi_performance_factor: float = 1.0,
    with_contractions: bool = False,
) -> list[Task]:
    """Build the task list for a propagator campaign on one machine.

    Per-solve work comes from the solver performance model at the
    job's GPU count; task flops use the paper's explicit counts so
    sustained performance can be reported from the simulation.
    """
    rng = make_rng(rng)
    n_gpus = spec.nodes_per_job * machine.gpus_per_node
    model = SolverPerfModel(
        machine,
        tuple(spec.global_dims),
        spec.ls,
        mpi_performance_factor=mpi_performance_factor,
    )
    point = model.predict(n_gpus)
    base_seconds = point.time_per_iter_s * spec.cg_iterations
    flops_per_solve = point.flops_per_iter_per_gpu * n_gpus * spec.cg_iterations

    tasks: list[Task] = []
    for i in range(spec.n_propagators):
        work = float(base_seconds * rng.lognormal(mean=0.0, sigma=spec.duration_sigma))
        tasks.append(
            Task(
                name=f"prop-{i:05d}",
                n_nodes=spec.nodes_per_job,
                gpus_per_node=machine.gpus_per_node,
                cpus_per_node=2,  # rank management only
                work=work,
                flops=flops_per_solve,
                tags=("propagator",),
            )
        )
        if with_contractions:
            tasks.append(
                Task(
                    name=f"contract-{i:05d}",
                    n_nodes=1,
                    gpus_per_node=0,
                    cpus_per_node=max(4, machine.cpu_slots_per_node // 4),
                    work=float(
                        base_seconds
                        * spec.nodes_per_job
                        * spec.contraction_fraction
                        * rng.lognormal(0.0, 0.25)
                    ),
                    flops=0.0,
                    tags=("contraction",),
                )
            )
    return tasks
