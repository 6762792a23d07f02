"""mpi_jm: the lump/block hierarchical job manager.

The production design of Section V:

* **Lumps** — groups of nodes (32-128) each started as one ``mpirun`` of
  single-node manager processes; the first lump hosts the scheduler and
  the rest connect via MPI-3.1 dynamic process management.  Lumps start
  *in parallel*, so bring-up of thousands of nodes takes minutes
  (Sierra: 4224 nodes running in 3-5 minutes); lumps that fail to start
  are simply ignored.
* **Blocks** — subdivisions of a lump sized to a multiple of the job
  size, with members chosen close together.  Jobs are placed inside
  blocks, so free nodes never fragment and communication stays local —
  the fix for METAQ's fragmentation problem.
* **Co-scheduling** — CPU-only tasks (contractions) run on the idle
  cores of nodes whose GPUs are busy with propagators, making their
  cost "effectively free".
* Jobs start via ``MPI_Comm_spawn_multiple`` (one scheduler message, no
  service-node ``mpirun``), which requires an MPI with DPM support —
  MPICH or MVAPICH2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.simulator import ClusterSim, Dispatch, Placement, Task, TaskState
from repro.machines.mpi import MPI_IMPLEMENTATIONS, MPIImplementation
from repro.runtime.policies import POLICIES

__all__ = ["MpiJmConfig", "MpiJmStats", "MpiJm", "startup_time"]


@dataclass(frozen=True)
class MpiJmConfig:
    """Deployment shape of one mpi_jm instance.

    Parameters
    ----------
    lump_size:
        Nodes per lump; kept modest on new systems because an
        ``MPI_Abort`` in a disconnected job still brings down its whole
        lump (observed on Sierra, in violation of the MPI standard).
    block_size:
        Nodes per block; a multiple of the largest job size.
    mpi:
        The MPI implementation (must support DPM).
    spawn_overhead_s:
        Seconds from scheduler match to ranks running
        (``MPI_Comm_spawn_multiple`` latency).
    """

    lump_size: int = 64
    block_size: int = 4
    mpi: MPIImplementation = MPI_IMPLEMENTATIONS["mvapich2"]
    spawn_overhead_s: float = 2.0

    def __post_init__(self) -> None:
        if self.lump_size < 1 or self.block_size < 1:
            raise ValueError("lump and block sizes must be positive")
        if self.lump_size % self.block_size:
            raise ValueError(
                f"block size {self.block_size} must divide lump size {self.lump_size}"
            )
        if not self.mpi.dpm_supported:
            raise ValueError(
                f"{self.mpi.name} lacks MPI_Comm_spawn_multiple/DPM; "
                "mpi_jm cannot run on it (use MPICH or MVAPICH2)"
            )


@dataclass
class MpiJmStats:
    """Counters from one mpi_jm run."""

    gpu_tasks: int = 0
    cpu_tasks: int = 0
    spawns: int = 0
    lumps: int = 0
    blocks: int = 0
    lumps_failed: int = 0
    startup_seconds: float = 0.0
    aborts_observed: int = 0
    tasks_killed_by_abort: int = 0


def startup_time(
    n_nodes: int,
    lump_size: int = 64,
    mpi: MPIImplementation = MPI_IMPLEMENTATIONS["mvapich2"],
    service_node_serialization_s: float = 1.5,
    scheduler_connect_s: float = 45.0,
    first_wave_s: float = 90.0,
) -> float:
    """Model of the partitioned mpi_jm bring-up.

    Lumps launch as independent bounded-size ``mpirun``s (no non-linear
    large-job startup cost): the service nodes serialize the submissions
    at ~``service_node_serialization_s`` each, the lumps themselves boot
    in parallel, all connect to the scheduler within
    ``scheduler_connect_s`` ("in less than one minute, all lumps were
    connected"), and the scheduler distributes the first wave of work in
    ``first_wave_s`` ("within five minutes, nearly all nodes were
    performing real work").
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    n_lumps = int(np.ceil(n_nodes / lump_size))
    submit = n_lumps * service_node_serialization_s
    boot = mpi.lump_startup_s  # parallel across lumps
    return submit + boot + scheduler_connect_s + first_wave_s


class MpiJm:
    """The scheduler, driving a :class:`ClusterSim`: the ``mpijm`` policy,
    placed in blocks, with lump aborts around it.

    Parameters
    ----------
    sim:
        Cluster to manage (node shape from the machine spec).
    config:
        Lump/block/MPI configuration.
    include_startup:
        Add the partitioned-startup delay before work begins.
    lump_failure_prob:
        Probability that a lump fails to connect (bad node / file
        system); its nodes are ignored, work proceeds on the rest.
    """

    def __init__(
        self,
        sim: ClusterSim,
        config: MpiJmConfig | None = None,
        include_startup: bool = True,
        lump_failure_prob: float = 0.0,
    ):
        self.sim = sim
        self.config = config or MpiJmConfig()
        self.include_startup = include_startup
        self.stats = MpiJmStats()
        self._blocks: list[list[int]] = []
        self._build_blocks(lump_failure_prob)

    # -- topology ------------------------------------------------------------
    def _build_blocks(self, lump_failure_prob: float) -> None:
        sim, size = self.sim, self.config.block_size
        step = self.config.lump_size
        lumps = [list(range(i, min(i + step, sim.n_nodes))) for i in range(0, sim.n_nodes, step)]
        self.stats.lumps = len(lumps)
        self._node_lump = {node: li for li, lump in enumerate(lumps) for node in lump}
        for lump in lumps:
            if lump_failure_prob > 0 and sim.rng.random() < lump_failure_prob:
                self.stats.lumps_failed += 1
                for i in lump:
                    sim.fail_node(i)
            else:  # whole blocks only
                self._blocks += [lump[j : j + size] for j in range(0, len(lump) - size + 1, size)]
        self.stats.blocks = len(self._blocks)

    def _place(self, task: Task) -> Placement | None:
        """GPU work goes inside one block; ``cpu_only`` work overlays any
        node with free cores, whether or not its GPUs are busy."""
        nodes = self.sim.nodes
        for group in (range(len(nodes)),) if task.cpu_only else self._blocks:
            free = [
                i
                for i in group
                if not nodes[i].failed
                and nodes[i].gpus_free >= task.gpus_per_node
                and nodes[i].cpus_free >= task.cpus_per_node
            ]
            if len(free) >= task.n_nodes:
                return free[: task.n_nodes], 1.0
        return None

    # -- execution ----------------------------------------------------------------
    def run(
        self,
        gpu_tasks: list[Task],
        cpu_tasks: list[Task] | None = None,
        on_gpu_complete=None,
        abort_spec: dict[str, float] | None = None,
    ) -> float:
        """Schedule everything; returns the makespan (including startup).

        Parameters
        ----------
        gpu_tasks, cpu_tasks:
            Initially-ready work (placed by shape: GPU tasks in blocks,
            CPU-only tasks on the overlay).
        on_gpu_complete:
            Optional callback ``task -> list[Task]`` returning CPU tasks
            *released* by a GPU task's completion (the Fig. 2 dependency:
            contractions consume propagators already written to disk).
        abort_spec:
            Failure injection: maps a task name to the fraction of its
            run after which it calls ``MPI_Abort``.  Per the paper's
            observation, the abort "still brings the entire lump down
            (in violation of the MPI standard), but fortunately not the
            entire system": every job running in the lump is killed and
            requeued, and the abort is consumed (the retry succeeds).
            A job killed before its abort point never calls it.  This is
            why production used relatively small lump sizes.
        """
        cfg = self.config
        for t in gpu_tasks:
            if t.n_nodes > cfg.block_size:
                raise ValueError(
                    f"{t.name} spans {t.n_nodes} nodes > block size {cfg.block_size}"
                )
        sim = self.sim
        aborts = dict(abort_spec or {})

        def started(task: Task, end: float) -> None:
            self.stats.spawns += 1
            self.stats.gpu_tasks += not task.cpu_only
            self.stats.cpu_tasks += task.cpu_only
            frac = aborts.pop(task.name, None)
            if frac is not None:
                if not 0.0 < frac <= 1.0:
                    raise ValueError(f"abort fraction for {task.name} must be in (0, 1]")
                sim.at(sim.now + frac * (end - sim.now), lambda: abort_lump(task))

        def abort_lump(caller: Task) -> None:
            """MPI_Abort takes the caller's whole lump down; requeue its jobs."""
            if caller.state != TaskState.RUNNING:
                return  # killed before its abort point: it never calls it
            self.stats.aborts_observed += 1
            lump = self._node_lump[caller.nodes[0]]
            for victim in [t for t in dispatch.running if self._node_lump[t.nodes[0]] == lump]:
                dispatch.kill(victim)
                self.stats.tasks_killed_by_abort += 1
            dispatch.pump()

        def done(task: Task) -> None:
            if not task.cpu_only and on_gpu_complete is not None:
                for released in on_gpu_complete(task):
                    dispatch.submit(released)

        dispatch = Dispatch(
            sim,
            POLICIES["mpijm"],
            self._place,
            overhead=cfg.spawn_overhead_s,
            on_start=started,
            on_done=done,
        )
        if self.include_startup:
            self.stats.startup_seconds = startup_time(sim.n_nodes, cfg.lump_size, cfg.mpi)
        tasks = [*gpu_tasks, *(cpu_tasks or [])]
        return dispatch.run(tasks, start_at=self.stats.startup_seconds)
