"""Event-driven simulation of a GPU cluster.

Time is virtual; events are ``(time, seq, callback)`` triples in a heap.
Nodes own GPUs and CPU slots; tasks request ``n_nodes x (gpus_per_node,
cpus_per_node)`` and run for ``work / slowest-node-speed x
placement_penalty`` seconds.  Per-node performance jitter models the
real-machine variance that makes naive bundling idle 20-25% of the
allocation (Section V).  :class:`Dispatch` runs an executed scheduling
policy (:mod:`repro.runtime.policies`) on this virtual clock; the job
managers supply only where a task goes.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.utils.rng import make_rng

__all__ = ["NodeState", "Task", "TaskState", "ClusterSim", "Dispatch", "first_fit"]


@dataclass
class NodeState:
    """One node's resources and speed."""

    index: int
    gpus_total: int
    cpus_total: int
    perf_factor: float
    gpus_free: int = field(init=False)
    cpus_free: int = field(init=False)
    failed: bool = False

    def __post_init__(self) -> None:
        self.gpus_free = self.gpus_total
        self.cpus_free = self.cpus_total


class TaskState:
    """Lifecycle of a task."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    KILLED = "killed"


@dataclass(eq=False)
class Task:
    """A resource request plus work.

    Tasks compare and hash by identity: two clones of the same spec are
    distinct schedulable units.

    Parameters
    ----------
    name:
        Identifier (for traces).
    n_nodes:
        Nodes spanned.
    gpus_per_node, cpus_per_node:
        Resources consumed on each spanned node.  CPU-only tasks set
        ``gpus_per_node = 0`` — the co-scheduling case of ``mpi_jm``.
    work:
        Seconds of execution on nominal (perf_factor = 1) nodes.
    flops:
        Total useful flops, for sustained-performance accounting.
    tags:
        Free-form labels (e.g. ``"propagator"``, ``"contraction"``).
    """

    name: str
    n_nodes: int
    gpus_per_node: int
    cpus_per_node: int
    work: float
    flops: float = 0.0
    tags: tuple[str, ...] = ()

    # runtime state
    state: str = field(default=TaskState.PENDING, compare=False)
    nodes: list[int] = field(default_factory=list, compare=False)
    start_time: float = field(default=np.nan, compare=False)
    end_time: float = field(default=np.nan, compare=False)
    placement_penalty: float = field(default=1.0, compare=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"{self.name}: n_nodes must be >= 1")
        if self.gpus_per_node < 0 or self.cpus_per_node < 0:
            raise ValueError(f"{self.name}: negative resource request")
        if self.gpus_per_node == 0 and self.cpus_per_node == 0:
            raise ValueError(f"{self.name}: task requests no resources")
        if self.work <= 0:
            raise ValueError(f"{self.name}: work must be positive")

    # The scheduling policies' vocabulary (repro.runtime.policies).  The
    # model has no duration estimate: ``work`` is the true duration, which
    # no real job manager knows, so every modeled task ranks the same.
    priority = 0
    est_seconds = 0.0

    @property
    def cpu_only(self) -> bool:
        return self.gpus_per_node == 0

    def clone(self) -> "Task":
        """Fresh PENDING copy (schedulers clone so a task list can be
        replayed under several schedulers for comparison)."""
        return Task(
            name=self.name,
            n_nodes=self.n_nodes,
            gpus_per_node=self.gpus_per_node,
            cpus_per_node=self.cpus_per_node,
            work=self.work,
            flops=self.flops,
            tags=self.tags,
        )


class ClusterSim:
    """The simulator core.

    Parameters
    ----------
    n_nodes:
        Allocation size.
    gpus_per_node, cpus_per_node:
        Node shape (take them from a
        :class:`repro.machines.MachineSpec`).
    perf_jitter:
        Sigma of the per-node speed factor (mean 1, floored at 0.75).
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        n_nodes: int,
        gpus_per_node: int,
        cpus_per_node: int,
        rng: np.random.Generator | int | None = None,
        perf_jitter: float = 0.03,
    ):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.rng = make_rng(rng)
        factors = np.maximum(0.75, self.rng.normal(1.0, perf_jitter, size=n_nodes))
        self.nodes = [
            NodeState(i, gpus_per_node, cpus_per_node, float(f))
            for i, f in enumerate(factors)
        ]
        self.now = 0.0
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.completed: list[Task] = []
        self.busy_gpu_seconds = 0.0
        self.busy_cpu_seconds = 0.0

    # -- event queue -----------------------------------------------------
    def at(self, time: float, fn: Callable[[], None]) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self._events, (time, next(self._seq), fn))

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        self.at(self.now + delay, fn)

    def run(self, until: float | None = None) -> None:
        """Process events in order (optionally up to a horizon)."""
        while self._events:
            t, _, fn = self._events[0]
            if until is not None and t > until:
                break
            heapq.heappop(self._events)
            self.now = t
            fn()
        if until is not None and self.now < until:
            self.now = until

    # -- resources ------------------------------------------------------------
    def fits(self, task: Task, node_ids: list[int]) -> bool:
        """Can the task run on exactly these nodes right now?"""
        if len(node_ids) != task.n_nodes:
            return False
        for i in node_ids:
            node = self.nodes[i]
            if node.failed:
                return False
            if node.gpus_free < task.gpus_per_node:
                return False
            if node.cpus_free < task.cpus_per_node:
                return False
        return True

    def start_task(
        self,
        task: Task,
        node_ids: list[int],
        on_complete: Callable[[Task], None] | None = None,
        placement_penalty: float = 1.0,
    ) -> float:
        """Claim resources and schedule completion; returns the end time."""
        if task.state != TaskState.PENDING:
            raise RuntimeError(f"{task.name} already {task.state}")
        if not self.fits(task, node_ids):
            raise RuntimeError(f"{task.name} does not fit on nodes {node_ids}")
        for i in node_ids:
            self.nodes[i].gpus_free -= task.gpus_per_node
            self.nodes[i].cpus_free -= task.cpus_per_node
        task.state = TaskState.RUNNING
        task.nodes = list(node_ids)
        task.start_time = self.now
        task.placement_penalty = placement_penalty
        slowest = min(self.nodes[i].perf_factor for i in node_ids)
        duration = task.work * placement_penalty / slowest
        task.end_time = self.now + duration

        def complete() -> None:
            if task.state != TaskState.RUNNING:
                return  # killed before completion
            for i in node_ids:
                self.nodes[i].gpus_free += task.gpus_per_node
                self.nodes[i].cpus_free += task.cpus_per_node
            task.state = TaskState.DONE
            self.completed.append(task)
            self.busy_gpu_seconds += duration * task.gpus_per_node * task.n_nodes
            self.busy_cpu_seconds += duration * task.cpus_per_node * task.n_nodes
            if on_complete is not None:
                on_complete(task)

        self.at(task.end_time, complete)
        return task.end_time

    def kill_task(self, task: Task) -> None:
        """Abort a running task: resources return, its work is wasted.

        The already-scheduled completion event becomes a no-op.  Used by
        the mpi_jm lump-failure model (an ``MPI_Abort`` in one job takes
        its whole lump's jobs down with it).
        """
        if task.state != TaskState.RUNNING:
            raise RuntimeError(f"cannot kill {task.name}: state {task.state}")
        for i in task.nodes:
            self.nodes[i].gpus_free += task.gpus_per_node
            self.nodes[i].cpus_free += task.cpus_per_node
        task.state = TaskState.KILLED

    # -- node selection helpers ---------------------------------------------------
    def free_nodes(self, need_gpus: int, need_cpus: int) -> list[int]:
        """Indices of healthy nodes with at least the given free resources."""
        return [
            n.index
            for n in self.nodes
            if not n.failed and n.gpus_free >= need_gpus and n.cpus_free >= need_cpus
        ]

    def fail_node(self, index: int) -> None:
        """Mark a node failed (new work avoids it; running work finishes)."""
        self.nodes[index].failed = True

    # -- metrics --------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def gpu_utilization(self, makespan: float | None = None) -> float:
        """Busy GPU-seconds over available GPU-seconds."""
        span = self.now if makespan is None else makespan
        total_gpus = sum(n.gpus_total for n in self.nodes)
        if span <= 0 or total_gpus == 0:
            return 0.0
        return self.busy_gpu_seconds / (span * total_gpus)

    def sustained_pflops(self, makespan: float | None = None) -> float:
        """Aggregate useful flops over the makespan, in PFlop/s."""
        span = self.now if makespan is None else makespan
        if span <= 0:
            return 0.0
        return sum(t.flops for t in self.completed) / span / 1e15


Placement = tuple[list[int], float]  # (node ids, placement penalty)


def first_fit(sim: ClusterSim, task: Task) -> Placement | None:
    """The first free nodes (in index order) that can host the task."""
    free = sim.free_nodes(task.gpus_per_node, task.cpus_per_node)
    return (free[: task.n_nodes], 1.0) if len(free) >= task.n_nodes else None


@dataclass
class Dispatch:
    """One scheduling loop on the virtual clock: ``policy.assign``
    (:mod:`repro.runtime.policies`) decides what starts, ``place(task)``
    where (or ``None``), and the launched copy runs ``overhead`` seconds
    longer (per-task ``mpirun`` / spawn).  ``on_start(task, end)`` and
    ``on_done(task)`` see the launched copy; every completion pumps."""

    sim: ClusterSim
    policy: object
    place: Callable[[Task], Placement | None]
    overhead: float = 0.0
    on_start: Callable[[Task, float], None] | None = None
    on_done: Callable[[Task], None] | None = None
    ready: list[Task] = field(default_factory=list, init=False)
    running: dict[Task, Task] = field(default_factory=dict, init=False)  # launched -> queued

    def submit(self, task: Task) -> None:
        self.ready.append(task.clone())

    def pump(self) -> None:
        """Start everything the policy allows that fits right now."""
        # Launches only consume resources, so a shape that missed once
        # cannot fit later in the same pass.
        missed: set[tuple[int, int, int]] = set()

        def place(task: Task) -> Placement | None:
            shape = (task.n_nodes, task.gpus_per_node, task.cpus_per_node)
            where = None if shape in missed else self.place(task)
            if where is None:
                missed.add(shape)
            return where

        for task, (nodes, penalty) in self.policy.assign(self.ready, len(self.running), place):
            self.ready.remove(task)  # assign iterates its own ordered copy
            launched = task.clone()
            launched.work = task.work + self.overhead
            self.running[launched] = task
            end = self.sim.start_task(launched, nodes, self._done, placement_penalty=penalty)
            if self.on_start is not None:
                self.on_start(launched, end)

    def _done(self, launched: Task) -> None:
        del self.running[launched]
        if self.on_done is not None:
            self.on_done(launched)
        self.pump()

    def kill(self, launched: Task) -> None:
        """Abort a running launch; its queued task goes back on the queue."""
        self.sim.kill_task(launched)
        self.ready.append(self.running.pop(launched).clone())

    def run(self, tasks: list[Task], start_at: float | None = None) -> float:
        """Queue the tasks, pump now (or after ``start_at`` seconds), run
        the clock dry; returns the makespan."""
        for task in tasks:
            self.submit(task)
        if start_at is None:
            self.pump()
        else:
            self.sim.after(start_at, self.pump)
        self.sim.run()
        if self.ready:
            raise RuntimeError(f"{len(self.ready)} tasks never fit (first: {self.ready[0].name})")
        return self.sim.now
