"""METAQ: backfilling task bundles with shell-script simplicity.

[Berkowitz, github.com/evanberkowitz/metaq; EPJ Web Conf. 175 (2018)
09007].  Whenever resources free up, METAQ scans its task directory and
launches the first task that fits — recovering the idle time the naive
bundler wastes.  Two costs, both modelled here, motivate ``mpi_jm``:

* METAQ is hardware-agnostic and "cannot guarantee that the nodes
  assigned to any task are near one another": as differently-sized jobs
  churn, free nodes fragment and multi-node tasks land on scattered
  nodes, degrading their communication performance; and
* every task is a separate ``mpirun`` invocation, "taxing on the
  service nodes".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.simulator import ClusterSim, Dispatch, Placement, Task, first_fit
from repro.runtime.policies import POLICIES

__all__ = ["METAQ", "MetaqStats"]


@dataclass
class MetaqStats:
    """Counters from one METAQ run."""

    tasks_launched: int = 0
    mpirun_invocations: int = 0
    fragmented_launches: int = 0
    worst_contiguity: float = 1.0


@dataclass
class METAQ:
    """Backfilling executor over a :class:`ClusterSim` allocation: the
    ``metaq`` policy, placed on the first free nodes.

    Parameters
    ----------
    sim:
        The cluster.
    frag_penalty:
        Slowdown factor applied per unit of non-contiguity: a 4-node
        task spread over an 8-node span runs
        ``1 + frag_penalty * (1 - 4/8)`` slower.  Used when no topology
        is supplied.
    mpirun_overhead:
        Seconds of service-node work added to every task start (the
        per-task ``mpirun`` cost METAQ pays and ``mpi_jm`` avoids).
    topology:
        Optional :class:`repro.machines.topology.FatTree`; when given,
        the placement penalty comes from the tree's leaf-locality and
        oversubscription instead of the contiguity heuristic.
    comm_sensitivity:
        Fraction of a job's runtime exposed to inter-node bandwidth
        (feeds the topology penalty).
    """

    sim: ClusterSim
    frag_penalty: float = 0.15
    mpirun_overhead: float = 8.0
    topology: object | None = None
    comm_sensitivity: float = 0.3
    stats: MetaqStats = field(default_factory=MetaqStats)

    def run(self, tasks: list[Task]) -> float:
        """Execute all tasks with backfilling; returns the makespan."""
        return Dispatch(
            self.sim, POLICIES["metaq"], self._place, overhead=self.mpirun_overhead
        ).run(tasks)

    def _place(self, task: Task) -> Placement | None:
        """The first free nodes, wherever they are, and what that costs."""
        placed = first_fit(self.sim, task)
        if placed is None:
            return None
        nodes = placed[0]
        contiguity = len(nodes) / (max(nodes) - min(nodes) + 1)
        if task.n_nodes > 1 and self.topology is not None:
            penalty = self.topology.placement_penalty(
                nodes, sensitivity=self.comm_sensitivity
            )
        else:
            penalty = 1.0 + self.frag_penalty * (1.0 - contiguity)
        self.stats.tasks_launched += 1
        self.stats.mpirun_invocations += 1
        if contiguity < 1.0 and task.n_nodes > 1:
            self.stats.fragmented_launches += 1
            self.stats.worst_contiguity = min(self.stats.worst_contiguity, contiguity)
        return nodes, penalty
