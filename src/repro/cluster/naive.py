"""The naive task-bundling baseline (what METAQ replaced).

"Naively grouping even similar tasks into a single job creates the
possibility of waste ... simply collecting and simultaneously launching
HPC steps, and waiting for their completion, often caused a 20 to 25%
idling inefficiency" — Section V.

The bundler packs as many tasks as fit into the allocation, launches them
together, and — crucially — waits for the *slowest* task of the bundle
before starting the next bundle.  Duration variance between tasks and
nodes turns directly into idle GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.cluster.simulator import ClusterSim, Dispatch, Task, first_fit
from repro.runtime.policies import POLICIES

__all__ = ["NaiveBundler"]


@dataclass
class NaiveBundler:
    """Batch-synchronous execution of a task list on ``sim``: the ``naive``
    policy, first-fit on the free nodes."""

    sim: ClusterSim
    bundles_run: int = field(default=0, init=False)

    def run(self, tasks: list[Task]) -> float:
        """Execute all tasks bundle by bundle; returns the makespan."""
        starts: set[float] = set()  # a bundle's members start together
        makespan = Dispatch(
            self.sim, POLICIES["naive"], partial(first_fit, self.sim),
            on_start=lambda task, _end: starts.add(task.start_time),
        ).run(tasks)
        self.bundles_run += len(starts)
        return makespan
