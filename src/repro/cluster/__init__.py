"""Discrete-event cluster simulator.

The substrate for the job-management results (Figs. 5-7 and the METAQ
backfilling claims): nodes with GPUs and CPU slots, tasks with resource
shapes and durations, an event queue, and per-node performance jitter —
everything the schedulers in :mod:`repro.jobmgr` need to show their
effect on utilization and sustained performance.
"""

from repro.cluster.simulator import ClusterSim, Dispatch, NodeState, Task, TaskState, first_fit
from repro.cluster.naive import NaiveBundler
from repro.cluster.workload import WorkloadSpec, make_propagator_workload

__all__ = [
    "ClusterSim",
    "Dispatch",
    "first_fit",
    "NodeState",
    "Task",
    "TaskState",
    "NaiveBundler",
    "WorkloadSpec",
    "make_propagator_workload",
]
