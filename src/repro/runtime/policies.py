"""Scheduling policies — naive bundling, METAQ, mpi_jm — one decision, two clocks.

A policy decides which ready task starts next, for the executed runtime
(idle real workers, :meth:`SchedulingPolicy.select`) and for the modeled
job managers (free nodes of a :class:`repro.cluster.ClusterSim` on a
virtual clock, :class:`repro.cluster.Dispatch`).  Each policy says only
the start ``order`` and the ``lane`` a task that does not fit holds back;
:meth:`SchedulingPolicy.assign` is the rest.  Section V maps directly:

``naive``
    Bundle-and-wait: a wave starts only when *nothing* runs, and a task
    that does not fit ends the wave.  Duration variance turns straight
    into idle workers — the paper's 20-25% waste.
``metaq``
    Backfilling: free resources take the first ready task that fits, in
    FIFO (topological) order — METAQ's task-directory scan.
``mpijm``
    GPU work first, then priority and longest estimate (big solves start
    early, small contractions backfill the tail); CPU-only tasks are
    co-scheduled filler that a stuck GPU task does not hold back.
    Modeled tasks carry no estimate, so on the virtual clock this is
    FIFO within each lane.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator

from repro.runtime.tasks import CampaignTask

__all__ = [
    "SchedulingPolicy",
    "NaiveWavePolicy",
    "MetaqBackfillPolicy",
    "MpiJmPolicy",
    "POLICIES",
    "make_policy",
]


class SchedulingPolicy:
    """Start ready tasks where there is room, one step at a time.  Tasks
    (executed or modeled) need ``cpu_only``, ``priority`` and ``est_seconds``."""

    name = "base"

    def order(self, ready: list, n_running: int) -> list:
        """A new list: the order to try ``ready`` (dependency-ordered) in."""
        return list(ready)

    def lane(self, task) -> Hashable | None:
        """What a task that does not fit holds back: every later task in
        the same lane waits this pass; ``None`` holds nothing (backfill)."""
        return None

    def assign(self, ready: list, n_running: int, place: Callable) -> Iterator[tuple]:
        """Yield ``(task, where)`` to start now (``place(task)`` is ``None`` if it
        does not fit); the caller starts each before the next is placed."""
        held = set()
        for task in self.order(ready, n_running):
            lane = self.lane(task)
            if lane is not None and lane in held:
                continue
            where = place(task)
            if where is not None:
                yield task, where
            elif lane is not None:
                held.add(lane)

    def select(
        self,
        ready: list[CampaignTask],
        idle_workers: list[int],
        n_running: int,
    ) -> list[tuple[int, str]]:
        """Worker-pool placement: ``(worker_id, task_id)`` pairs to dispatch now."""
        idle = iter(idle_workers)
        return [
            (w, t.task_id)
            for t, w in self.assign(ready, n_running, lambda _t: next(idle, None))
        ]


class NaiveWavePolicy(SchedulingPolicy):
    """Bundle-and-wait: dispatch only on an all-idle barrier."""

    name = "naive"

    def order(self, ready, n_running):
        return [] if n_running > 0 else list(ready)  # wait for the slowest member

    def lane(self, task):
        return "wave"


class MetaqBackfillPolicy(SchedulingPolicy):
    """FIFO backfill: free resources take the first ready task that fits."""

    name = "metaq"


class MpiJmPolicy(SchedulingPolicy):
    """Priority + longest-first, CPU-cheap tasks as backfill filler."""

    name = "mpijm"

    def order(self, ready, n_running):
        # GPU-shaped (expensive) work first, longest first, so the tail
        # of the campaign is made of small backfillable contractions;
        # the stable sort breaks ties by the deterministic ready order.
        return sorted(ready, key=lambda t: (t.cpu_only, -t.priority, -t.est_seconds))

    def lane(self, task):
        return task.cpu_only


POLICIES = {
    p.name: p for p in (NaiveWavePolicy(), MetaqBackfillPolicy(), MpiJmPolicy())
}


def make_policy(name: str) -> SchedulingPolicy:
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
    return POLICIES[name]
