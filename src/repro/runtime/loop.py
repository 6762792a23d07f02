"""The driver loop, once: N campaigns over one worker pool.

Section V's job managers are one scheduler backfilling many tasks into
one allocation.  :class:`DriverLoop` is that scheduler executed: each
pass runs admission -> cache sweep -> settle -> dispatch -> poll/drain
-> sweep/respawn over the :class:`~repro.runtime.core.TaskMachine` of
every admitted campaign and the pool's one
:class:`~repro.runtime.core.WorkerSlots`.  Both drivers are
configurations of it (the SimulationRunner ``ClusterClass`` shape: a
generic class whose hooks a driver overrides):
:class:`repro.runtime.campaign.CampaignRuntime` is one campaign, run
synchronously, that its fault plan, ``abort_after``,
``abort_on_worker_death`` and ``cancel()`` interrupt;
:class:`repro.service.driver.CampaignService` is many, in a thread, with
admission, the CAS, in-flight dedup and the tenant pick as its hooks.
An exception from a hook or the state machine ends the loop.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.runtime.core import TIMEOUT, WorkerSlots
from repro.runtime.policies import make_policy
from repro.runtime.tasks import TaskStatus
from repro.runtime.worker import make_pool

__all__ = ["CampaignState", "DriverLoop", "LoopConfig"]


class CampaignState:
    """Lifecycle of a campaign in the loop."""

    QUEUED = "queued"
    ACTIVE = "active"
    CANCELLING = "cancelling"  # drain in-flight tasks, dispatch nothing new
    DONE = "done"  # every task completed
    FAILED = "failed"  # settled, but with quarantined/skipped tasks
    CANCELLED = "cancelled"  # resubmit the same spec to resume

    TERMINAL = (DONE, FAILED, CANCELLED)


# field -> (lower bound, bound excluded), for whichever config has the field
_BOUNDS = {
    "workers": (1, False),
    "window": (1, False),
    "max_respawns": (0, False),
    "task_timeout_s": (0, True),
    "backoff_base_s": (0, False),
    "backoff_factor": (1, False),
    "poll_interval_s": (0, False),
    "aging_rate": (0, False),
}


@dataclass(frozen=True)
class LoopConfig:
    """Knobs of the pool and the state machine, validated once for both drivers."""

    workers: int = 4
    policy: str = "metaq"
    pool: str = "process"
    task_timeout_s: float = 300.0  # enforced on the process pool only
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    poll_interval_s: float = 0.02
    max_respawns: int = 64  # worker-death storm -> error, not a silent hang

    def __post_init__(self) -> None:
        for name, (lo, strict) in _BOUNDS.items():
            v = getattr(self, name, lo)
            if not (v > lo if strict else v >= lo):  # NaN fails both
                raise ValueError(f"{name} must be {'>' if strict else '>='} {lo}, not {v!r}")


class DriverLoop:
    """Admitted campaigns over one pool.

    An admitted campaign is anything with ``machine``, ``workdir`` and
    ``state`` (``ACTIVE`` or ``CANCELLING``).  A driver must say
    :meth:`_more` (run another pass?), :meth:`_campaigns` (the admitted)
    and :meth:`_finalize` (one reached a terminal state); the other
    hooks default to the one-campaign case.  Every pass step but the
    poll runs under ``_lock``, which the service's public methods share.
    """

    def __init__(self, config: LoopConfig):
        self.config = config
        self._lock = threading.RLock()
        self._pool = self._slots = self._policy = None

    def _open(self, workdir: str | Path, log) -> None:
        """The unstarted pool and its slots; ``log`` takes the events no
        campaign owns (a worker dying idle, a respawn)."""
        cfg = self.config
        self._policy = make_policy(cfg.policy)
        self._pool = make_pool(cfg.pool, cfg.workers, workdir)
        self._slots = WorkerSlots(cfg, self._pool.kind, log)

    def drive(self) -> None:
        """Run passes until :meth:`_more` says stop or a hook raises."""
        pool, slots = self._pool, self._slots
        while self._more():
            with self._lock:
                self._admit()
                self._cache_sweep()
                self._settle()
                self._dispatch()
            timeout = self.config.poll_interval_s
            while (res := pool.poll_result(timeout)) is not None:
                timeout = 0.0  # drain whatever else already landed
                with self._lock:
                    if (held := slots.result(res, time.monotonic())) is not None:
                        self._landed(*held, res)
            with self._lock:
                lost = slots.sweep(pool.alive, time.monotonic())
                self._lost(lost)
                for w, reason, _ in lost:
                    if reason == TIMEOUT:
                        pool.kill(w)
                    pool.spawn(w)
                    slots.record("worker_spawn", worker=w, respawn=True)
                self._settle()

    def _dispatch(self) -> None:
        """Each idle worker to the campaign :meth:`_pick` names and the
        task its policy selects.  The policy sees the running count at
        the pass's start, so a naive wave fills every idle worker."""
        now = time.monotonic()
        wave = {id(c): len(self._slots.running(c.machine)) for c in self._campaigns()}
        for w in self._slots.idle(self._pool.alive):
            if (chosen := self._pick(self._ready(now))) is None:
                return
            c, tasks = chosen
            for _, tid in self._policy.select(tasks, [w], wave[id(c)]):  # one worker: <= 1
                msg = self._slots.assign(w, c.machine, tid, now, self._fault(tid))
                msg.update(workdir=str(c.workdir), campaign=c.machine.campaign)
                self._pool.dispatch(w, msg)

    def _settle(self) -> None:
        """Finish every campaign with nothing left to wait for: all tasks
        settled, or cancelled with its in-flight tasks drained."""
        for c in self._campaigns():
            if c.state == CampaignState.CANCELLING:
                if not self._slots.running(c.machine):
                    self._finalize(c, CampaignState.CANCELLED)
            elif c.machine.settled():
                c.machine.finish()
                done = c.machine.count(TaskStatus.DONE) == len(c.machine.status)
                self._finalize(c, CampaignState.DONE if done else CampaignState.FAILED)

    def _ready(self, now: float) -> list[tuple]:
        """``(campaign, dispatchable tasks)`` of each active campaign with any."""
        return [
            (c, tasks)
            for c in self._campaigns()
            if c.state == CampaignState.ACTIVE and (tasks := c.machine.dispatchable(now))
        ]

    # -- hooks -----------------------------------------------------------------
    def _more(self) -> bool:
        raise NotImplementedError

    def _campaigns(self) -> list:
        raise NotImplementedError

    def _finalize(self, campaign, state: str) -> None:
        raise NotImplementedError

    def _admit(self) -> None:
        """Admit queued campaigns."""

    def _cache_sweep(self) -> None:
        """Complete ready tasks without a worker."""

    def _pick(self, ready: list[tuple]) -> tuple | None:
        """The ``(campaign, tasks)`` of ``ready`` the next idle worker serves."""
        return ready[0] if ready else None

    def _fault(self, tid: str) -> dict | None:
        """A scripted fault to ship with ``tid``."""

    def _landed(self, machine, tid: str, res: dict) -> None:
        """A worker's report was applied to ``machine``."""

    def _lost(self, lost: list) -> None:
        """Workers written off, before they are replaced."""
