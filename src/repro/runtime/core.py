"""The scheduling state machine, once: pure transitions, no effects.

Section V's job-manager layer (METAQ / mpi_jm: retry, backfill, survive
node loss) reduced to two small machines that the one driver loop
(:class:`repro.runtime.loop.DriverLoop`) drives, with one campaign in
:class:`repro.runtime.campaign.CampaignRuntime` and with many in
:class:`repro.service.driver.CampaignService`:

* :class:`TaskMachine` — one campaign's tasks: ``pending -> running ->
  done``, a failed attempt retried after exponential backoff, a poison
  task quarantined with its transitive consumers skipped, and the same
  facts restored from a replayed ledger;
* :class:`WorkerSlots` — the pool's slots: which task each worker
  holds, its deadline, which reports are stale, which workers died or
  overran and must be replaced, within a respawn budget.

Nothing here touches a file, a thread, a process or a clock.  Time
arrives as a ``now`` argument; every log record leaves through the
injected ``log(ev, **fields)`` callable (both drivers pass the campaign's
write-ahead ``TaskLedger.record``, its one log — a worker's facts reach
it on the result report); pool actions — the
message to dispatch, the workers to kill and spawn — are return values.
That is what lets a test drive every interleaving of results, deaths
and timeouts on a synthetic clock.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.runtime.tasks import CampaignTask, TaskGraph, TaskStatus

__all__ = [
    "CampaignError",
    "LedgerMismatchError",
    "WorkerStormError",
    "Lost",
    "TaskMachine",
    "WorkerSlots",
    "SETTLED",
    "DIED",
    "TIMEOUT",
]

Log = Callable[..., None]

SETTLED = (TaskStatus.DONE, TaskStatus.QUARANTINED, TaskStatus.SKIPPED)
DIED = "worker died"
TIMEOUT = "task timeout"


class CampaignError(RuntimeError):
    """Base of every typed failure the runtime raises.

    Embedders (the campaign service, notebooks, other drivers) catch
    this instead of pattern-matching generic exceptions; the runtime
    itself never calls ``sys.exit`` — turning failures into exit codes
    is the CLI's job alone.
    """


class LedgerMismatchError(CampaignError, ValueError):
    """Refusing to resume a ledger written by a different task graph.

    Also a :class:`ValueError` for compatibility with callers that
    predate the typed hierarchy.
    """


class WorkerStormError(CampaignError):
    """Workers died faster than the respawn budget allows."""


class TaskMachine:
    """Status, attempts, artifacts and retry clocks of one campaign.

    ``cfg`` supplies the backoff and what ``campaign_start`` reports;
    ``campaign`` is the id results are routed by (``None`` for a runtime
    that owns its pool); ``log`` receives every transition *before* the
    state changes, so a ledger behind it is write-ahead (``None`` when the
    machine is only used to :meth:`restore`, which logs nothing).
    """

    def __init__(self, graph: TaskGraph, log: Log | None, cfg: Any, campaign: str | None = None):
        self.graph = graph
        self.record = log
        self.cfg = cfg
        self.campaign = campaign
        self.status = {tid: TaskStatus.PENDING for tid in graph.topo_order()}
        self.attempts = {tid: 0 for tid in self.status}
        self.artifacts: dict[str, dict[str, str]] = {}
        self.ready_at = {tid: 0.0 for tid in self.status}
        self.reused = 0  # completions restored from a prior run
        self.retries = 0

    def _blocked_by(self, tid: str) -> list[str]:
        return [
            v
            for v in sorted(self.graph.transitive_consumers(tid))
            if self.status[v] not in SETTLED
        ]

    def restore(self, prior: Any, verify: Callable[[dict[str, str]], bool]) -> None:
        """Adopt the facts of a replayed ledger (``campaign`` / ``status``
        / ``artifacts``).  Trust nothing: a "done" task whose artifacts
        are gone or fail ``verify`` is simply re-run.  A quarantine is
        restored together with everything it blocks, or the resumed
        campaign would wait forever on tasks that can never start."""
        recorded = prior.campaign.get("fingerprint")
        if recorded and recorded != self.graph.fingerprint():
            raise LedgerMismatchError(
                f"ledger fingerprint {recorded} does not match this campaign "
                f"({self.graph.fingerprint()}); refusing to resume a different graph"
            )
        for tid, st in prior.status.items():
            if tid not in self.status:
                continue
            if st == TaskStatus.DONE:
                arts = prior.artifacts.get(tid, {})
                if arts and verify(arts):
                    self.status[tid] = TaskStatus.DONE
                    self.artifacts[tid] = arts
                    self.reused += 1
            elif st == TaskStatus.QUARANTINED:
                self.status[tid] = TaskStatus.QUARANTINED
                for victim in self._blocked_by(tid):
                    self.status[victim] = TaskStatus.SKIPPED

    def open(self, **fields: Any) -> None:
        """Log the campaign start and queue every task still to run."""
        cfg = self.cfg
        fields.update(policy=cfg.policy, workers=cfg.workers, pool=cfg.pool)
        self.record("campaign_start", fingerprint=self.graph.fingerprint(), **fields)
        for tid, st in self.status.items():
            if st == TaskStatus.PENDING:
                self.record("submit", task=tid)

    def dispatchable(self, now: float) -> list[CampaignTask]:
        """Pending tasks with every dependency done and backoff served."""
        done = {t for t, s in self.status.items() if s == TaskStatus.DONE}
        return [
            self.graph[tid]
            for tid in self.graph.ready(done)
            if self.status[tid] == TaskStatus.PENDING and self.ready_at[tid] <= now
        ]

    def start(self, tid: str, worker: int, fault: dict | None = None) -> dict:
        """Begin an attempt on ``worker``; returns the dispatch message."""
        self.attempts[tid] += 1
        self.record("start", task=tid, worker=worker, attempt=self.attempts[tid])
        self.status[tid] = TaskStatus.RUNNING
        task = self.graph[tid]
        return {
            "task": tid,
            "kind": task.kind,
            "params": task.params,
            "attempt": self.attempts[tid],
            "fault": fault,
        }

    def done(self, tid: str, artifacts: dict[str, str], cached: bool = False) -> None:
        """Complete a task: from a worker's report or, ``cached``, from
        artifacts already on disk."""
        self.artifacts[tid] = artifacts
        self.record("done", task=tid, artifacts=artifacts, **({"cached": True} if cached else {}))
        self.status[tid] = TaskStatus.DONE

    def failed(self, tid: str, reason: str, now: float) -> None:
        """An attempt ended badly: retry after backoff, or — attempts
        exhausted — quarantine the task and skip what depends on it, so
        one bad task never wastes the allocation."""
        n = self.attempts[tid]
        self.record("fail", task=tid, attempt=n, reason=reason)
        if n >= self.graph[tid].max_attempts:
            self.record("quarantine", task=tid, reason=f"{n} attempts, last: {reason}")
            self.status[tid] = TaskStatus.QUARANTINED
            for victim in self._blocked_by(tid):
                self.record("skip", task=victim, blocked_by=tid)
                self.status[victim] = TaskStatus.SKIPPED
            return
        backoff = self.cfg.backoff_base_s * self.cfg.backoff_factor ** (n - 1)
        self.ready_at[tid] = now + backoff
        self.status[tid] = TaskStatus.PENDING
        self.retries += 1
        self.record("retry", task=tid, attempt=n, backoff_s=backoff)

    def count(self, status: str) -> int:
        return sum(1 for s in self.status.values() if s == status)

    def settled(self) -> bool:
        return all(s in SETTLED for s in self.status.values())

    def finish(self) -> None:
        done, bad = self.count(TaskStatus.DONE), self.count(TaskStatus.QUARANTINED)
        self.record("campaign_finish", done=done, quarantined=bad)


class Lost(NamedTuple):
    """A worker :meth:`WorkerSlots.sweep` wrote off and the loop must
    replace (killing it first after a ``TIMEOUT``)."""

    worker: int
    reason: str  # DIED | TIMEOUT
    task: str | None  # what it held; None = died idle


class WorkerSlots:
    """Slot -> task assignment for one pool, shared by its campaigns.

    ``cfg`` supplies ``workers``, ``task_timeout_s`` and ``max_respawns``.
    A deadline is enforced only where the pool can kill a worker
    (``pool_kind == "process"``): writing off a thread that keeps
    running would let two attempts of one task race.  ``log`` takes the
    events no campaign owns (a worker dying idle).
    """

    def __init__(self, cfg: Any, pool_kind: str, log: Log):
        # worker -> (campaign, task, deadline) of what it holds, if anything
        self.held: dict[int, tuple[TaskMachine, str, float] | None] = dict.fromkeys(
            range(cfg.workers)
        )
        self.cfg = cfg
        self.killable = pool_kind == "process"
        self.spawns = cfg.workers
        self.record = log
        self.deaths = 0
        self.timeouts = 0

    def idle(self, alive: Callable[[int], bool]) -> list[int]:
        return [w for w, h in self.held.items() if h is None and alive(w)]

    def running(self, machine: TaskMachine | None = None) -> list[tuple[TaskMachine, str]]:
        """Tasks in flight — of one campaign, or (``None``) of all."""
        return [(m, t) for m, t, _ in filter(None, self.held.values()) if machine in (None, m)]

    def assign(
        self, worker: int, machine: TaskMachine, tid: str, now: float, fault: dict | None = None
    ) -> dict:
        """Give an idle worker a task; returns the message to dispatch."""
        msg = machine.start(tid, worker, fault)
        self.held[worker] = (machine, tid, now + self.cfg.task_timeout_s)
        return msg

    def result(self, res: dict, now: float) -> tuple[TaskMachine, str] | None:
        """Apply a worker's report to its campaign; ``None`` for a stale
        report from a worker already written off (its facts are dropped
        with it).  The attempt's ``facts`` — what only the worker saw —
        are logged before the ``done`` / ``fail`` they precede."""
        w = int(res["worker"])
        held = self.held.get(w)
        if not held or (held[0].campaign, held[1]) != (res.get("campaign"), res["task"]):
            return None
        self.held[w] = None
        machine, tid, _ = held
        for fact in res.get("facts", ()):
            machine.record(**fact)
        if res["ok"]:
            machine.done(tid, dict(res["artifacts"]))
        else:
            machine.failed(tid, res.get("error", "unknown error"), now)
        return machine, tid

    def sweep(self, alive: Callable[[int], bool], now: float) -> list[Lost]:
        """Write off dead and overdue workers, failing what they held.

        Every slot returned must be respawned — also one that died idle
        (a bad worker environment), or the campaign starves with an
        all-dead "idle" pool.  A storm of deaths raises instead of
        thrashing.
        """
        lost: list[Lost] = []
        for w, held in self.held.items():
            machine, tid, deadline = held or (None, None, None)
            if not alive(w):
                (machine or self).record("worker_death", worker=w, task=tid)
                self.deaths += 1
                reason = DIED
            elif machine and self.killable and deadline <= now:
                machine.record("task_timeout", task=tid, worker=w)
                self.timeouts += 1
                reason = TIMEOUT
            else:
                continue
            self.held[w] = None
            if machine:
                machine.failed(tid, reason, now)
            if self.spawns >= self.cfg.workers + self.cfg.max_respawns:
                raise WorkerStormError(
                    f"workers keep dying ({self.spawns} spawns for "
                    f"{len(self.held)} slots); giving up instead of thrashing"
                )
            self.spawns += 1
            lost.append(Lost(w, reason, tid))
        return lost
