"""The campaign driver: fault-tolerant execution of a task DAG.

This is the executed counterpart of Section V's job-manager layer.  The
scheduling state machine itself — which task an idle worker takes,
retry with backoff after a worker death or a task timeout, quarantine
of a poison task and everything downstream of it — is
:mod:`repro.runtime.core`; this module is its single-campaign shell:
one worker pool, one write-ahead ledger every transition is recorded in
*before* it is acted on, one telemetry stream, and the loop that feeds
the machine the pool's results and the clock.

A campaign killed outright (allocation timeout, driver crash) resumes
with ``resume=True``: the ledger replay skips every completed task whose
artifacts still verify, requeues whatever was in flight (its solver
checkpoints make the requeue cheap and bit-exact), and refuses to resume
against a graph with a different fingerprint.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.core import (
    DIED,
    SETTLED,
    TIMEOUT,
    CampaignError,
    LedgerMismatchError,
    Lost,
    TaskMachine,
    WorkerSlots,
    WorkerStormError,
)
from repro.runtime.exec_tasks import ArtifactStore, verify_artifacts
from repro.runtime.faults import FaultPlan
from repro.runtime.ledger import TaskLedger, replay_ledger
from repro.runtime.policies import make_policy
from repro.runtime.tasks import TaskGraph, TaskStatus
from repro.runtime.telemetry import TelemetryWriter, summarize
from repro.runtime.worker import make_pool

__all__ = [
    "CampaignConfig",
    "CampaignError",
    "CampaignResult",
    "CampaignRuntime",
    "LedgerMismatchError",
    "WorkerStormError",
]

# Ledger event -> the telemetry event (and fields) that mirrors it.
_MIRROR = {
    "campaign_start": ("campaign_start", ("policy", "workers")),
    "submit": ("task_queued", ("task",)),
    "start": ("task_start", ("task", "worker", "attempt")),
    "done": None,  # telemetry says how: task_finish or task_cached
    "fail": None,
    "retry": ("task_retry", ("task", "attempt", "backoff_s")),
    "quarantine": ("task_quarantined", ("task", "reason")),
    "skip": ("task_skipped", ("task", "blocked_by")),
    "campaign_finish": ("campaign_finish", ()),
}


def journal(ledger: TaskLedger, tele: TelemetryWriter):
    """The ``log(ev, **fields)`` a campaign's state machine writes to.

    Ledger events are made durable first and then mirrored to
    telemetry; everything else is telemetry alone.
    """

    def log(ev: str, **fields) -> None:
        if ev not in _MIRROR:
            tele.emit(ev, **fields)
            return
        ledger.record(ev, **fields)
        if _MIRROR[ev]:
            name, keys = _MIRROR[ev]
            tele.emit(name, **{k: fields[k] for k in keys})

    return log


def replace_workers(pool, lost: list[Lost], log) -> None:
    """Carry out a :meth:`WorkerSlots.sweep`: kill the overdue, respawn."""
    for w, reason, _ in lost:
        if reason == TIMEOUT:
            pool.kill(w)
        pool.spawn(w)
        log("worker_spawn", worker=w, respawn=True)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign execution."""

    workers: int = 4
    policy: str = "metaq"
    pool: str = "process"
    task_timeout_s: float = 300.0
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    poll_interval_s: float = 0.02
    abort_on_worker_death: bool = False  # model losing the whole allocation
    max_respawns: int = 64  # worker-death storm -> error, not a silent hang

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")


@dataclass
class CampaignResult:
    """Outcome of :meth:`CampaignRuntime.run`."""

    status: dict[str, str]
    attempts: dict[str, int]
    artifacts: dict[str, dict[str, str]]
    makespan: float
    interrupted: bool = False
    cancelled: bool = False  # interrupted by a cooperative cancel()
    quarantined: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    worker_deaths: int = 0
    timeouts: int = 0
    retries: int = 0
    tasks_reused: int = 0  # resumed-from-ledger completions

    @property
    def completed(self) -> bool:
        return not self.interrupted and all(s in SETTLED for s in self.status.values())

    @property
    def all_done(self) -> bool:
        return not self.interrupted and all(
            s == TaskStatus.DONE for s in self.status.values()
        )


class CampaignRuntime:
    """Drive a :class:`TaskGraph` over a worker pool to completion.

    Parameters
    ----------
    workdir:
        Campaign home: ``ledger.jsonl``, ``telemetry*.jsonl``,
        ``artifacts/``, ``checkpoints/`` all live here; it is the unit
        of resume.
    config:
        Scheduling and fault-handling knobs.
    spec:
        Optional JSON description of how the graph was built (the
        builder kwargs); stored in the ledger so ``repro-campaign
        resume`` can rebuild the identical graph without re-specifying.
    """

    def __init__(
        self,
        workdir: str | Path,
        config: CampaignConfig | None = None,
        spec: dict | None = None,
    ):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = config or CampaignConfig()
        self.spec = spec or {}
        self.store = ArtifactStore(self.workdir / "artifacts")
        self._cancel = threading.Event()

    def cancel(self) -> None:
        """Request a cooperative stop of a :meth:`run` in progress.

        Safe from any thread.  The driver notices at its next poll,
        stops dispatching, and returns with ``result.cancelled`` set —
        leaving the write-ahead ledger exactly as it stands, so a later
        ``run(resume=True)`` replays completed tasks and restarts
        whatever was in flight from its last solver checkpoint,
        bit-exactly (the same machinery that survives a real crash).
        """
        self._cancel.set()

    # -- the scheduling loop -------------------------------------------------
    def run(
        self,
        graph: TaskGraph,
        faults: FaultPlan | None = None,
        resume: bool = False,
        abort_after: int | None = None,
    ) -> CampaignResult:
        """Execute the graph; returns when every task is settled.

        ``abort_after`` stops the driver cold after that many task
        completions — the test hook that simulates a driver crash with a
        half-written ledger (nothing is cleaned up, exactly like the
        real thing).
        """
        cfg = self.config
        faults = faults or FaultPlan()
        policy = make_policy(cfg.policy)
        self._cancel.clear()  # one runtime may run / cancel / resume repeatedly
        path = self.workdir / "ledger.jsonl"
        with TaskLedger(path) as ledger, TelemetryWriter(
            self.workdir / "telemetry.jsonl", source="driver"
        ) as tele:
            log = journal(ledger, tele)
            machine = TaskMachine(graph, log, cfg)
            if resume:
                machine.restore(
                    replay_ledger(path), lambda arts: verify_artifacts(self.store, arts)
                )
            pool = make_pool(cfg.pool, cfg.workers, self.workdir)
            slots = WorkerSlots(cfg, pool.kind, log)
            result = CampaignResult(
                status=machine.status,
                attempts=machine.attempts,
                artifacts=machine.artifacts,
                makespan=0.0,
                tasks_reused=machine.reused,
            )
            machine.open(spec=self.spec, resume=resume, faults=faults.to_json())
            t_start = time.monotonic()
            completions = 0

            try:
                pool.start()
                for w in range(cfg.workers):
                    log("worker_spawn", worker=w, respawn=False)

                while not machine.settled():
                    if self._cancel.is_set():
                        result.cancelled = True
                        raise _Interrupted("cancelled by caller")
                    now = time.monotonic()
                    for w, tid in policy.select(
                        machine.dispatchable(now), slots.idle(pool.alive), len(slots.running())
                    ):
                        fault = faults.get(tid)
                        msg = slots.assign(w, machine, tid, now, fault and fault.to_json())
                        pool.dispatch(w, msg)

                    res = pool.poll_result(cfg.poll_interval_s)
                    if res is not None and slots.result(res, time.monotonic()):
                        completions += bool(res["ok"])
                        if abort_after is not None and completions >= abort_after:
                            raise _Interrupted(f"abort_after={abort_after} reached")

                    lost = slots.sweep(pool.alive, time.monotonic())
                    died = [w for w, reason, tid in lost if reason == DIED and tid is not None]
                    if died and cfg.abort_on_worker_death:
                        raise _Interrupted(f"worker {died[0]} died; abandoning allocation")
                    replace_workers(pool, lost, log)

                machine.finish()
            except _Interrupted as e:
                # A simulated (or policy-mandated) allocation loss: leave the
                # ledger exactly as it stands — that is what resume replays.
                log("campaign_interrupted", reason=str(e))
                result.interrupted = True
            finally:
                result.makespan = time.monotonic() - t_start
                pool.shutdown()
        result.retries = machine.retries
        result.worker_deaths, result.timeouts = slots.deaths, slots.timeouts
        status = machine.status.items()
        result.quarantined = [t for t, s in status if s == TaskStatus.QUARANTINED]
        result.skipped = [t for t, s in status if s == TaskStatus.SKIPPED]
        return result

    def summarize(self):
        """Telemetry roll-up for this campaign's workdir."""
        return summarize(self.workdir)


class _Interrupted(RuntimeError):
    """Internal control flow for simulated allocation loss."""
