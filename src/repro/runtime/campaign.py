"""The campaign driver: fault-tolerant execution of one task DAG.

This is the executed counterpart of Section V's job-manager layer.  The
scheduling state machine — which task an idle worker takes, retry with
backoff after a worker death or a task timeout, quarantine of a poison
task and everything downstream of it — is :mod:`repro.runtime.core`;
the loop that feeds it the pool's results and the clock is
:class:`repro.runtime.loop.DriverLoop`, and :class:`CampaignRuntime` is
that loop's one-campaign configuration: run synchronously, in the
campaign's own workdir, with no service log and no CAS, and one
write-ahead ledger every transition and fault is recorded in *before*
it is acted on (the campaign's only log — the workers' facts arrive on
their result reports and are recorded there too).

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
from types import SimpleNamespace

from repro.io.container import ArtifactStore, verify_artifacts
from repro.runtime.core import (
    DIED,
    SETTLED,
    CampaignError,
    LedgerMismatchError,
    TaskMachine,
    WorkerStormError,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.ledger import TaskLedger, replay_ledger
from repro.runtime.loop import CampaignState, DriverLoop, LoopConfig
from repro.runtime.tasks import TaskGraph, TaskStatus
from repro.runtime.telemetry import summarize

__all__ = [
    "CampaignConfig",
    "CampaignError",
    "CampaignResult",
    "CampaignRuntime",
    "LedgerMismatchError",
    "WorkerStormError",
]


@dataclass(frozen=True)
class CampaignConfig(LoopConfig):
    """Knobs of one campaign execution."""

    abort_on_worker_death: bool = False  # model losing the whole allocation


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


class CampaignRuntime(DriverLoop):
    """Drive a :class:`TaskGraph` over a worker pool to completion.

    Parameters
    ----------
    workdir:
        Campaign home: ``ledger.jsonl`` (its one event file),
        ``artifacts/`` and ``checkpoints/`` all live here; it is the
        unit of resume.
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
        super().__init__(config or CampaignConfig())
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
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
        self._faults = faults or FaultPlan()
        self._abort_after, self._completions = abort_after, 0
        self._cancel.clear()  # one runtime may run / cancel / resume repeatedly
        path = self.workdir / "ledger.jsonl"
        with TaskLedger(path) as ledger:
            machine = TaskMachine(graph, ledger.record, self.config)
            if resume:
                machine.restore(
                    replay_ledger(path), lambda arts: verify_artifacts(self.store, arts)
                )
            self._open(self.workdir, ledger.record)
            self._campaign = SimpleNamespace(
                machine=machine, workdir=self.workdir, state=CampaignState.ACTIVE
            )
            machine.open(spec=self.spec, resume=resume, faults=self._faults.to_json())
            t_start, stop = time.monotonic(), None
            try:
                self._pool.start()
                self.drive()
            except _Interrupted as e:
                # A simulated (or policy-mandated) allocation loss: leave the
                # task records exactly as they stand — that is what resume
                # replays; the closing record only bounds this run.
                ledger.record("campaign_interrupted", reason=str(e))
                stop = e
            finally:
                makespan = time.monotonic() - t_start
                self._pool.shutdown()
        status = machine.status
        return CampaignResult(
            status=status,
            attempts=machine.attempts,
            artifacts=machine.artifacts,
            makespan=makespan,
            interrupted=stop is not None,
            cancelled=isinstance(stop, _Cancelled),
            quarantined=[t for t, s in status.items() if s == TaskStatus.QUARANTINED],
            skipped=[t for t, s in status.items() if s == TaskStatus.SKIPPED],
            worker_deaths=self._slots.deaths,
            timeouts=self._slots.timeouts,
            retries=machine.retries,
            tasks_reused=machine.reused,
        )

    def summarize(self):
        """Utilization roll-up of this workdir's latest run."""
        return summarize(self.workdir)

    # -- the loop's hooks: one campaign, interrupted where the service drains
    def _more(self) -> bool:
        if self._campaign.state != CampaignState.ACTIVE:
            return False
        if self._cancel.is_set():
            raise _Cancelled("cancelled by caller")
        return True

    def _campaigns(self) -> list:
        return [self._campaign] if self._campaign.state == CampaignState.ACTIVE else []

    def _finalize(self, campaign, state: str) -> None:
        campaign.state = state

    def _fault(self, tid: str) -> dict | None:
        fault = self._faults.get(tid)
        return fault and fault.to_json()

    def _landed(self, machine, tid: str, res: dict) -> None:
        self._completions += bool(res["ok"])
        if self._abort_after is not None and self._completions >= self._abort_after:
            raise _Interrupted(f"abort_after={self._abort_after} reached")

    def _lost(self, lost: list) -> None:
        died = [w for w, reason, tid in lost if reason == DIED and tid is not None]
        if died and self.config.abort_on_worker_death:
            raise _Interrupted(f"worker {died[0]} died; abandoning allocation")


class _Interrupted(RuntimeError):
    """Internal control flow for simulated allocation loss."""


class _Cancelled(_Interrupted):
    """A cooperative :meth:`CampaignRuntime.cancel`."""
