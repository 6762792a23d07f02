"""Write-ahead task ledger: the campaign's crash-safe source of truth.

Every state transition is appended to ``ledger.jsonl`` — one JSON object
per line, flushed and fsynced *before* the driver acts on it — so a
campaign killed at any instant (power loss, allocation timeout, an
``MPI_Abort`` taking the whole lump down) can be resumed by replaying
the file.  The production analogue is METAQ's task directory, whose
``todo/working/done`` moves are exactly a filesystem-backed WAL.  It is
the campaign's only log: the faults the driver sees (``worker_death``,
``task_timeout``, a respawn's ``worker_spawn``, ``campaign_interrupted``)
and the facts a worker reports with its result (``checkpoint_saved``,
``solve_done``, …) are records here too, which replay passes over and
:func:`repro.runtime.telemetry.summarize` counts.

Replay tolerates a truncated final line (the torn write of the crash
itself) and reduces the event stream to per-task facts: status, attempt
count, artifacts of completed tasks.  Anything that was RUNNING at the
crash simply has no terminal event and is requeued on resume — its
solver checkpoints (if any) make the requeue cheap.

Concurrent campaigns in one process (the campaign *service*) get two
further guarantees: :meth:`TaskLedger.record` is thread-safe, and each
campaign's ledger lives in its own namespaced directory behind an
ID-collision guard (:func:`open_campaign_ledger`) — two campaigns can
never interleave writes into one file, and a reused campaign id is
refused unless it refers to the same graph.  Records carry an optional
``campaign`` tag so :func:`replay_ledger` can also filter a file that
*does* contain interleaved campaigns (e.g. a hand-merged archive).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.readers import iter_records
from repro.runtime.tasks import TaskStatus

__all__ = [
    "TaskLedger",
    "LedgerState",
    "LedgerCollisionError",
    "replay_ledger",
    "open_campaign_ledger",
]


class LedgerCollisionError(ValueError):
    """A campaign id already maps to a *different* campaign's ledger."""


class TaskLedger:
    """Append-only JSON-lines writer with fsync-per-record durability.

    ``campaign`` tags every record with the owning campaign id, letting
    multi-campaign readers attribute interleaved records.  ``record`` is
    safe to call from multiple threads of one process (single-writer
    per file across processes remains the rule).
    """

    def __init__(self, path: str | Path, campaign: str | None = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.campaign = campaign
        self._lock = threading.Lock()
        self._f = self.path.open("a", encoding="utf-8")

    def record(self, ev: str, **fields: Any) -> None:
        """Durably append one event before the caller proceeds."""
        rec = {"ev": ev, "t": time.time(), **fields}
        if self.campaign is not None:
            rec.setdefault("campaign", self.campaign)
        line = json.dumps(rec, sort_keys=True) + "\n"
        with self._lock:
            self._f.write(line)
            self._f.flush()
            os.fsync(self._f.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._f.closed:
                self._f.close()

    def __enter__(self) -> "TaskLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_campaign_ledger(
    root: str | Path,
    campaign_id: str,
    fingerprint: str | None = None,
    meta: dict[str, Any] | None = None,
) -> TaskLedger:
    """Open the namespaced ledger of one campaign under a shared root.

    Creates ``<root>/<campaign_id>/ledger.jsonl`` plus a ``campaign.json``
    marker recording the graph fingerprint.  Reopening with the same id
    and fingerprint resumes; reopening with the same id but a different
    fingerprint raises :class:`LedgerCollisionError` — the service-level
    analogue of ``CampaignRuntime``'s refuse-to-resume-a-different-graph
    check, caught *before* any record is appended.
    """
    droot = Path(root) / campaign_id
    droot.mkdir(parents=True, exist_ok=True)
    marker = droot / "campaign.json"
    if marker.exists():
        try:
            rec = json.loads(marker.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            rec = {}
        recorded = rec.get("fingerprint")
        if (
            rec.get("campaign", campaign_id) != campaign_id
            or (fingerprint and recorded and recorded != fingerprint)
        ):
            raise LedgerCollisionError(
                f"campaign id {campaign_id!r} already maps to fingerprint "
                f"{recorded!r}, not {fingerprint!r}; refusing to interleave"
            )
    else:
        tmp = marker.with_name(f".{marker.name}.tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(
                {"campaign": campaign_id, "fingerprint": fingerprint, **(meta or {})},
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        os.replace(tmp, marker)
    return TaskLedger(droot / "ledger.jsonl", campaign=campaign_id)


@dataclass
class LedgerState:
    """The reduction of a ledger replay.

    ``campaign`` holds the most recent ``campaign_start`` record —
    policy, worker count, graph fingerprint and the builder spec needed
    to rebuild the identical :class:`repro.runtime.tasks.TaskGraph`.
    """

    campaign: dict[str, Any] = field(default_factory=dict)
    status: dict[str, str] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    artifacts: dict[str, dict[str, str]] = field(default_factory=dict)
    finished: bool = False
    events: int = 0

    def done_tasks(self) -> set[str]:
        return {t for t, s in self.status.items() if s == TaskStatus.DONE}

    def quarantined_tasks(self) -> set[str]:
        return {t for t, s in self.status.items() if s == TaskStatus.QUARANTINED}


def replay_ledger(path: str | Path, campaign: str | None = None) -> LedgerState:
    """Reduce a ledger file to per-task facts (crash-tolerant).

    With ``campaign`` set, records tagged with a *different* campaign id
    are skipped — the reader side of surviving interleaved records.
    Untagged records (pre-service ledgers) always count.
    """
    st = LedgerState()
    path = Path(path)
    if not path.exists():
        return st
    # A torn final line is the expected signature of a crash mid-append;
    # everything before it is intact and fsynced.
    for rec in iter_records(path):
        if campaign is not None and rec.get("campaign", campaign) != campaign:
            continue
        st.events += 1
        ev = rec.get("ev")
        tid = rec.get("task")
        if ev == "campaign_start":
            st.campaign = rec
            st.finished = False
        elif ev == "campaign_finish":
            st.finished = True
        elif ev == "submit":
            st.status.setdefault(tid, TaskStatus.PENDING)
        elif ev == "start":
            st.status[tid] = TaskStatus.RUNNING
            st.attempts[tid] = int(rec.get("attempt", 1))
        elif ev == "done":
            st.status[tid] = TaskStatus.DONE
            st.artifacts[tid] = dict(rec.get("artifacts", {}))
        elif ev == "fail":
            st.status[tid] = TaskStatus.FAILED
        elif ev == "retry":
            st.status[tid] = TaskStatus.PENDING
        elif ev == "quarantine":
            st.status[tid] = TaskStatus.QUARANTINED
        elif ev == "skip":
            st.status[tid] = TaskStatus.SKIPPED
    return st
