"""Campaign event streams and their analysis.

A campaign has one event log, the write-ahead ledger
(:mod:`repro.runtime.ledger`): every scheduling transition and fault the
driver sees — ``start`` / ``done`` / ``fail`` / ``retry`` /
``quarantine``, ``worker_death``, ``task_timeout``, a respawn's
``worker_spawn``, ``campaign_interrupted`` — is one fsynced line of
``ledger.jsonl``.  What only a worker can see (checkpoint saves and
restores, solve statistics, injected faults, gauge fixing) rides the
worker's result report as ``facts`` and is recorded there too, just
before the ``done`` / ``fail`` of its attempt.

From that stream :class:`TelemetrySummary` derives the numbers the
paper's Section V argues about: per-worker busy fractions, the campaign
idle fraction (the 20-25% naive bundling wastes), retry/checkpoint
counts, and the per-attempt spans the benchmark splits busy time by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.readers import iter_records

__all__ = ["TelemetrySummary", "load_events", "summarize"]


def load_events(workdir: str | Path) -> list[dict[str, Any]]:
    """The records of ``workdir``'s ledger, in write order."""
    path = Path(workdir) / "ledger.jsonl"
    return list(iter_records(path)) if path.exists() else []


@dataclass
class TelemetrySummary:
    """Aggregates over one campaign run."""

    makespan: float = 0.0
    n_workers: int = 0
    busy_seconds: dict[int, float] = field(default_factory=dict)
    utilization: dict[int, float] = field(default_factory=dict)
    idle_fraction: float = 1.0
    tasks_done: int = 0
    tasks_failed: int = 0
    retries: int = 0
    checkpoints: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    quarantined: int = 0
    spans: list[dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "makespan_s": self.makespan,
            "n_workers": self.n_workers,
            "busy_seconds": {str(k): v for k, v in self.busy_seconds.items()},
            "utilization": {str(k): v for k, v in self.utilization.items()},
            "idle_fraction": self.idle_fraction,
            "tasks_done": self.tasks_done,
            "tasks_failed": self.tasks_failed,
            "retries": self.retries,
            "checkpoints": self.checkpoints,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
        }


def _latest_run(events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The events of the last run in a workdir: from its
    ``campaign_start`` to its ``campaign_finish`` or
    ``campaign_interrupted`` (or the last event if there is neither).
    Earlier runs of a resumed campaign are not part of it."""
    starts = [i for i, r in enumerate(events) if r.get("ev") == "campaign_start"]
    run = events[starts[-1]:] if starts else events
    for i, rec in enumerate(run):
        if rec.get("ev") in ("campaign_finish", "campaign_interrupted"):
            return run[: i + 1]
    return run


def summarize(workdir: str | Path) -> TelemetrySummary:
    """Reduce a campaign's latest run to utilization numbers.

    Busy time is measured from the ledger's ``start`` records to the
    ``done`` or ``fail`` that ends the attempt — including failed
    attempts and the span between dispatch and a detected worker death
    or timeout (a dead worker's slot is unavailable, so it counts as
    occupied until the driver reclaims it, matching how an allocation
    bleeds node-hours in production).
    """
    events = _latest_run(load_events(workdir))
    s = TelemetrySummary()
    if not events:
        return s
    open_spans: dict[str, dict[str, Any]] = {}  # task -> its attempt in flight

    def close_span(tid: str | None, t: float, outcome: str) -> bool:
        span = open_spans.pop(tid, None)
        if span is None:
            return False
        w = span["worker"]
        s.busy_seconds[w] = s.busy_seconds.get(w, 0.0) + max(0.0, t - span["start"])
        s.spans.append({"task": tid, **span, "end": t, "outcome": outcome})
        return True

    for rec in events:
        ev, t = rec.get("ev"), float(rec.get("t", 0.0))
        if ev == "campaign_start":
            s.n_workers = int(rec.get("workers", 0))
        elif ev == "start":
            open_spans[rec["task"]] = {
                "worker": int(rec["worker"]),
                "start": t,
                "attempt": rec.get("attempt", 1),
            }
        elif ev == "done":
            s.tasks_done += close_span(rec["task"], t, "done")
        elif ev == "fail":
            s.tasks_failed += close_span(rec["task"], t, "failed")
        elif ev == "retry":
            s.retries += 1
        elif ev == "task_timeout":
            s.timeouts += 1
            close_span(rec["task"], t, "timeout")
        elif ev == "worker_death":
            s.worker_deaths += 1
            close_span(rec.get("task"), t, "worker_death")
        elif ev == "quarantine":
            s.quarantined += 1
        elif ev == "checkpoint_saved":
            s.checkpoints += 1

    t0, t1 = float(events[0].get("t", 0.0)), float(events[-1].get("t", 0.0))
    for tid in list(open_spans):
        close_span(tid, t1, "open")
    if t1 > t0:
        s.makespan = t1 - t0
        for w in range(s.n_workers):
            s.utilization[w] = min(1.0, s.busy_seconds.get(w, 0.0) / s.makespan)
        if s.n_workers:
            s.idle_fraction = 1.0 - sum(s.utilization.values()) / s.n_workers
    return s
