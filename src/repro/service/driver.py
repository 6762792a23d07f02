"""CampaignService: many concurrent campaigns over one shared pool.

:class:`repro.runtime.campaign.CampaignRuntime` owns a pool for the
lifetime of one campaign; a service that admits thousands of them cannot
afford a pool per campaign any more than the paper's allocation could
afford a batch job per solve.  So this driver inverts the ownership: one
worker pool, started once, and a single scheduling loop multiplexing
every *active* campaign's ready tasks over it —

* **admission** in bounded windows with priority aging and per-tenant
  quotas (:mod:`repro.service.scheduler`), each admitted campaign
  getting a namespaced write-ahead ledger
  (:func:`repro.runtime.ledger.open_campaign_ledger`);
* **fair share** between tenants for every idle worker, then the
  existing per-campaign task policy (naive/metaq/mpijm) within the
  chosen campaign;
* **caching** at two levels: identical specs dedupe to one campaign
  entry (a second ``submit`` attaches, in flight or finished), and every
  completed task publishes to the cross-campaign
  :class:`repro.service.cache.ArtifactCAS`, so overlapping specs share
  gauge configurations and propagators task-by-task — with in-flight
  dedup (a task whose content fingerprint is being computed by another
  campaign waits for that solve instead of duplicating it);
* **fault handling** by the same state machine as the single-campaign
  driver (:mod:`repro.runtime.core`): retry with backoff, quarantine +
  transitive skip, worker respawn with a storm budget;
* **cancellation** that stops dispatching, lets in-flight tasks land in
  the ledger, and leaves the campaign resumable bit-for-bit by simply
  resubmitting the same spec.

The loop runs in a daemon thread; the public methods are thread-safe
and are what the asyncio HTTP layer (:mod:`repro.service.server`) calls
via executors.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.runtime.campaign import journal, replace_workers
from repro.runtime.core import LedgerMismatchError, TaskMachine, WorkerSlots, WorkerStormError
from repro.runtime.exec_tasks import ArtifactStore, verify_artifacts
from repro.runtime.ledger import TaskLedger, open_campaign_ledger, replay_ledger
from repro.runtime.policies import make_policy
from repro.runtime.tasks import TaskGraph, TaskStatus
from repro.runtime.telemetry import TelemetryWriter
from repro.runtime.worker import make_pool
from repro.service.cache import ArtifactCAS
from repro.service.fingerprint import normalize_spec, task_fingerprints
from repro.service.scheduler import (
    QueuedCampaign,
    TenantConfig,
    pick_tenant,
    select_admissions,
)

__all__ = ["CampaignEntry", "CampaignService", "CampaignState", "ServiceConfig"]


class CampaignState:
    """Lifecycle of a submitted campaign."""

    QUEUED = "queued"
    ACTIVE = "active"
    CANCELLING = "cancelling"  # drain in-flight tasks, dispatch nothing new
    DONE = "done"  # every task completed
    FAILED = "failed"  # settled, but with quarantined/skipped tasks
    CANCELLED = "cancelled"  # resubmit the same spec to resume

    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the shared pool and the tenant scheduler."""

    workers: int = 4
    pool: str = "thread"
    policy: str = "mpijm"
    window: int = 8  # max concurrently active campaigns
    aging_rate: float = 0.05  # priority units earned per queued second
    poll_interval_s: float = 0.02
    task_timeout_s: float = 300.0  # enforced on the process pool only
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    max_respawns: int = 64
    tenants: tuple[TenantConfig, ...] = ()

    def tenant_map(self) -> dict[str, TenantConfig]:
        return {t.name: t for t in self.tenants}


@dataclass
class CampaignEntry:
    """One deduplicated campaign: spec, graph, ledger, progress."""

    cid: str
    fingerprint: str
    spec: dict
    graph: TaskGraph
    task_fps: dict[str, str]
    tenant: str
    priority: float
    workdir: Path
    submitted: float
    state: str = CampaignState.QUEUED
    started: float | None = None
    finished: float | None = None
    # status / attempts / artifacts are the dicts of ``machine``, the
    # scheduling state of the current (or last) admission.
    status: dict[str, str] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    artifacts: dict[str, dict[str, str]] = field(default_factory=dict)
    machine: TaskMachine | None = None
    store: ArtifactStore | None = None
    ledger: TaskLedger | None = None
    tele: TelemetryWriter | None = None
    cache_hits: int = 0  # tasks satisfied from the CAS
    tasks_reused: int = 0  # tasks replayed from this campaign's own ledger
    attached: int = 1  # total submissions deduplicated into this entry
    error: str | None = None
    done_event: threading.Event = field(default_factory=threading.Event)

    def counts(self) -> dict[str, int]:
        return dict(Counter(self.status.values()))


class CampaignService:
    """The long-running multi-tenant campaign driver."""

    def __init__(self, workdir: str | Path, config: ServiceConfig | None = None):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = config or ServiceConfig()
        self.cas = ArtifactCAS(self.workdir / "cas")
        self._tenants = self.config.tenant_map()
        self._entries: dict[str, CampaignEntry] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._pool = None
        self._policy = make_policy(self.config.policy)
        self._slots: WorkerSlots | None = None
        self._tele: TelemetryWriter | None = None
        self._tenant_busy: dict[str, float] = {}
        self._tenant_done: dict[str, int] = {}
        self._tenant_submitted: dict[str, int] = {}
        self._submissions = 0
        self._dedup_attach = 0
        self._error: str | None = None
        self._load_existing()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "CampaignService":
        if self._thread is not None:
            return self
        cfg = self.config
        self._pool = make_pool(cfg.pool, cfg.workers, self.workdir)
        self._pool.start()
        self._tele = TelemetryWriter(self.workdir / "telemetry.jsonl", source="service")
        self._slots = WorkerSlots(cfg, self._pool.kind, self._tele.emit)
        self._tele.emit("service_start", workers=cfg.workers, pool=cfg.pool)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="campaign-service", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=30.0)
        self._thread = None
        with self._lock:
            for entry in self._entries.values():
                if entry.state not in CampaignState.TERMINAL:
                    self._finalize(entry, CampaignState.CANCELLED)
        self._pool.shutdown()
        if self._tele is not None:
            self._tele.emit("service_stop")
            self._tele.close()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- public API (thread-safe; called by the HTTP layer) ------------------
    def submit(
        self, spec: Any, tenant: str = "default", priority: float = 0.0
    ) -> dict[str, Any]:
        """Validate, dedupe and enqueue a campaign spec.

        Raises :class:`repro.service.fingerprint.SpecError` on an
        invalid spec.  An identical spec already queued, running or
        finished attaches to the existing entry instead of creating a
        new one — the campaign-level cache and in-flight dedup in one
        rule.  A cancelled or failed entry is re-enqueued: its ledger
        replays on admission, so resubmission *is* resume.
        """
        graph, canonical, fp = normalize_spec(spec)
        with self._lock:
            self._submissions += 1
            self._tenant_submitted[tenant] = self._tenant_submitted.get(tenant, 0) + 1
            entry = self._entries.get(fp)
            created = entry is None
            reenqueued = False
            if entry is None:
                entry = CampaignEntry(
                    cid=fp,
                    fingerprint=fp,
                    spec=canonical,
                    graph=graph,
                    task_fps=task_fingerprints(graph),
                    tenant=tenant,
                    priority=float(priority),
                    workdir=self.workdir / "campaigns" / fp,
                    submitted=time.monotonic(),
                )
                self._entries[fp] = entry
            else:
                entry.attached += 1
                self._dedup_attach += 1
                if entry.state in (CampaignState.CANCELLED, CampaignState.FAILED):
                    entry.state = CampaignState.QUEUED
                    entry.submitted = time.monotonic()
                    entry.tenant = tenant
                    entry.priority = float(priority)
                    entry.error = None
                    entry.done_event.clear()
                    reenqueued = True
            if self._tele is not None:
                self._tele.emit(
                    "submit",
                    campaign=entry.cid,
                    tenant=tenant,
                    created=created,
                    reenqueued=reenqueued,
                    state=entry.state,
                )
        with obs.span("service.submit", cat="service", campaign=entry.cid):
            pass
        return {
            "id": entry.cid,
            "fingerprint": fp,
            "state": entry.state,
            "created": created,
            "attached": entry.attached,
        }

    def status(self, cid: str) -> dict[str, Any] | None:
        with self._lock:
            entry = self._entries.get(cid)
            if entry is None:
                return None
            return self._snapshot(entry)

    def result(self, cid: str, timeout: float | None = None) -> dict[str, Any] | None:
        """Block until terminal, then return the full result snapshot."""
        with self._lock:
            entry = self._entries.get(cid)
        if entry is None:
            return None
        if not entry.done_event.wait(timeout):
            return {"id": cid, "state": entry.state, "ready": False}
        with self._lock:
            snap = self._snapshot(entry)
        snap["ready"] = True
        snap["artifacts"] = dict(entry.artifacts)
        store = entry.store or ArtifactStore(entry.workdir / "artifacts")
        files: dict[str, str] = {}
        for arts in entry.artifacts.values():
            for ref in arts.values():
                files[ref] = str(store.path(ref))
        snap["artifact_files"] = files
        return snap

    def cancel(self, cid: str) -> dict[str, Any] | None:
        """Stop a campaign; in-flight tasks drain into the ledger first."""
        with self._lock:
            entry = self._entries.get(cid)
            if entry is None:
                return None
            if entry.state == CampaignState.QUEUED:
                self._finalize(entry, CampaignState.CANCELLED)
            elif entry.state == CampaignState.ACTIVE:
                entry.state = CampaignState.CANCELLING
                self._settle()
            return self._snapshot(entry)

    def list_campaigns(self) -> list[dict[str, Any]]:
        with self._lock:
            return [self._snapshot(e) for e in self._entries.values()]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            by_state: dict[str, int] = {}
            for e in self._entries.values():
                by_state[e.state] = by_state.get(e.state, 0) + 1
            tenants = sorted(
                set(self._tenant_submitted) | set(self._tenant_busy) | set(self._tenant_done)
            )
            return {
                "submissions": self._submissions,
                "dedup_attached": self._dedup_attach,
                "campaigns": by_state,
                "workers": self.config.workers,
                "pool": self.config.pool,
                "error": self._error,
                "cas": self.cas.stats(),
                "tenants": {
                    t: {
                        "submitted": self._tenant_submitted.get(t, 0),
                        "busy_seconds": self._tenant_busy.get(t, 0.0),
                        "tasks_done": self._tenant_done.get(t, 0),
                    }
                    for t in tenants
                },
            }

    def read_events(self, cid: str, offset: int = 0) -> tuple[list[str], int, bool]:
        """Tail a campaign's ledger: (new lines, new offset, terminal?).

        The byte ``offset`` cursor makes the read resumable, so an HTTP
        client that disconnected mid-stream picks up where it left off.
        Only complete lines are returned — a torn tail (a record being
        appended right now) stays buffered until its newline lands.
        """
        with self._lock:
            entry = self._entries.get(cid)
            if entry is None:
                return [], offset, True
            terminal = entry.state in CampaignState.TERMINAL
        path = entry.workdir / "ledger.jsonl"
        if not path.exists():
            return [], offset, terminal
        with path.open("rb") as f:
            f.seek(offset)
            chunk = f.read()
        if not chunk:
            return [], offset, terminal
        complete, _, _partial = chunk.rpartition(b"\n")
        if not complete:
            return [], offset, terminal
        lines = complete.decode("utf-8", errors="replace").splitlines()
        return lines, offset + len(complete) + 1, terminal

    # -- restart recovery ----------------------------------------------------
    def _load_existing(self) -> None:
        """Re-register finished campaigns found on disk (restart path).

        A completed campaign whose artifacts still verify serves future
        identical submissions straight from its entry; anything
        unfinished is left for resubmission to resume.
        """
        root = self.workdir / "campaigns"
        if not root.is_dir():
            return
        for marker in sorted(root.glob("*/campaign.json")):
            try:
                rec = json.loads(marker.read_text(encoding="utf-8"))
                spec = rec.get("spec")
                if not spec:
                    continue
                graph, canonical, fp = normalize_spec(spec)
            except Exception:
                continue
            if fp in self._entries or marker.parent.name != fp:
                continue
            state = replay_ledger(marker.parent / "ledger.jsonl", campaign=fp)
            if not state.finished:
                continue
            store = ArtifactStore(marker.parent / "artifacts")
            restored = TaskMachine(graph, None, self.config)  # restores only
            try:
                restored.restore(state, lambda arts: verify_artifacts(store, arts))
            except LedgerMismatchError:
                continue  # the builder now makes another graph of this spec
            if restored.count(TaskStatus.DONE) < len(graph):
                continue
            entry = CampaignEntry(
                cid=fp,
                fingerprint=fp,
                spec=canonical,
                graph=graph,
                task_fps=task_fingerprints(graph),
                tenant=str(rec.get("tenant", "default")),
                priority=0.0,
                workdir=marker.parent,
                submitted=time.monotonic(),
                state=CampaignState.DONE,
                status=restored.status,
                artifacts=restored.artifacts,
                store=store,
            )
            entry.done_event.set()
            self._entries[fp] = entry
            for tid, arts in restored.artifacts.items():
                self.cas.put(entry.task_fps[tid], store, arts)

    # -- the multiplexing loop ----------------------------------------------
    def _loop(self) -> None:
        cfg = self.config
        try:
            while not self._stop.is_set():
                with self._lock:
                    self._admit()
                    self._cas_sweep()
                    self._settle()
                    self._dispatch()
                res = self._pool.poll_result(cfg.poll_interval_s)
                with self._lock:
                    while res is not None:
                        self._handle_result(res)
                        # Drain whatever else already landed before sleeping.
                        res = self._pool.poll_result(0.0)
                    lost = self._slots.sweep(self._pool.alive, time.monotonic())
                    replace_workers(self._pool, lost, self._tele.emit)
                    self._settle()
        except WorkerStormError as e:
            with self._lock:
                self._error = str(e)
                if self._tele is not None:
                    self._tele.emit("service_error", error=str(e))
                for entry in list(self._entries.values()):
                    if entry.state not in CampaignState.TERMINAL:
                        entry.error = str(e)
                        self._finalize(entry, CampaignState.FAILED)

    def _admit(self) -> None:
        queue = [
            QueuedCampaign(
                cid=e.cid, tenant=e.tenant, priority=e.priority, submitted=e.submitted
            )
            for e in self._entries.values()
            if e.state == CampaignState.QUEUED
        ]
        if not queue:
            return
        active_by_tenant: dict[str, int] = {}
        for e in self._entries.values():
            if e.state in (CampaignState.ACTIVE, CampaignState.CANCELLING):
                active_by_tenant[e.tenant] = active_by_tenant.get(e.tenant, 0) + 1
        for q in select_admissions(
            queue,
            active_by_tenant,
            self._tenants,
            self.config.window,
            time.monotonic(),
            self.config.aging_rate,
        ):
            self._activate(self._entries[q.cid])

    def _activate(self, entry: CampaignEntry) -> None:
        """Admit a campaign: open its ledger, replay whatever a previous
        admission left there (resubmission *is* resume), queue the rest."""
        cfg = self.config
        entry.ledger = open_campaign_ledger(
            self.workdir / "campaigns",
            entry.cid,
            fingerprint=entry.graph.fingerprint(),
            meta={"spec": entry.spec, "tenant": entry.tenant},
        )
        entry.store = store = ArtifactStore(entry.workdir / "artifacts")
        entry.tele = TelemetryWriter(entry.workdir / "telemetry.jsonl", source="driver")
        m = entry.machine = TaskMachine(
            entry.graph, journal(entry.ledger, entry.tele), cfg, campaign=entry.cid
        )
        prior = replay_ledger(entry.workdir / "ledger.jsonl", campaign=entry.cid)
        m.restore(prior, lambda arts: verify_artifacts(store, arts))
        for tid, arts in m.artifacts.items():
            self.cas.put(entry.task_fps[tid], store, arts)
        entry.status, entry.attempts, entry.artifacts = m.status, m.attempts, m.artifacts
        entry.cache_hits, entry.tasks_reused = 0, m.reused
        resume = bool(prior.campaign)
        m.open(spec=entry.spec, resume=resume, tenant=entry.tenant)
        entry.state = CampaignState.ACTIVE
        entry.started = time.monotonic()
        if self._tele is not None:
            self._tele.emit(
                "admit",
                campaign=entry.cid,
                tenant=entry.tenant,
                resume=resume,
                reused=entry.tasks_reused,
            )
        with obs.span("service.admit", cat="service", campaign=entry.cid):
            pass

    def _active(self) -> list[CampaignEntry]:
        return [e for e in self._entries.values() if e.state == CampaignState.ACTIVE]

    def _inflight(self) -> dict[str, str]:
        """Content fingerprint -> campaign computing it right now."""
        return {
            self._entries[m.campaign].task_fps[tid]: m.campaign
            for m, tid in self._slots.running()
        }

    def _cas_sweep(self) -> None:
        """Satisfy ready tasks from the CAS until a fixpoint.

        A hit can unlock dependents that hit in turn (a fully-cached
        campaign completes here without ever touching the pool), so
        iterate until nothing changes.  A task waiting out a retry
        backoff may hit too.
        """
        inflight = self._inflight()
        changed = True
        while changed:
            changed = False
            for entry in self._active():
                for task in entry.machine.dispatchable(float("inf")):
                    fp = entry.task_fps[task.task_id]
                    if fp in inflight or not self.cas.has(fp):
                        continue
                    arts = self.cas.materialize(fp, entry.store, task.task_id)
                    if arts is None:
                        continue
                    entry.machine.done(task.task_id, arts, cached=True)
                    entry.cache_hits += 1
                    changed = True

    def _dispatch(self) -> None:
        now = time.monotonic()
        for w in self._slots.idle(self._pool.alive):
            inflight = self._inflight()
            running_by_tenant = Counter(
                self._entries[m.campaign].tenant for m, _ in self._slots.running()
            )
            candidates: Counter[str] = Counter()
            ready: dict[str, list] = {}
            for entry in self._active():
                # In-flight dedup: content another campaign is computing
                # right now is awaited (its CAS publish), not duplicated.
                tasks = [
                    t
                    for t in entry.machine.dispatchable(now)
                    if inflight.get(entry.task_fps[t.task_id], entry.cid) == entry.cid
                ]
                if tasks:
                    ready[entry.cid] = tasks
                    candidates[entry.tenant] += len(tasks)
            tenant = pick_tenant(candidates, running_by_tenant, self._tenants)
            if tenant is None:
                return
            # Oldest-admitted campaign of the winning tenant first: FIFO
            # completion order within a tenant, deterministic across runs.
            entry = min(
                (e for e in map(self._entries.get, ready) if e.tenant == tenant),
                key=lambda e: (e.started or 0.0, e.cid),
            )
            pairs = self._policy.select(
                ready[entry.cid], [w], len(self._slots.running(entry.machine))
            )
            if not pairs:
                continue
            msg = self._slots.assign(w, entry.machine, pairs[0][1], now)
            msg.update(workdir=str(entry.workdir), campaign=entry.cid)
            self._pool.dispatch(w, msg)

    def _handle_result(self, res: dict) -> None:
        held = self._slots.result(res, time.monotonic())
        if held is None:
            return
        machine, tid = held
        entry = self._entries[machine.campaign]
        elapsed = float(res.get("elapsed", 0.0))
        self._tenant_busy[entry.tenant] = self._tenant_busy.get(entry.tenant, 0.0) + elapsed
        if res["ok"]:
            self._tenant_done[entry.tenant] = self._tenant_done.get(entry.tenant, 0) + 1
            self.cas.put(entry.task_fps[tid], entry.store, machine.artifacts[tid])

    def _settle(self) -> None:
        """Finish every campaign with nothing left to wait for: all tasks
        settled, or cancelled with its in-flight tasks drained."""
        for entry in self._entries.values():
            if entry.state == CampaignState.CANCELLING:
                if not self._slots.running(entry.machine):
                    self._finalize(entry, CampaignState.CANCELLED)
            elif entry.state == CampaignState.ACTIVE and entry.machine.settled():
                entry.machine.finish()
                all_done = entry.machine.count(TaskStatus.DONE) == len(entry.graph)
                if not all_done:
                    entry.error = "completed with quarantined/skipped tasks"
                self._finalize(
                    entry, CampaignState.DONE if all_done else CampaignState.FAILED
                )

    def _finalize(self, entry: CampaignEntry, state: str) -> None:
        entry.state = state
        entry.finished = time.monotonic()
        if entry.ledger is not None:
            entry.ledger.close()
            entry.ledger = None
        if entry.tele is not None:
            entry.tele.close()
            entry.tele = None
        if self._tele is not None and not self._tele.closed:
            self._tele.emit("campaign_terminal", campaign=entry.cid, state=state)
        with obs.span("service.complete", cat="service", campaign=entry.cid, state=state):
            pass
        entry.done_event.set()

    # -- snapshots -----------------------------------------------------------
    def _snapshot(self, entry: CampaignEntry) -> dict[str, Any]:
        now = time.monotonic()
        return {
            "id": entry.cid,
            "fingerprint": entry.fingerprint,
            "tenant": entry.tenant,
            "state": entry.state,
            "priority": entry.priority,
            "n_tasks": len(entry.graph.tasks),
            "counts": entry.counts(),
            "cache_hits": entry.cache_hits,
            "tasks_reused": entry.tasks_reused,
            "attached": entry.attached,
            "error": entry.error,
            "age_s": now - entry.submitted,
            "elapsed_s": (
                (entry.finished or now) - entry.started
                if entry.started is not None
                else 0.0
            ),
            "workdir": str(entry.workdir),
        }
