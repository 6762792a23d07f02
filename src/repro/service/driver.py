"""CampaignService: many concurrent campaigns over one shared pool.

The service is the many-campaign configuration of the one driver loop
(:class:`repro.runtime.loop.DriverLoop`), run in a daemon thread over a
pool started once.  What it passes the loop is its own:

* **admission** in bounded windows with priority aging and per-tenant
  quotas (:mod:`repro.service.scheduler`), each admitted campaign
  getting a namespaced write-ahead ledger
  (:func:`repro.runtime.ledger.open_campaign_ledger`);
* **fair share**: the tenant pick orders the campaigns ahead of each
  campaign's own task policy;
* **caching**: identical specs dedupe to one entry (a second ``submit``
  attaches, in flight or finished), every completed task publishes to
  the cross-campaign :class:`repro.service.cache.ArtifactCAS`, and a
  task whose content another campaign is computing waits for that solve;
* **cancellation** that drains in-flight tasks into the ledger, so
  resubmitting the same spec resumes bit-for-bit;
* **restart recovery** of finished campaigns, and the thread-safe
  methods the HTTP layer (:mod:`repro.service.server`) calls.

Any exception that ends the loop becomes the service's error and fails
every campaign not yet terminal.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.io.container import ArtifactStore, verify_artifacts
from repro.runtime.core import LedgerMismatchError, TaskMachine
from repro.runtime.ledger import TaskLedger, open_campaign_ledger, replay_ledger
from repro.runtime.loop import CampaignState, DriverLoop, LoopConfig
from repro.runtime.policies import make_policy
from repro.runtime.tasks import TaskGraph, TaskStatus
from repro.service.cache import ArtifactCAS
from repro.service.fingerprint import normalize_spec, task_fingerprints
from repro.service.scheduler import TenantConfig, pick_tenant, select_admissions

__all__ = ["CampaignEntry", "CampaignService", "CampaignState", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig(LoopConfig):
    """Knobs of the shared pool and the tenant scheduler."""

    pool: str = "thread"
    policy: str = "mpijm"
    backoff_base_s: float = 0.05
    window: int = 8  # max concurrently active campaigns
    aging_rate: float = 0.05  # priority units earned per queued second
    tenants: tuple[TenantConfig, ...] = ()


@dataclass
class CampaignEntry:
    """One deduplicated campaign: spec, graph, ledger, progress."""

    cid: str  # the spec's fingerprint
    spec: dict
    graph: TaskGraph
    task_fps: dict[str, str]
    tenant: str
    priority: float
    workdir: Path
    submitted: float = field(default_factory=time.monotonic)
    state: str = CampaignState.QUEUED
    started: float | None = None
    finished: float | None = None
    machine: TaskMachine | None = None  # of the current (or last) admission
    store: ArtifactStore | None = None
    ledger: TaskLedger | None = None
    cache_hits: int = 0  # tasks satisfied from the CAS
    tasks_reused: int = 0  # tasks replayed from this campaign's own ledger
    attached: int = 1  # total submissions deduplicated into this entry
    error: str | None = None
    done_event: threading.Event = field(default_factory=threading.Event)

    @property
    def artifacts(self) -> dict[str, dict[str, str]]:
        return self.machine.artifacts if self.machine else {}

    def counts(self) -> dict[str, int]:
        return dict(Counter(self.machine.status.values())) if self.machine else {}


class CampaignService(DriverLoop):
    """The long-running multi-tenant campaign driver.

    Its own log — start and stop, submissions, admissions, workers that
    died idle and their respawns, terminal states — is
    ``<workdir>/ledger.jsonl``, a :class:`TaskLedger` like each campaign's.
    """

    def __init__(self, workdir: str | Path, config: ServiceConfig | None = None):
        super().__init__(config or ServiceConfig())
        make_policy(self.config.policy)  # an unknown policy fails here, not at start
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cas = ArtifactCAS(self.workdir / "cas")
        self._tenants = {t.name: t for t in self.config.tenants}
        self._entries: dict[str, CampaignEntry] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._log: TaskLedger | None = None  # the service's own ledger.jsonl
        self._tally: dict[str, dict[str, float]] = {}  # tenant -> its counters
        self._submissions = 0
        self._dedup_attach = 0
        self._error: str | None = None
        self._load_existing()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "CampaignService":
        if self._thread is not None:
            return self
        cfg = self.config
        self._log = TaskLedger(self.workdir / "ledger.jsonl")
        self._open(self.workdir, self._log.record)
        self._pool.start()
        self._log.record("service_start", workers=cfg.workers, pool=cfg.pool)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._serve, name="campaign-service", daemon=True
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
        self._log.record("service_stop")
        self._log.close()
        self._log = None

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
            self._tenant(tenant)["submitted"] += 1
            entry = self._entries.get(fp)
            created = entry is None
            reenqueued = False
            if entry is None:
                entry = CampaignEntry(
                    cid=fp,
                    spec=canonical,
                    graph=graph,
                    task_fps=task_fingerprints(graph),
                    tenant=tenant,
                    priority=float(priority),
                    workdir=self.workdir / "campaigns" / fp,
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
            if self._log is not None:
                self._log.record(
                    "submit",
                    campaign=entry.cid,
                    tenant=tenant,
                    created=created,
                    reenqueued=reenqueued,
                    state=entry.state,
                )
            if self._error is not None and entry.state == CampaignState.QUEUED:
                self._finalize(entry, CampaignState.FAILED, self._error)  # no loop admits it
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
            return {
                "submissions": self._submissions,
                "dedup_attached": self._dedup_attach,
                "campaigns": by_state,
                "workers": self.config.workers,
                "pool": self.config.pool,
                "error": self._error,
                "cas": self.cas.stats(),
                "tenants": {t: dict(c) for t, c in sorted(self._tally.items())},
            }

    def _tenant(self, name: str) -> dict[str, float]:
        return self._tally.setdefault(
            name, {"submitted": 0, "busy_seconds": 0.0, "tasks_done": 0}
        )

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

        A completed campaign whose artifacts still verify serves identical
        submissions under its spec's current fingerprint, also when written
        under an older one; anything unfinished is left for resubmission.
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
            if fp in self._entries:
                continue
            entry = CampaignEntry(
                cid=fp,
                spec=canonical,
                graph=graph,
                task_fps=task_fingerprints(graph),
                tenant=str(rec.get("tenant", "default")),
                priority=0.0,
                workdir=marker.parent,
                state=CampaignState.DONE,
            )
            try:
                prior = self._restore(entry, campaign=marker.parent.name)
            except LedgerMismatchError:
                continue  # the builder now makes another graph of this spec
            if prior.finished and entry.machine.count(TaskStatus.DONE) == len(graph):
                entry.done_event.set()
                self._entries[fp] = entry

    def _restore(self, entry: CampaignEntry, log=None, campaign: str | None = None):
        """Replay ``entry``'s ledger (records of ``campaign``, by default its
        own id) into a fresh machine, trusting only artifacts that verify,
        and publish those to the CAS; returns the replayed state."""
        entry.store = store = ArtifactStore(entry.workdir / "artifacts")
        entry.machine = m = TaskMachine(entry.graph, log, self.config, campaign=entry.cid)
        prior = replay_ledger(entry.workdir / "ledger.jsonl", campaign=campaign or entry.cid)
        m.restore(prior, lambda arts: verify_artifacts(store, arts))
        for tid, arts in m.artifacts.items():
            self.cas.put(entry.task_fps[tid], store, arts)
        return prior

    # -- the loop, configured for many campaigns ---------------------------
    def _serve(self) -> None:
        try:
            self.drive()
        except Exception as e:  # the one loop ended: no campaign may wait on it
            error = f"{type(e).__name__}: {e}"
            with self._lock:
                self._error = error
                self._log.record("service_error", error=error, trace=traceback.format_exc())
                for entry in list(self._entries.values()):
                    if entry.state not in CampaignState.TERMINAL:
                        self._finalize(entry, CampaignState.FAILED, error)

    def _more(self) -> bool:
        return not self._stop.is_set()

    def _campaigns(self) -> list[CampaignEntry]:
        admitted = (CampaignState.ACTIVE, CampaignState.CANCELLING)
        return [e for e in self._entries.values() if e.state in admitted]

    def _admit(self) -> None:
        # an entry is the scheduler's QueuedCampaign: cid, tenant, priority, submitted
        queue = [e for e in self._entries.values() if e.state == CampaignState.QUEUED]
        if queue:
            active = Counter(e.tenant for e in self._campaigns())
            cfg = self.config
            now = time.monotonic()
            for entry in select_admissions(
                queue, active, self._tenants, cfg.window, now, cfg.aging_rate
            ):
                self._activate(entry)

    def _activate(self, entry: CampaignEntry) -> None:
        """Admit a campaign: open its ledger, replay whatever a previous
        admission left there (resubmission *is* resume), queue the rest."""
        entry.ledger = open_campaign_ledger(
            self.workdir / "campaigns",
            entry.cid,
            fingerprint=entry.graph.fingerprint(),
            meta={"spec": entry.spec, "tenant": entry.tenant},
        )
        prior = self._restore(entry, entry.ledger.record)
        entry.cache_hits, entry.tasks_reused = 0, entry.machine.reused
        resume = bool(prior.campaign)
        entry.machine.open(spec=entry.spec, resume=resume, tenant=entry.tenant)
        entry.state = CampaignState.ACTIVE
        entry.started = time.monotonic()
        self._log.record(
            "admit",
            campaign=entry.cid,
            tenant=entry.tenant,
            resume=resume,
            reused=entry.tasks_reused,
        )
        with obs.span("service.admit", cat="service", campaign=entry.cid):
            pass

    def _inflight(self) -> dict[str, str]:
        """Content fingerprint -> campaign computing it right now."""
        return {
            self._entries[m.campaign].task_fps[tid]: m.campaign
            for m, tid in self._slots.running()
        }

    def _cache_sweep(self) -> None:
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
            for entry, tasks in self._ready(float("inf")):
                for task in tasks:
                    fp = entry.task_fps[task.task_id]
                    if fp in inflight or not self.cas.has(fp):
                        continue
                    arts = self.cas.materialize(fp, entry.store, task.task_id)
                    if arts is None:
                        continue
                    entry.machine.done(task.task_id, arts, cached=True)
                    entry.cache_hits += 1
                    changed = True

    def _pick(self, ready: list[tuple[CampaignEntry, list]]) -> tuple | None:
        """In-flight dedup (content another campaign is computing right now
        is awaited, not duplicated), fair share across tenants, then the
        winner's oldest-admitted campaign: FIFO within a tenant."""
        inflight, mine, candidates = self._inflight(), [], Counter()
        for entry, tasks in ready:
            fps = entry.task_fps
            tasks = [t for t in tasks if inflight.get(fps[t.task_id], entry.cid) == entry.cid]
            if tasks:
                mine.append((entry, tasks))
                candidates[entry.tenant] += len(tasks)
        running = Counter(self._entries[m.campaign].tenant for m, _ in self._slots.running())
        tenant = pick_tenant(candidates, running, self._tenants)
        if tenant is None:
            return None
        return min(
            (pair for pair in mine if pair[0].tenant == tenant),
            key=lambda pair: (pair[0].started or 0.0, pair[0].cid),
        )

    def _landed(self, machine: TaskMachine, tid: str, res: dict) -> None:
        entry = self._entries[machine.campaign]
        tally = self._tenant(entry.tenant)
        tally["busy_seconds"] += float(res.get("elapsed", 0.0))
        if res["ok"]:
            tally["tasks_done"] += 1
            self.cas.put(entry.task_fps[tid], entry.store, machine.artifacts[tid])

    def _finalize(self, entry: CampaignEntry, state: str, error: str | None = None) -> None:
        entry.state = state
        entry.finished = time.monotonic()
        if state == CampaignState.FAILED:
            entry.error = error or "completed with quarantined/skipped tasks"
        if entry.ledger is not None:
            entry.ledger.close()
            entry.ledger = None
        if self._log is not None:
            self._log.record("campaign_terminal", campaign=entry.cid, state=state)
        with obs.span("service.complete", cat="service", campaign=entry.cid, state=state):
            pass
        entry.done_event.set()

    # -- snapshots -----------------------------------------------------------
    def _snapshot(self, entry: CampaignEntry) -> dict[str, Any]:
        now = time.monotonic()
        return {
            "id": entry.cid,
            "fingerprint": entry.cid,
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
