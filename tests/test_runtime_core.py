"""The pure scheduling core under arbitrary event interleavings.

``repro.runtime.core`` has no clock, thread, file or pool, so the whole
fault-handling state machine can be driven here on a synthetic clock:
hypothesis picks a small DAG and then any order of dispatches, ok and
failed reports, stale reports, worker deaths, timeouts and clock
advances, and after every step the invariants the executed suites can
only sample must hold.  Examples are derandomized by the ``repro`` /
``ci`` profiles in ``conftest.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.runtime import (
    CampaignConfig,
    CampaignRuntime,
    CampaignTask,
    TaskGraph,
    TaskStatus,
    WorkerStormError,
    build_sleep_campaign,
)
from repro.runtime.core import DIED, SETTLED, TIMEOUT, TaskMachine, WorkerSlots
from repro.runtime.policies import POLICIES
from repro.service import CampaignService, ServiceConfig


def _config(**kw):
    base = dict(
        workers=2, policy="metaq", pool="process", task_timeout_s=10.0,
        backoff_base_s=1.0, backoff_factor=2.0, max_respawns=10_000,
    )
    return SimpleNamespace(**{**base, **kw})


def _ok(worker, tid):
    return {"worker": worker, "task": tid, "campaign": None, "ok": True,
            "artifacts": {"out": f"{tid}:out"}, "elapsed": 0.0}


def _fold(events):
    """What a ledger replay would conclude from the logged events."""
    status, artifacts = {}, {}
    for ev, f in events:
        tid = f.get("task")
        if ev == "submit":
            status.setdefault(tid, TaskStatus.PENDING)
        elif ev == "start":
            status[tid] = TaskStatus.RUNNING
        elif ev == "done":
            status[tid], artifacts[tid] = TaskStatus.DONE, f["artifacts"]
        elif ev == "retry":
            status[tid] = TaskStatus.PENDING
        elif ev == "quarantine":
            status[tid] = TaskStatus.QUARANTINED
        elif ev == "skip":
            status[tid] = TaskStatus.SKIPPED
    return status, artifacts


@st.composite
def dags(draw):
    n = draw(st.integers(1, 6))
    tasks = []
    for i in range(n):
        deps = draw(st.sets(st.integers(0, i - 1), max_size=2)) if i else set()
        tasks.append(
            CampaignTask(
                task_id=f"t{i}", kind="sleep", deps=tuple(f"t{d}" for d in sorted(deps)),
                max_attempts=draw(st.integers(1, 3)),
            )
        )
    return TaskGraph(tasks)


class SchedulingCore(RuleBasedStateMachine):
    @initialize(graph=dags(), workers=st.integers(1, 3), policy=st.sampled_from(sorted(POLICIES)))
    def setup(self, graph, workers, policy):
        self.cfg = _config(workers=workers, policy=policy)
        self.graph = graph
        self.events = []
        log = lambda ev, **f: self.events.append((ev, f))  # noqa: E731
        self.machine = TaskMachine(graph, log, self.cfg)
        self.slots = WorkerSlots(self.cfg, "process", log)
        self.machine.open(spec={}, resume=False)
        self.alive = set(range(workers))
        self.now = 0.0
        self.reported = []  # every report ever delivered, for stale replays

    def alive_p(self, w):
        return w in self.alive

    def held(self):
        return {w: h[1] for w, h in self.slots.held.items() if h}

    def sweep(self):
        lost = self.slots.sweep(self.alive_p, self.now)
        for w, reason, tid in lost:
            assert reason in (DIED, TIMEOUT)
            self.alive.add(w)  # the shell's kill + spawn
        return lost

    # -- events ---------------------------------------------------------------
    @rule()
    def dispatch(self):
        ready = self.machine.dispatchable(self.now)
        assert all(self.machine.ready_at[t.task_id] <= self.now for t in ready)
        pairs = POLICIES[self.cfg.policy].select(
            ready, self.slots.idle(self.alive_p), len(self.slots.running())
        )
        for w, tid in pairs:
            msg = self.slots.assign(w, self.machine, tid, self.now)
            assert msg["task"] == tid and msg["attempt"] == self.machine.attempts[tid]
            assert self.machine.status[tid] == TaskStatus.RUNNING

    @precondition(lambda self: self.held())
    @rule(data=st.data(), ok=st.booleans())
    def report(self, data, ok):
        w = data.draw(st.sampled_from(sorted(self.held())))
        tid = self.held()[w]
        res = _ok(w, tid) if ok else {**_ok(w, tid), "ok": False, "error": "boom"}
        assert self.slots.result(res, self.now) == (self.machine, tid)
        self.reported.append(res)
        if ok:
            assert self.machine.status[tid] == TaskStatus.DONE
        elif self.machine.status[tid] == TaskStatus.PENDING:
            n = self.machine.attempts[tid]
            backoff = self.cfg.backoff_base_s * self.cfg.backoff_factor ** (n - 1)
            assert self.machine.ready_at[tid] == self.now + backoff
            assert tid not in {t.task_id for t in self.machine.dispatchable(self.now)}

    @precondition(lambda self: self.reported)
    @rule(data=st.data())
    def stale_report(self, data):
        res = data.draw(st.sampled_from(self.reported))
        if self.held().get(res["worker"]) == res["task"]:
            return  # the same worker holds a new attempt of that task: not stale
        before = (dict(self.machine.status), dict(self.machine.attempts), len(self.events))
        assert self.slots.result(res, self.now) is None
        assert before == (self.machine.status, self.machine.attempts, len(self.events))

    @rule(data=st.data())
    def worker_death(self, data):
        w = data.draw(st.sampled_from(sorted(self.alive)))
        tid = self.held().get(w)
        self.alive.discard(w)
        assert (w, DIED, tid) in self.sweep()
        assert self.slots.held[w] is None
        if tid is not None:
            assert self.machine.status[tid] in (TaskStatus.PENDING, TaskStatus.QUARANTINED)

    @precondition(lambda self: self.held())
    @rule()
    def timeout(self):
        overdue = self.held()
        self.now += self.cfg.task_timeout_s
        assert {(w, r, t) for w, r, t in self.sweep()} == {
            (w, TIMEOUT, t) for w, t in overdue.items()
        }

    @rule(dt=st.floats(0.0, 5.0))
    def advance_clock(self, dt):
        self.now += dt
        overdue = [
            (w, TIMEOUT, h[1]) for w, h in self.slots.held.items() if h and h[2] <= self.now
        ]
        assert self.sweep() == overdue  # nobody died: only deadlines can fire

    # -- invariants -----------------------------------------------------------
    @invariant()
    def no_task_lost_or_doubly_assigned(self):
        held = sorted(self.held().values())
        running = sorted(t for t, s in self.machine.status.items() if s == TaskStatus.RUNNING)
        assert held == running  # sorted lists: a task on two slots would repeat

    @invariant()
    def attempts_bounded_and_deps_respected(self):
        m = self.machine
        for tid, s in m.status.items():
            assert m.attempts[tid] <= self.graph[tid].max_attempts
            if s in (TaskStatus.RUNNING, TaskStatus.DONE):
                assert all(m.status[d] == TaskStatus.DONE for d in self.graph[tid].deps)

    @invariant()
    def quarantine_closes_transitively(self):
        m = self.machine
        for tid, s in m.status.items():
            if s == TaskStatus.QUARANTINED:
                assert m.attempts[tid] == self.graph[tid].max_attempts
                for victim in self.graph.transitive_consumers(tid):
                    assert m.status[victim] == TaskStatus.SKIPPED

    @invariant()
    def log_replays_to_the_live_state(self):
        status, artifacts = _fold(self.events)
        assert status == self.machine.status
        assert artifacts == self.machine.artifacts

    # -- liveness -------------------------------------------------------------
    def teardown(self):
        """From any reachable state, a quiet pool settles every task."""
        for _ in range(4 * len(self.graph) + 4):
            if self.machine.settled():
                break
            self.dispatch()
            for w, tid in self.held().items():
                assert self.slots.result(_ok(w, tid), self.now)
            self.now += self.cfg.backoff_base_s * self.cfg.backoff_factor**3
        assert self.machine.settled()
        assert all(s in SETTLED for s in self.machine.status.values())
        self.machine.finish()
        ev, fields = self.events[-1]
        assert ev == "campaign_finish"
        assert fields["done"] == self.machine.count(TaskStatus.DONE)
        # ... and a fresh machine restored from that log has nothing to do.
        status, artifacts = _fold(self.events)
        prior = SimpleNamespace(
            campaign={"fingerprint": self.graph.fingerprint()}, status=status, artifacts=artifacts
        )
        resumed = TaskMachine(self.graph, None, self.cfg)
        resumed.restore(prior, lambda arts: True)
        assert resumed.status == self.machine.status and resumed.settled()
        assert resumed.reused == self.machine.count(TaskStatus.DONE)
        assert not any(resumed.attempts.values())


TestSchedulingCore = SchedulingCore.TestCase


def _chain(n=3, **kw):
    return TaskGraph(
        CampaignTask(task_id=f"t{i}", kind="sleep", deps=(f"t{i-1}",) if i else (), **kw)
        for i in range(n)
    )


def test_respawn_storm_budget_raises():
    cfg = _config(workers=1, max_respawns=2)
    log = lambda ev, **f: None  # noqa: E731
    slots = WorkerSlots(cfg, "process", log)
    for _ in range(2):  # the budget: two idle deaths are replaced
        assert [w for w, _, _ in slots.sweep(lambda w: False, 0.0)] == [0]
    with pytest.raises(WorkerStormError, match="keep dying"):
        slots.sweep(lambda w: False, 0.0)
    assert slots.deaths == 3


def test_deadline_enforced_only_on_a_killable_pool():
    cfg = _config(workers=1, task_timeout_s=1.0)
    for kind, expect in (("thread", []), ("process", [(0, TIMEOUT, "t0")])):
        events = []
        log = lambda ev, **f: events.append(ev)  # noqa: E731
        machine, slots = TaskMachine(_chain(1), log, cfg), WorkerSlots(cfg, kind, log)
        slots.assign(0, machine, "t0", now=0.0)
        assert slots.sweep(lambda w: True, now=100.0) == expect
        assert ("task_timeout" in events) == bool(expect)


def test_restore_trusts_only_verified_artifacts_and_closes_quarantine():
    graph = _chain(4)
    prior = SimpleNamespace(
        campaign={"fingerprint": graph.fingerprint()},
        status={"t0": "done", "t1": "quarantined", "t2": "pending", "gone": "done"},
        artifacts={"t0": {"out": "t0:out"}},
    )
    m = TaskMachine(graph, None, _config())
    m.restore(prior, lambda arts: True)
    assert m.status == {"t0": "done", "t1": "quarantined", "t2": "skipped", "t3": "skipped"}
    assert m.settled() and m.reused == 1

    m = TaskMachine(graph, None, _config())
    m.restore(prior, lambda arts: False)  # artifacts gone: the task re-runs
    assert m.status["t0"] == "pending" and m.reused == 0 and not m.settled()


def _ledger(path):
    out = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if not rec.get("cached"):
            out.append((rec["ev"], rec.get("task")))
    return out


def test_runtime_and_service_write_the_same_ledger(tmp_path):
    """One machine, two shells: the same campaign driven directly and
    through a one-tenant service leaves the same (event, task) sequence,
    modulo campaign/tenant tags and CAS-only records.  One worker and
    the same policy make the order deterministic; the tasks' contents
    are all distinct, so the CAS cannot stand in for a start."""
    kwargs = dict(n_long=3, n_short=1, long_s=0.03, short_s=0.005)
    graph, spec = build_sleep_campaign(**kwargs)
    rt = CampaignRuntime(
        tmp_path / "direct", CampaignConfig(workers=1, policy="metaq", pool="thread"), spec
    )
    assert rt.run(graph).all_done

    with CampaignService(
        tmp_path / "svc", ServiceConfig(workers=1, policy="metaq", pool="thread")
    ) as svc:
        res = svc.result(svc.submit({"builder": "sleep", "kwargs": kwargs})["id"], timeout=60)
    assert res["state"] == "done" and res["cache_hits"] == 0

    direct = _ledger(tmp_path / "direct" / "ledger.jsonl")
    served = _ledger(Path(res["workdir"]) / "ledger.jsonl")
    assert direct == served
    assert [ev for ev, _ in direct].count("start") == len(graph)
