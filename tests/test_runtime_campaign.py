"""End-to-end campaign runs on the (fast) thread pool.

Real solves and killable workers live in ``test_runtime_faults.py``;
here the tasks are pure sleeps so the scheduling, retry, quarantine and
ledger-resume machinery is exercised in seconds.
"""

from __future__ import annotations

import pytest

from repro.obs.readers import iter_records
from repro.runtime import (
    CampaignConfig,
    CampaignRuntime,
    CampaignTask,
    FaultPlan,
    FaultSpec,
    TaskGraph,
    build_sleep_campaign,
    replay_ledger,
    summarize,
)


def _run(tmp_path, graph, spec=None, policy="metaq", workers=4, faults=None,
         abort_after=None, resume=False, **cfg):
    rt = CampaignRuntime(
        tmp_path,
        CampaignConfig(
            workers=workers, policy=policy, pool="thread",
            backoff_base_s=0.01, **cfg,
        ),
        spec=spec,
    )
    return rt, rt.run(graph, faults=faults, abort_after=abort_after, resume=resume)


class TestPolicies:
    @pytest.mark.parametrize("policy", ["naive", "metaq", "mpijm"])
    def test_campaign_completes(self, tmp_path, policy):
        graph, spec = build_sleep_campaign(
            n_long=3, n_short=6, long_s=0.06, short_s=0.01
        )
        rt, res = _run(tmp_path, graph, spec, policy=policy)
        assert res.all_done
        assert res.attempts == {tid: 1 for tid in graph.topo_order()}
        s = summarize(tmp_path)
        assert s.tasks_done == len(graph)

    def test_metaq_beats_naive_idle_fraction(self, tmp_path):
        graph_n, _ = build_sleep_campaign(long_s=0.3)
        _run(tmp_path / "naive", graph_n, policy="naive")
        graph_m, _ = build_sleep_campaign(long_s=0.3)
        _run(tmp_path / "metaq", graph_m, policy="metaq")
        idle_naive = summarize(tmp_path / "naive").idle_fraction
        idle_metaq = summarize(tmp_path / "metaq").idle_fraction
        assert idle_metaq < idle_naive

    def test_artifacts_written_and_recorded(self, tmp_path):
        graph, spec = build_sleep_campaign(n_long=2, n_short=2,
                                           long_s=0.02, short_s=0.01)
        rt, res = _run(tmp_path, graph, spec)
        for tid, arts in res.artifacts.items():
            for ref in arts.values():
                assert rt.store.exists(ref), f"{tid}: missing {ref}"


class TestRetryAndQuarantine:
    def test_transient_fault_heals_via_retry(self, tmp_path):
        graph, spec = build_sleep_campaign(n_long=2, n_short=2,
                                           long_s=0.02, short_s=0.01)
        faults = FaultPlan({"long0": FaultSpec(kind="raise", times=1)})
        rt, res = _run(tmp_path, graph, spec, faults=faults)
        assert res.all_done
        assert res.retries == 1
        assert res.attempts["long0"] == 2

    def test_poison_task_quarantined_and_consumers_skipped(self, tmp_path):
        graph = TaskGraph(
            [
                CampaignTask(task_id="ok", kind="sleep",
                             params={"seconds": 0.01}),
                CampaignTask(task_id="bad", kind="poison", max_attempts=2),
                CampaignTask(task_id="downstream", kind="sleep",
                             params={"seconds": 0.01}, deps=("bad",)),
            ]
        )
        rt, res = _run(tmp_path, graph, workers=2)
        assert not res.all_done and res.completed
        assert res.status["ok"] == "done"
        assert res.status["bad"] == "quarantined"
        assert res.status["downstream"] == "skipped"
        assert res.attempts["bad"] == 2
        st = replay_ledger(tmp_path / "ledger.jsonl")
        assert st.quarantined_tasks() == {"bad"}

    def test_unknown_kind_is_a_failure_not_a_hang(self, tmp_path):
        graph = TaskGraph([CampaignTask(task_id="x", kind="not_a_kind",
                                        max_attempts=1)])
        rt, res = _run(tmp_path, graph, workers=1)
        assert res.status["x"] == "quarantined"


class TestLedgerResume:
    def test_interrupt_then_resume_completes(self, tmp_path):
        graph, spec = build_sleep_campaign(n_long=3, n_short=6,
                                           long_s=0.05, short_s=0.01)
        rt, res = _run(tmp_path, graph, spec, abort_after=3)
        assert res.interrupted
        done_first = {t for t, s in res.status.items() if s == "done"}
        assert len(done_first) >= 3
        assert not replay_ledger(tmp_path / "ledger.jsonl").finished

        graph2, _ = build_sleep_campaign(n_long=3, n_short=6,
                                         long_s=0.05, short_s=0.01)
        rt2, res2 = _run(tmp_path, graph2, spec, resume=True)
        assert res2.all_done
        assert res2.tasks_reused >= 3
        # Reused tasks were not re-executed.
        for tid in done_first:
            assert res2.attempts[tid] == 0
        assert replay_ledger(tmp_path / "ledger.jsonl").finished

    def test_resume_reruns_tasks_with_missing_artifacts(self, tmp_path):
        graph, spec = build_sleep_campaign(n_long=2, n_short=2,
                                           long_s=0.02, short_s=0.01)
        rt, res = _run(tmp_path, graph, spec)
        assert res.all_done
        # Vandalize one artifact; resume must detect and recompute it.
        rt.store.path("long0:token").unlink()
        graph2, _ = build_sleep_campaign(n_long=2, n_short=2,
                                         long_s=0.02, short_s=0.01)
        rt2, res2 = _run(tmp_path, graph2, spec, resume=True)
        assert res2.all_done
        assert res2.attempts["long0"] == 1  # re-ran
        assert rt2.store.exists("long0:token")

    def test_resume_after_quarantine_returns(self, tmp_path):
        """A quarantine is restored together with what it blocks; the
        resumed campaign has nothing left to run and must say so rather
        than wait forever on a task that can never start."""
        import threading

        def graph():
            return TaskGraph(
                [
                    CampaignTask(task_id="ok", kind="sleep",
                                 params={"seconds": 0.01}),
                    CampaignTask(task_id="bad", kind="poison", max_attempts=2),
                    CampaignTask(task_id="downstream", kind="sleep",
                                 params={"seconds": 0.01}, deps=("bad",)),
                ]
            )

        _, res = _run(tmp_path, graph(), workers=2)
        assert res.completed and res.status["bad"] == "quarantined"

        rt = CampaignRuntime(
            tmp_path, CampaignConfig(workers=2, pool="thread", backoff_base_s=0.01)
        )
        out = []
        t = threading.Thread(
            target=lambda: out.append(rt.run(graph(), resume=True)), daemon=True
        )
        t.start()
        t.join(timeout=30)
        if t.is_alive():  # bound the wait: a regression fails, not hangs
            rt.cancel()
            t.join(timeout=30)
            pytest.fail("run(resume=True) after a quarantine never returned")
        (res2,) = out
        assert res2.completed and not res2.all_done
        assert res2.status == {"ok": "done", "bad": "quarantined",
                               "downstream": "skipped"}
        assert res2.attempts == {"ok": 0, "bad": 0, "downstream": 0}
        assert res2.quarantined == ["bad"] and res2.skipped == ["downstream"]

    def test_summary_covers_the_latest_run(self, tmp_path):
        """After abort and resume the summary is the resumed run's alone:
        no busy time of the interrupted run, no reused task counted, and
        the interrupted run ends at its ``campaign_interrupted`` record,
        not when its abandoned attempt finally returns."""
        kwargs = dict(n_long=4, n_short=4, long_s=0.2, short_s=0.02)
        graph, spec = build_sleep_campaign(**kwargs)
        rt, res = _run(tmp_path, graph, spec, workers=2, abort_after=4)
        assert res.interrupted
        assert summarize(tmp_path).makespan <= res.makespan + rt.config.poll_interval_s

        graph2, _ = build_sleep_campaign(**kwargs)
        rt2, res2 = _run(tmp_path, graph2, spec, workers=2, resume=True)
        assert res2.all_done
        s = summarize(tmp_path)
        assert all(busy <= s.makespan for busy in s.busy_seconds.values())
        assert s.tasks_done == len(graph2) - res2.tasks_reused

    def test_resume_refuses_different_graph(self, tmp_path):
        graph, spec = build_sleep_campaign(n_long=2, n_short=2,
                                           long_s=0.02, short_s=0.01)
        _run(tmp_path, graph, spec, abort_after=1)
        other, _ = build_sleep_campaign(n_long=3, n_short=2,
                                        long_s=0.02, short_s=0.01)
        rt = CampaignRuntime(tmp_path, CampaignConfig(pool="thread"))
        with pytest.raises(ValueError, match="fingerprint"):
            rt.run(other, resume=True)


class TestTimeoutOnThreadPool:
    def test_deadline_not_enforced_where_workers_cannot_be_killed(self, tmp_path):
        """Thread workers cannot be killed, so their deadline is not
        enforced (the process-pool timeout lives in
        test_runtime_faults.py): a slow task completes normally instead
        of ``pool.kill`` raising out of ``run``."""
        graph = TaskGraph([CampaignTask(task_id="slow", kind="sleep",
                                        params={"seconds": 0.5})])
        rt, res = _run(tmp_path, graph, workers=1, task_timeout_s=0.05)
        assert res.all_done
        assert res.timeouts == 0 and res.retries == 0
        assert res.attempts == {"slow": 1}


class TestConfigValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            CampaignConfig(workers=0)

    def test_bad_policy(self, tmp_path):
        graph, _ = build_sleep_campaign(n_long=1, n_short=1)
        rt = CampaignRuntime(tmp_path, CampaignConfig(policy="wishful"))
        with pytest.raises(ValueError, match="unknown policy"):
            rt.run(graph)


class TestEmbeddableRuntime:
    """The service-facing contract: typed errors, cooperative cancel."""

    def test_typed_exception_hierarchy(self):
        from repro.runtime import (
            CampaignError,
            LedgerMismatchError,
            WorkerStormError,
        )

        assert issubclass(LedgerMismatchError, CampaignError)
        assert issubclass(WorkerStormError, CampaignError)
        # Pre-service callers catch ValueError on a resume mismatch; the
        # typed error must keep satisfying them.
        assert issubclass(LedgerMismatchError, ValueError)
        assert issubclass(CampaignError, RuntimeError)

    def test_resume_mismatch_raises_ledger_mismatch_error(self, tmp_path):
        from repro.runtime import LedgerMismatchError

        graph, spec = build_sleep_campaign(n_long=1, n_short=1,
                                           long_s=0.01, short_s=0.01)
        _run(tmp_path, graph, spec)
        other, _ = build_sleep_campaign(n_long=2, n_short=1,
                                        long_s=0.01, short_s=0.01)
        rt = CampaignRuntime(
            tmp_path, CampaignConfig(workers=2, pool="thread"), spec=spec
        )
        with pytest.raises(LedgerMismatchError, match="fingerprint"):
            rt.run(other, resume=True)

    def test_cancel_mid_run_then_resume_completes(self, tmp_path):
        import threading
        import time

        graph, spec = build_sleep_campaign(
            n_long=3, n_short=6, long_s=0.3, short_s=0.05
        )
        rt = CampaignRuntime(
            tmp_path,
            CampaignConfig(workers=2, policy="metaq", pool="thread",
                           backoff_base_s=0.01),
            spec=spec,
        )

        def cancel_soon():
            # wait for real progress so the resume has work to reuse
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                st = replay_ledger(tmp_path / "ledger.jsonl")
                if len(st.done_tasks()) >= 1:
                    break
                time.sleep(0.01)
            rt.cancel()

        t = threading.Thread(target=cancel_soon)
        t.start()
        res = rt.run(graph)
        t.join()
        assert res.cancelled
        assert res.interrupted
        assert not res.all_done
        from repro.runtime import TaskStatus
        done_at_cancel = sum(
            1 for st in res.status.values() if st == TaskStatus.DONE
        )
        assert done_at_cancel >= 1

        # the same runtime object resumes cooperatively
        graph2, _ = build_sleep_campaign(
            n_long=3, n_short=6, long_s=0.3, short_s=0.05
        )
        res2 = rt.run(graph2, resume=True)
        assert not res2.cancelled
        assert res2.all_done
        assert res2.tasks_reused >= done_at_cancel

    def test_cancel_before_run_does_not_stick(self, tmp_path):
        # run() clears any stale cancel flag: cancel-then-run completes.
        graph, spec = build_sleep_campaign(n_long=1, n_short=2,
                                           long_s=0.02, short_s=0.01)
        rt = CampaignRuntime(
            tmp_path, CampaignConfig(workers=2, pool="thread"), spec=spec
        )
        rt.cancel()
        res = rt.run(graph)
        assert res.all_done
        assert not res.cancelled


class TestOneEventLog:
    def test_ledger_is_the_only_driver_log(self, tmp_path):
        """The ledger is the campaign's one event file — no telemetry of
        the driver's, no shard of a worker's — and every span of the
        summary is a ledger ``start`` and the ``done`` that ends it, on
        the ledger's timestamps."""
        graph, spec = build_sleep_campaign(n_long=2, n_short=4,
                                           long_s=0.03, short_s=0.01)
        rt, res = _run(tmp_path, graph, spec, workers=2)
        assert res.all_done
        assert [p.name for p in tmp_path.rglob("*.jsonl")] == ["ledger.jsonl"]
        ledger = list(iter_records(tmp_path / "ledger.jsonl"))
        starts = sorted((r["task"], r["t"]) for r in ledger if r["ev"] == "start")
        dones = {r["task"]: r["t"] for r in ledger if r["ev"] == "done"}
        spans = summarize(tmp_path).spans
        assert sorted((sp["task"], sp["start"]) for sp in spans) == starts
        assert all(sp["end"] == dones[sp["task"]] for sp in spans)
