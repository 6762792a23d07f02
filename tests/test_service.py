"""CampaignService end-to-end: dedup, caching, quotas, cancel/resume.

Physics campaigns here are tiny 4^3x8 single-mass solves at heavy
masses (fast convergence) so the whole suite runs in tens of seconds on
the thread pool; the properties asserted are exactly the service
guarantees: N identical submissions cost one solve and return bitwise-
equal results, overlapping specs share their common upstream cone
through the CAS, quotas bound concurrency, and a cancelled campaign
resumes bit-for-bit from its ledger on resubmission.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from repro.runtime import CampaignConfig, CampaignRuntime, build_from_spec, summarize
from repro.runtime.telemetry import load_events
from repro.service import (
    CampaignService,
    CampaignState,
    ServiceConfig,
    SpecError,
    TenantConfig,
)


def ga_spec(mass=1.0, seed=11, **kw):
    kwargs = {
        "dims": [4, 4, 4, 8],
        "masses": [mass],
        "seed": seed,
        "tol": 1e-5,
        "max_iter": 2000,
        "include_seq": False,
        "solver_mode": "batched",
        **kw,
    }
    return {"builder": "ga", "kwargs": kwargs}


def sleep_spec(n_long=2, n_short=2, long_s=0.05, short_s=0.01):
    return {
        "builder": "sleep",
        "kwargs": {
            "n_long": n_long,
            "n_short": n_short,
            "long_s": long_s,
            "short_s": short_s,
        },
    }


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(
        tmp_path / "svc",
        ServiceConfig(workers=3, pool="thread", window=6, backoff_base_s=0.01),
    ).start()
    yield svc
    svc.stop()


class TestSubmitAndDedup:
    def test_submit_runs_to_done(self, service):
        sub = service.submit(sleep_spec())
        assert sub["created"]
        res = service.result(sub["id"], timeout=60)
        assert res["state"] == CampaignState.DONE
        assert res["ready"]
        assert res["counts"] == {"done": res["n_tasks"]}

    def test_invalid_spec_rejected_before_enqueue(self, service):
        with pytest.raises(SpecError):
            service.submit({"builder": "ga", "kwargs": {"bogus": 1}})
        assert service.stats()["campaigns"] == {}

    def test_identical_specs_attach_to_one_entry(self, service):
        subs = [service.submit(sleep_spec(), tenant=f"t{i}") for i in range(4)]
        assert len({s["id"] for s in subs}) == 1
        assert sum(s["created"] for s in subs) == 1
        res = service.result(subs[0]["id"], timeout=60)
        assert res["attached"] == 4

    def test_spelling_variants_attach_too(self, service):
        a = service.submit({"builder": "ga", "kwargs": {"masses": [1], "seed": 3}})
        b = service.submit({"kwargs": {"seed": 3, "masses": [1.0]}, "builder": "ga"})
        assert a["id"] == b["id"]
        service.result(a["id"], timeout=120)


class TestConcurrentParity:
    def test_n_identical_campaigns_one_solve_bitwise_equal(self, service):
        """The headline dedup guarantee: N concurrent identical
        submissions cost one solve and return byte-identical results."""
        spec = ga_spec(mass=1.0)
        results = [None] * 4

        def client(i):
            sub = service.submit(spec, tenant=f"tenant{i % 2}")
            results[i] = service.result(sub["id"], timeout=120)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert all(r is not None and r["state"] == CampaignState.DONE for r in results)
        # one campaign entry, solved once
        assert len({r["id"] for r in results}) == 1
        stats = service.stats()
        assert stats["campaigns"] == {"done": 1}
        assert stats["dedup_attached"] == 3
        # every client sees the same correlator bytes
        blobs = {
            Path(r["artifact_files"]["assemble:correlators"]).read_bytes()
            for r in results
        }
        assert len(blobs) == 1

    def test_result_bitwise_equals_direct_campaign_run(self, service, tmp_path):
        spec = ga_spec(mass=1.1)
        sub = service.submit(spec)
        res = service.result(sub["id"], timeout=120)
        assert res["state"] == CampaignState.DONE
        served = Path(res["artifact_files"]["assemble:correlators"]).read_bytes()

        graph, canon = build_from_spec(spec)
        rt = CampaignRuntime(
            tmp_path / "direct", CampaignConfig(workers=2, pool="thread"), spec=canon
        )
        out = rt.run(graph)
        assert out.all_done
        direct = rt.store.path("assemble:correlators").read_bytes()
        assert served == direct


class TestContentAddressedCache:
    def test_overlapping_specs_share_upstream_cone(self, service):
        a = service.submit(ga_spec(mass=1.0))
        ra = service.result(a["id"], timeout=120)
        assert ra["cache_hits"] == 0
        b = service.submit(ga_spec(mass=1.2))  # same seed: shares gauge chain
        rb = service.result(b["id"], timeout=120)
        # gauge, gaugefix and smear come straight from the CAS
        assert rb["cache_hits"] >= 3
        assert service.cas.hits >= 3

    def test_fully_cached_campaign_never_touches_the_pool(self, service, tmp_path):
        spec = ga_spec(mass=1.0)
        first = service.submit(spec)
        service.result(first["id"], timeout=120)
        # A second service sharing the same CAS root would hit task-level
        # cache; within one service an identical spec dedups at campaign
        # level instead — verify through a restarted service below.
        service.stop()
        svc2 = CampaignService(
            service.workdir,
            ServiceConfig(workers=2, pool="thread", window=4),
        ).start()
        try:
            sub = svc2.submit(spec)
            # restart recovery registered the finished entry: no re-solve
            assert not sub["created"]
            res = svc2.result(sub["id"], timeout=60)
            assert res["state"] == CampaignState.DONE
            assert res["counts"] == {"done": res["n_tasks"]}
        finally:
            svc2.stop()

    def test_corrupt_cache_entry_is_evicted_not_served(self, service):
        a = service.submit(ga_spec(mass=1.0))
        ra = service.result(a["id"], timeout=120)
        expected = Path(ra["artifact_files"]["assemble:correlators"]).read_bytes()
        # Corrupt every CAS payload. The blobs are hardlinks into the
        # first campaign's store, so this clobbers those files too —
        # which is exactly the scenario: disk damage under a live cache.
        for blob in service.cas.root.glob("*.lq"):
            blob.write_bytes(b"garbage")
        b = service.submit(ga_spec(mass=1.0, max_iter=1999))  # distinct campaign
        rb = service.result(b["id"], timeout=120)
        assert rb["state"] == CampaignState.DONE
        assert service.cas.drops > 0
        # the re-solved correlators still match the pre-corruption run
        assert (
            Path(rb["artifact_files"]["assemble:correlators"]).read_bytes()
            == expected
        )


class TestQuotasAndFairness:
    def test_tenant_max_active_enforced(self, tmp_path):
        svc = CampaignService(
            tmp_path / "svc",
            ServiceConfig(
                workers=2,
                pool="thread",
                window=8,
                tenants=(TenantConfig("capped", max_active=1),),
            ),
        ).start()
        try:
            specs = [sleep_spec(long_s=0.2 + 0.01 * i) for i in range(4)]
            subs = [svc.submit(s, tenant="capped") for s in specs]
            deadline = time.monotonic() + 30
            max_active_seen = 0
            while time.monotonic() < deadline:
                snaps = svc.list_campaigns()
                active = sum(
                    1
                    for s in snaps
                    if s["state"] in (CampaignState.ACTIVE, CampaignState.CANCELLING)
                )
                max_active_seen = max(max_active_seen, active)
                if all(s["state"] == CampaignState.DONE for s in snaps):
                    break
                time.sleep(0.01)
            assert max_active_seen == 1
            for sub in subs:
                assert svc.result(sub["id"], timeout=30)["state"] == CampaignState.DONE
        finally:
            svc.stop()

    def test_window_bounds_concurrently_active_campaigns(self, tmp_path):
        svc = CampaignService(
            tmp_path / "svc",
            ServiceConfig(workers=4, pool="thread", window=2),
        ).start()
        try:
            subs = [
                svc.submit(sleep_spec(long_s=0.15 + 0.01 * i), tenant=f"t{i}")
                for i in range(5)
            ]
            deadline = time.monotonic() + 30
            max_active = 0
            while time.monotonic() < deadline:
                snaps = svc.list_campaigns()
                max_active = max(
                    max_active,
                    sum(1 for s in snaps if s["state"] == CampaignState.ACTIVE),
                )
                if all(s["state"] == CampaignState.DONE for s in snaps):
                    break
                time.sleep(0.01)
            assert 1 <= max_active <= 2
            for sub in subs:
                assert svc.result(sub["id"], timeout=30)["state"] == CampaignState.DONE
        finally:
            svc.stop()


class TestCancelAndResume:
    def test_cancel_queued_campaign(self, tmp_path):
        # window=1 guarantees the second submission is still queued
        svc = CampaignService(
            tmp_path / "svc", ServiceConfig(workers=1, pool="thread", window=1)
        ).start()
        try:
            first = svc.submit(sleep_spec(long_s=0.3))
            second = svc.submit(sleep_spec(long_s=0.31))
            out = svc.cancel(second["id"])
            assert out["state"] == CampaignState.CANCELLED
            assert svc.result(first["id"], timeout=30)["state"] == CampaignState.DONE
        finally:
            svc.stop()

    def test_cancel_unknown_campaign_is_none(self, service):
        assert service.cancel("doesnotexist") is None

    def test_cancel_mid_campaign_resumes_bitwise(self, tmp_path):
        """Cancel while solving, resubmit, and the final correlators are
        byte-identical to an uninterrupted run — the ledger replay plus
        deterministic executors guarantee."""
        spec = ga_spec(mass=1.0)
        svc = CampaignService(
            tmp_path / "svc", ServiceConfig(workers=2, pool="thread", window=2)
        ).start()
        try:
            sub = svc.submit(spec)
            # wait until at least one task has completed, then cancel
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snap = svc.status(sub["id"])
                if snap["counts"].get("done", 0) >= 1:
                    break
                time.sleep(0.005)
            out = svc.cancel(sub["id"])
            assert out["state"] in (
                CampaignState.CANCELLING,
                CampaignState.CANCELLED,
            )
            res = svc.result(sub["id"], timeout=60)
            assert res["state"] == CampaignState.CANCELLED
            done_at_cancel = res["counts"].get("done", 0)
            assert done_at_cancel >= 1

            # resubmission is resume: replays the ledger, reuses work
            sub2 = svc.submit(spec)
            assert sub2["id"] == sub["id"]
            res2 = svc.result(sub2["id"], timeout=120)
            assert res2["state"] == CampaignState.DONE
            assert res2["tasks_reused"] + res2["cache_hits"] >= done_at_cancel
            served = Path(
                res2["artifact_files"]["assemble:correlators"]
            ).read_bytes()
        finally:
            svc.stop()

        graph, canon = build_from_spec(spec)
        rt = CampaignRuntime(
            tmp_path / "direct", CampaignConfig(workers=2, pool="thread"), spec=canon
        )
        rt.run(graph)
        assert served == rt.store.path("assemble:correlators").read_bytes()


class TestFailureIsolation:
    def test_poison_campaign_fails_without_poisoning_neighbors(self, service):
        # A spec whose propagator cannot converge: max_iter=1 at tol=1e-5
        bad = ga_spec(mass=1.0, max_iter=1, checkpoint_every=1000)
        good = sleep_spec()
        sb = service.submit(bad, tenant="a")
        sg = service.submit(good, tenant="b")
        rb = service.result(sb["id"], timeout=120)
        rg = service.result(sg["id"], timeout=60)
        assert rg["state"] == CampaignState.DONE
        assert rb["state"] == CampaignState.FAILED
        assert rb["counts"].get("quarantined", 0) >= 1
        assert rb["error"]


class TestRestartRecovery:
    def test_ledger_of_a_different_graph_is_not_reregistered(self, tmp_path):
        """Restart recovery goes through the same restore as resume: a
        finished ledger whose graph fingerprint is not what the spec
        builds today is left alone, not served (and not a crash)."""
        with CampaignService(tmp_path / "svc", ServiceConfig(workers=1)) as svc:
            sub = svc.submit(sleep_spec())
            res = svc.result(sub["id"], timeout=60)
        ledger = Path(res["workdir"]) / "ledger.jsonl"
        graph, _ = build_from_spec(sleep_spec())
        ledger.write_text(ledger.read_text().replace(graph.fingerprint(), "0" * 16))
        svc2 = CampaignService(tmp_path / "svc", ServiceConfig(workers=1))
        assert svc2.status(sub["id"]) is None

    def test_a_campaign_written_under_an_older_spec_id_is_reregistered(self, tmp_path):
        """A finished campaign whose directory and ledger carry the id of
        an older canonical spec still serves the same spec after a
        restart: a resubmission attaches and runs no task."""
        with CampaignService(tmp_path / "svc", ServiceConfig(workers=1)) as svc:
            sub = svc.submit(sleep_spec())
            res = svc.result(sub["id"], timeout=60)
        old_id = "0" * len(sub["id"])
        workdir = Path(res["workdir"])
        old_dir = workdir.rename(workdir.with_name(old_id))
        for name in ("campaign.json", "ledger.jsonl"):
            f = old_dir / name
            f.write_text(f.read_text().replace(f'"campaign": "{sub["id"]}"', f'"campaign": "{old_id}"'))
        ledger = (old_dir / "ledger.jsonl").read_text()
        assert f'"campaign": "{sub["id"]}"' not in ledger
        with CampaignService(tmp_path / "svc", ServiceConfig(workers=1)) as svc2:
            again = svc2.submit(sleep_spec())
            res2 = svc2.result(again["id"], timeout=60)
            assert not again["created"]
            assert res2["state"] == CampaignState.DONE
            assert res2["counts"] == {"done": res2["n_tasks"]}
            assert svc2.stats()["tenants"]["default"]["tasks_done"] == 0
        assert (old_dir / "ledger.jsonl").read_text() == ledger


class TestWorkerDeath:
    def test_idle_death_is_reported_like_the_runtime(self, service):
        """A worker that dies holding nothing is respawned *and* leaves
        the ``worker_death`` event the single-campaign runtime emits, so
        ``summarize`` counts deaths the same way for service runs."""
        service._pool.dispatch(0, None)  # the shutdown sentinel: worker 0 exits idle
        deadline = time.monotonic() + 30
        events = []
        while time.monotonic() < deadline:
            events = load_events(service.workdir)
            if any(e["ev"] == "worker_spawn" and e.get("respawn") for e in events):
                break
            time.sleep(0.01)
        deaths = [e for e in events if e["ev"] == "worker_death"]
        assert [(e["worker"], e["task"]) for e in deaths] == [(0, None)]
        assert summarize(service.workdir).worker_deaths == 1
        # the slot came back: the pool still serves campaigns
        res = service.result(service.submit(sleep_spec())["id"], timeout=60)
        assert res["state"] == CampaignState.DONE
