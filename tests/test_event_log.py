"""One event log per campaign: worker facts ride the result report.

What only a worker can see — checkpoint saves and restores, solve
statistics, gauge fixing, injected faults — reaches the driver on the
report it sends anyway and is recorded in the campaign's own
``ledger.jsonl``, just before the ``done`` / ``fail`` of its attempt.
These tests pin that on real solves: a service campaign's stream and
summary carry its own facts, and a killed attempt's facts die with it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.readers import iter_records
from repro.runtime import (
    CampaignConfig,
    CampaignRuntime,
    FaultPlan,
    FaultSpec,
    build_ga_campaign,
    summarize,
)
from repro.service import CampaignService, CampaignState, ServiceConfig

FACTS = {"checkpoint_saved", "checkpoint_restored", "solve_done", "gauge_fixed",
         "fault_injected"}


def test_service_campaign_stream_and_summary_carry_its_facts(tmp_path):
    spec = {"builder": "ga", "kwargs": {
        "dims": [4, 4, 4, 8], "masses": [1.0], "seed": 11, "tol": 1e-5,
        "max_iter": 2000, "include_seq": False, "checkpoint_every": 5}}
    with CampaignService(tmp_path / "svc", ServiceConfig(workers=2, pool="thread")) as svc:
        cid = svc.submit(spec)["id"]
        res = svc.result(cid, timeout=120)
        lines, _, terminal = svc.read_events(cid)
    assert res["state"] == CampaignState.DONE and terminal
    evs = [json.loads(line)["ev"] for line in lines]
    assert {"solve_done", "gauge_fixed", "checkpoint_saved"} <= set(evs)
    assert evs.count("solve_done") == 1  # one mass, no sequential solve
    assert summarize(res["workdir"]).checkpoints >= 1
    # the service's own log is a ledger too: one event file per directory
    root = tmp_path / "svc"
    assert (root / "ledger.jsonl").exists()
    assert not list(root.rglob("telemetry*.jsonl"))
    root_evs = [r["ev"] for r in iter_records(root / "ledger.jsonl")]
    assert root_evs[0] == "service_start" and root_evs[-1] == "service_stop"
    assert not FACTS & set(root_evs)


def test_killed_attempt_facts_die_with_it(tmp_path):
    """``kill_worker:prop_m0:2`` on the thread pool: the killed attempt's
    checkpoint saves and its injected fault never reach the ledger; the
    retry's one ``checkpoint_restored`` precedes the task's ``done``, and
    nothing follows ``campaign_finish``."""
    graph, spec = build_ga_campaign(masses=(0.5,), tol=1e-7, checkpoint_every=10,
                                    include_seq=False)
    rt = CampaignRuntime(
        tmp_path,
        CampaignConfig(workers=2, policy="metaq", pool="thread", backoff_base_s=0.05),
        spec=spec,
    )
    tid, fault = FaultSpec.parse("kill_worker:prop_m0:2")
    res = rt.run(graph, faults=FaultPlan({tid: fault}))
    assert res.all_done and res.worker_deaths == 1 and res.retries == 1

    ledger = list(iter_records(Path(tmp_path) / "ledger.jsonl"))
    mine = [(r["ev"], r.get("attempt")) for r in ledger if r.get("task") == "prop_m0"]
    evs = [ev for ev, _ in mine]
    assert evs.count("checkpoint_restored") == 1
    assert evs.index("checkpoint_restored") < evs.index("done")
    assert "fault_injected" not in evs
    # every fact of prop_m0 belongs to the second attempt: after its start
    second = mine.index(("start", 2))
    assert all(ev not in FACTS for ev, _ in mine[:second])
    assert ledger[-1]["ev"] == "campaign_finish"
    assert not list(Path(tmp_path).glob("telemetry*.jsonl"))
