"""One driver loop, two configurations.

``CampaignRuntime`` is the one-campaign case of the loop the service
runs over many (``repro.runtime.loop.DriverLoop``): the same campaign
driven either way leaves the same per-task ledger and the same bytes,
the campaign path never loads the service, both configs are checked by
one validation, and an exception that ends the service's loop is
reported rather than leaving campaigns queued forever.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.readers import iter_records
from repro.runtime import CampaignConfig, CampaignRuntime, build_from_spec
from repro.service import CampaignService, CampaignState, ServiceConfig

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _per_task_events(ledger: Path) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for rec in iter_records(ledger):
        if "task" in rec and rec["task"] is not None:
            out.setdefault(rec["task"], []).append(rec["ev"])
    return out


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_a_campaign_run_leaves_the_service_unimported(tmp_path):
    code = (
        "import sys\n"
        "from repro.runtime import CampaignConfig, CampaignRuntime, build_sleep_campaign\n"
        "graph, spec = build_sleep_campaign(n_long=1, n_short=2, long_s=0.01, short_s=0.01)\n"
        f"rt = CampaignRuntime({str(tmp_path)!r}, CampaignConfig(workers=2, pool='thread'), spec)\n"
        "assert rt.run(graph).all_done\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['repro', 'service']))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "config, field, value",
    [
        (ServiceConfig, "window", 0),
        (ServiceConfig, "backoff_factor", 0.5),
        (ServiceConfig, "poll_interval_s", -0.01),
        (ServiceConfig, "aging_rate", -0.05),
        (ServiceConfig, "workers", 0),
        (CampaignConfig, "max_respawns", -1),
        (CampaignConfig, "task_timeout_s", 0),
        (CampaignConfig, "poll_interval_s", -1.0),
        (CampaignConfig, "backoff_base_s", math.nan),
    ],
)
def test_a_config_the_loop_cannot_run_is_refused_at_construction(config, field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        config(**{field: value})


def test_the_edges_of_the_bounds_are_accepted():
    ServiceConfig(window=1, aging_rate=0.0, poll_interval_s=0.0, backoff_factor=1.0)
    CampaignConfig(max_respawns=0, task_timeout_s=math.inf, backoff_base_s=0.0)


def test_an_exception_that_ends_the_loop_fails_every_open_campaign(tmp_path):
    svc = CampaignService(tmp_path / "svc", ServiceConfig(workers=1, pool="thread"))

    def broken_lookup(fp):
        raise RuntimeError("cas lookup broke")

    svc.cas.has = broken_lookup  # the loop's first cache sweep raises
    with svc:
        sub = svc.submit({"builder": "sleep", "kwargs": {"n_long": 1, "n_short": 1}})
        res = svc.result(sub["id"], timeout=30)
        stats = svc.stats()
        # a submission after the loop is gone fails at once, not queued forever
        late = svc.submit({"builder": "sleep", "kwargs": {"n_long": 2, "n_short": 1}})
        late_res = svc.result(late["id"], timeout=3.0)
    assert res["ready"] and res["state"] == CampaignState.FAILED
    assert "cas lookup broke" in res["error"]
    assert stats["error"] == "RuntimeError: cas lookup broke"
    assert late["state"] == late_res["state"] == CampaignState.FAILED
    assert late_res["ready"] and late_res["error"] == stats["error"]
    evs = [r["ev"] for r in iter_records(tmp_path / "svc" / "ledger.jsonl")]
    assert "service_error" in evs


def test_a_naive_wave_fills_every_idle_worker_in_the_service(tmp_path):
    spec = {"builder": "sleep", "kwargs": {"n_long": 2, "n_short": 0, "long_s": 0.2}}
    cfg = ServiceConfig(workers=2, pool="thread", policy="naive")
    with CampaignService(tmp_path / "svc", cfg) as svc:
        res = svc.result(svc.submit(spec)["id"], timeout=30)
    assert res["state"] == CampaignState.DONE
    evs = [r["ev"] for r in iter_records(Path(res["workdir"]) / "ledger.jsonl")]
    assert evs.index("done") > [i for i, ev in enumerate(evs) if ev == "start"][1]


def test_runtime_and_service_give_the_same_ledger_and_bytes(tmp_path):
    spec = {"builder": "ga", "kwargs": {
        "dims": [4, 4, 4, 8], "masses": [1.0], "seed": 11, "tol": 1e-5,
        "max_iter": 2000, "include_seq": False, "checkpoint_every": 5}}
    graph, canonical = build_from_spec(spec)
    rt = CampaignRuntime(
        tmp_path / "direct", CampaignConfig(workers=2, pool="thread", policy="mpijm"), canonical
    )
    assert rt.run(graph).all_done

    with CampaignService(tmp_path / "svc", ServiceConfig(workers=2, pool="thread")) as svc:
        res = svc.result(svc.submit(spec)["id"], timeout=120)
    assert res["state"] == CampaignState.DONE and res["cache_hits"] == 0

    direct = _per_task_events(tmp_path / "direct" / "ledger.jsonl")
    served = _per_task_events(Path(res["workdir"]) / "ledger.jsonl")
    assert direct == served
    assert {"start", "done", "solve_done"} <= {ev for evs in direct.values() for ev in evs}
    key = "assemble:correlators"
    assert _sha256(rt.store.path(key)) == _sha256(res["artifact_files"][key])
