"""Campaign reporting and executed-vs-modeled cross-validation.

Two consumers:

* ``repro-campaign report <workdir>`` renders one executed campaign —
  task outcomes, worker utilization, fault and checkpoint counters, all
  read from its ledger.
* ``repro-report --section campaign`` runs the cross-validation: the
  same heterogeneous task mix is executed on a real worker pool under
  the naive and METAQ policies *and*, the same policy objects, on the
  simulator's virtual clock (:class:`repro.cluster.Dispatch`), then the
  two idle-fraction rankings are compared.  The Section V claim —
  bundling wastes workers, backfilling recovers them — holds only once
  real processes on real clocks reproduce the modeled ordering.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.runtime.ledger import replay_ledger
from repro.runtime.telemetry import summarize

__all__ = [
    "campaign_report",
    "run_policy_comparison",
    "modeled_policy_comparison",
    "crossvalidate_scheduling",
    "campaign_section",
]


def campaign_report(workdir: str | Path) -> str:
    """Human-readable roll-up of one executed campaign directory."""
    from repro.utils.tables import format_table

    workdir = Path(workdir)
    state = replay_ledger(workdir / "ledger.jsonl")
    s = summarize(workdir)

    lines = [f"Campaign at {workdir}"]
    if state.campaign:
        lines.append(
            "  policy={policy} workers={workers} pool={pool} "
            "fingerprint={fingerprint} resume={resume}".format(
                **{
                    k: state.campaign.get(k, "?")
                    for k in ("policy", "workers", "pool", "fingerprint", "resume")
                }
            )
        )
    lines.append(
        f"  finished={state.finished} makespan={s.makespan:.2f}s "
        f"idle_fraction={s.idle_fraction:.1%}"
    )
    lines.append(
        f"  tasks done={s.tasks_done} failed_attempts={s.tasks_failed} "
        f"retries={s.retries} quarantined={s.quarantined}"
    )
    lines.append(
        f"  checkpoints={s.checkpoints} worker_deaths={s.worker_deaths} "
        f"timeouts={s.timeouts}"
    )

    rows = [
        (tid, st, state.attempts.get(tid, 0), len(state.artifacts.get(tid, {})))
        for tid, st in sorted(state.status.items())
    ]
    table = format_table(
        ["task", "status", "attempts", "artifacts"], rows, title="Task outcomes"
    )

    util_rows = [
        (f"w{w}", f"{s.busy_seconds.get(w, 0.0):.2f}", f"{u:.1%}")
        for w, u in sorted(s.utilization.items())
    ]
    util = format_table(
        ["worker", "busy s", "utilization"], util_rows, title="Worker utilization"
    )
    return "\n".join(lines) + "\n\n" + table + "\n\n" + util


def run_policy_comparison(
    workdir_root: str | Path,
    policies: tuple[str, ...] = ("naive", "metaq"),
    workers: int = 4,
    pool: str = "thread",
    **builder_kwargs: Any,
) -> dict[str, dict[str, float]]:
    """Execute the same sleep-task campaign under each policy.

    Returns per-policy ``{"makespan": ..., "idle_fraction": ...}`` from
    the executed ledger.  Thread pool by default: the tasks are pure sleeps,
    so process spawn cost would swamp the scheduling signal.
    """
    from repro.runtime.builder import build_sleep_campaign
    from repro.runtime.campaign import CampaignConfig, CampaignRuntime

    out: dict[str, dict[str, float]] = {}
    for policy in policies:
        wd = Path(workdir_root) / f"policy-{policy}"
        graph, spec = build_sleep_campaign(**builder_kwargs)
        rt = CampaignRuntime(
            wd,
            CampaignConfig(workers=workers, policy=policy, pool=pool),
            spec=spec,
        )
        res = rt.run(graph)
        if not res.all_done:
            raise RuntimeError(f"policy {policy}: campaign did not complete")
        s = summarize(wd)
        out[policy] = {
            "makespan": res.makespan,
            "idle_fraction": s.idle_fraction,
            "tasks_done": float(s.tasks_done),
        }
    return out


def modeled_policy_comparison(
    workers: int = 4,
    n_long: int = 4,
    n_short: int = 12,
    long_s: float = 0.4,
    short_s: float = 0.05,
    seed: int = 11,
) -> dict[str, dict[str, float]]:
    """The same duration mix and the same policy objects, on the virtual
    clock of the event simulator."""
    from functools import partial

    from repro.cluster import ClusterSim, Dispatch, Task, first_fit
    from repro.runtime.builder import sleep_durations
    from repro.runtime.policies import POLICIES

    long_durs, short_durs = sleep_durations(n_long, n_short, long_s, short_s)
    mix = [
        Task(name=f"t{i}", n_nodes=1, gpus_per_node=1, cpus_per_node=1, work=dur)
        for i, dur in enumerate(long_durs + short_durs)
    ]
    out: dict[str, dict[str, float]] = {}
    for policy in ("naive", "metaq"):
        sim = ClusterSim(workers, gpus_per_node=1, cpus_per_node=1, rng=seed)
        makespan = Dispatch(sim, POLICIES[policy], partial(first_fit, sim)).run(mix)
        out[policy] = {
            "makespan": makespan,
            "idle_fraction": 1.0 - sim.gpu_utilization(makespan),
        }
    return out


def crossvalidate_scheduling(
    workdir_root: str | Path,
    workers: int = 4,
    n_long: int = 4,
    n_short: int = 12,
    long_s: float = 0.4,
    short_s: float = 0.05,
) -> dict[str, Any]:
    """Executed and modeled naive-vs-METAQ comparison, plus the verdict.

    ``rankings_agree`` is the cross-validation claim: both the simulator
    and the real worker pool must find METAQ's idle fraction *and*
    makespan strictly better than naive bundling on this task mix.
    """
    executed = run_policy_comparison(
        workdir_root,
        workers=workers,
        n_long=n_long,
        n_short=n_short,
        long_s=long_s,
        short_s=short_s,
    )
    modeled = modeled_policy_comparison(
        workers=workers,
        n_long=n_long,
        n_short=n_short,
        long_s=long_s,
        short_s=short_s,
    )

    def better(d: dict[str, dict[str, float]]) -> bool:
        return (
            d["metaq"]["makespan"] < d["naive"]["makespan"]
            and d["metaq"]["idle_fraction"] < d["naive"]["idle_fraction"]
        )

    return {
        "executed": executed,
        "modeled": modeled,
        "rankings_agree": better(executed) and better(modeled),
    }


def campaign_section() -> str:
    """``repro-report --section campaign``: the cross-validation table."""
    import tempfile

    from repro.utils.tables import format_table

    with tempfile.TemporaryDirectory(prefix="repro-campaign-xval-") as tmp:
        xv = crossvalidate_scheduling(tmp)

    rows = []
    for policy in ("naive", "metaq"):
        rows.append(
            (
                policy,
                f"{xv['executed'][policy]['makespan']:.2f}",
                f"{xv['executed'][policy]['idle_fraction']:.1%}",
                f"{xv['modeled'][policy]['makespan']:.2f}",
                f"{xv['modeled'][policy]['idle_fraction']:.1%}",
            )
        )
    table = format_table(
        ["policy", "exec makespan s", "exec idle", "model makespan s", "model idle"],
        rows,
        title="Executed vs modeled scheduling (4 workers, mixed-duration tasks)",
    )
    verdict = (
        "rankings agree: METAQ backfilling beats naive bundling in both"
        if xv["rankings_agree"]
        else "WARNING: executed and modeled rankings disagree"
    )
    return table + "\n" + verdict


def summary_json(workdir: str | Path) -> str:
    """Machine-readable campaign summary (used by ``--json``)."""
    s = summarize(workdir)
    state = replay_ledger(Path(workdir) / "ledger.jsonl")
    return json.dumps(
        {
            "telemetry": s.to_json(),
            "finished": state.finished,
            "status": state.status,
            "attempts": state.attempts,
        },
        indent=2,
        sort_keys=True,
    )
