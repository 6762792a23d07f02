"""``repro-campaign``: run, resume and inspect executed campaigns.

Quick start (also in the README)::

    repro-campaign run --workdir /tmp/ga --workers 4 --policy metaq
    repro-campaign status --workdir /tmp/ga
    repro-campaign report --workdir /tmp/ga
    repro-campaign resume --workdir /tmp/ga   # after a crash/interrupt

Faults are injected with ``--fault kind:task_id[:at_checkpoint]``, e.g.
``--fault kill_worker:prop_m0:2`` kills the worker holding ``prop_m0``
right after its second solver checkpoint — the retry resumes from that
checkpoint bit-exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.runtime.builder import (
    DIST_TRANSPORTS,
    SOLVER_MODES,
    build_from_spec,
    build_ga_campaign,
)
from repro.runtime.campaign import CampaignConfig, CampaignRuntime
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.ledger import replay_ledger
from repro.runtime.report import campaign_report, summary_json
from repro.version import __version__

__all__ = ["main"]


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=4)
    p.add_argument(
        "--policy", choices=["naive", "metaq", "mpijm"], default="metaq"
    )
    p.add_argument("--pool", choices=["process", "thread"], default="process")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-task timeout in seconds")
    p.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="KIND:TASK[:AT]",
        help="inject a scripted fault (repeatable); kinds: "
        "kill_worker, corrupt_checkpoint, stall, raise",
    )


def _build_config(args: argparse.Namespace) -> CampaignConfig:
    return CampaignConfig(
        workers=args.workers,
        policy=args.policy,
        pool=args.pool,
        task_timeout_s=args.timeout,
    )


def _fault_plan(args: argparse.Namespace) -> FaultPlan:
    plan = FaultPlan()
    for text in args.fault:
        tid, spec = FaultSpec.parse(text)
        plan.specs[tid] = spec
    return plan


def _print_result(res, rt: CampaignRuntime) -> int:
    s = rt.summarize()
    print(
        f"campaign {'INTERRUPTED' if res.interrupted else 'finished'}: "
        f"{sum(1 for v in res.status.values() if v == 'done')}/{len(res.status)} "
        f"tasks done in {res.makespan:.2f}s "
        f"(idle {s.idle_fraction:.1%}, retries {res.retries}, "
        f"worker deaths {res.worker_deaths}, timeouts {res.timeouts}, "
        f"quarantined {len(res.quarantined)})"
    )
    if res.quarantined:
        print(f"quarantined: {', '.join(res.quarantined)}")
    if res.skipped:
        print(f"skipped (blocked by quarantine): {', '.join(res.skipped)}")
    if res.interrupted:
        print(f"resume with: repro-campaign resume --workdir {rt.workdir}")
        return 2
    return 0 if res.completed else 1


def _cmd_run(args: argparse.Namespace) -> int:
    graph, spec = build_ga_campaign(
        dims=tuple(args.dims),
        masses=tuple(args.masses),
        seed=args.seed,
        scale=args.scale,
        tol=args.tol,
        checkpoint_every=args.checkpoint_every,
        include_seq=not args.no_seq,
        solver_mode=args.solver_mode,
        dist_ranks=args.dist_ranks,
        dist_transport=args.dist_transport,
    )
    rt = CampaignRuntime(args.workdir, _build_config(args), spec=spec)
    res = rt.run(graph, faults=_fault_plan(args))
    return _print_result(res, rt)


def _cmd_resume(args: argparse.Namespace) -> int:
    state = replay_ledger(Path(args.workdir) / "ledger.jsonl")
    if not state.campaign:
        print(f"no ledger found under {args.workdir}", file=sys.stderr)
        return 1
    if state.finished:
        print("campaign already finished; nothing to resume")
        return 0
    spec = state.campaign.get("spec") or {}
    if not spec:
        print("ledger has no builder spec; cannot rebuild the graph",
              file=sys.stderr)
        return 1
    graph, spec = build_from_spec(spec)
    cfg = CampaignConfig(
        workers=args.workers or int(state.campaign.get("workers", 4)),
        policy=args.policy or state.campaign.get("policy", "metaq"),
        pool=args.pool or state.campaign.get("pool", "process"),
        task_timeout_s=args.timeout,
    )
    rt = CampaignRuntime(args.workdir, cfg, spec=spec)
    res = rt.run(graph, resume=True)
    print(f"reused {res.tasks_reused} completed tasks from the ledger")
    return _print_result(res, rt)


def _cmd_status(args: argparse.Namespace) -> int:
    state = replay_ledger(Path(args.workdir) / "ledger.jsonl")
    if not state.events:
        print(f"no ledger found under {args.workdir}", file=sys.stderr)
        return 1
    by_status: dict[str, list[str]] = {}
    for tid, st in sorted(state.status.items()):
        by_status.setdefault(st, []).append(tid)
    print(
        f"{'finished' if state.finished else 'in progress / interrupted'} "
        f"({state.events} ledger events)"
    )
    for st, tids in sorted(by_status.items()):
        print(f"  {st:12s} {len(tids):3d}  {', '.join(tids)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.json:
        print(summary_json(args.workdir))
    else:
        print(campaign_report(args.workdir))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Fault-tolerant executed lattice campaigns "
        "(METAQ-style scheduling of real solves).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="build and run a gA campaign")
    p_run.add_argument("--workdir", required=True)
    _add_run_args(p_run)
    p_run.add_argument("--dims", type=int, nargs=4, default=[4, 4, 4, 8])
    p_run.add_argument("--masses", type=float, nargs="+", default=[0.35, 0.5])
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--scale", type=float, default=0.35,
                       help="gauge-field disorder scale (weak coupling "
                       "~0.05 is the ill-conditioned regime)")
    p_run.add_argument("--tol", type=float, default=1e-7)
    p_run.add_argument("--checkpoint-every", type=int, default=20)
    p_run.add_argument("--no-seq", action="store_true",
                       help="skip the Feynman-Hellmann sequential solves")
    p_run.add_argument("--solver-mode",
                       choices=SOLVER_MODES,
                       default="percolumn",
                       help="how the 12-source solves of the one system, "
                       "red-black (Schur) preconditioned CGNE on "
                       "checkerboard-packed fields, run. percolumn: 12 "
                       "independent Krylov "
                       "spaces as lock-step column stacks sized by the "
                       "solver's workspace budget, checkpointed mid-solve "
                       "(work at risk <= --checkpoint-every stacked "
                       "iterations). batched: the whole 12-stack, single "
                       "shot. distributed: the rank-parallel decomposition "
                       "runtime. "
                       "block: the 12-stack in one true shared-Krylov "
                       "block CG")
    p_run.add_argument("--dist-ranks", type=int, default=2,
                       help="rank count for --solver-mode distributed")
    p_run.add_argument("--dist-transport",
                       choices=DIST_TRANSPORTS,
                       default="threads",
                       help="halo transport for --solver-mode distributed: "
                       "in-process thread fabric or shared-memory worker "
                       "processes")
    p_run.set_defaults(fn=_cmd_run)

    p_res = sub.add_parser("resume", help="resume a campaign from its ledger")
    p_res.add_argument("--workdir", required=True)
    p_res.add_argument("--workers", type=int, default=0,
                       help="override worker count (0 = from ledger)")
    p_res.add_argument("--policy", default="",
                       help="override policy (default: from ledger)")
    p_res.add_argument("--pool", default="",
                       help="override pool kind (default: from ledger)")
    p_res.add_argument("--timeout", type=float, default=300.0)
    p_res.set_defaults(fn=_cmd_resume)

    p_st = sub.add_parser("status", help="summarize the ledger")
    p_st.add_argument("--workdir", required=True)
    p_st.set_defaults(fn=_cmd_status)

    p_rep = sub.add_parser("report", help="full report: outcomes, utilization, faults")
    p_rep.add_argument("--workdir", required=True)
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
