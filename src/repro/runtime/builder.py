"""Campaign builders: the paper's workflow as a concrete task graph.

The flagship builder reproduces one g.s. (gauge->spectrum) chain of the
gA campaign at femtoscale: generate a configuration, fix the gauge,
smear sources, solve propagators at several masses (the heavy solves),
run the Feynman-Hellmann sequential solve through the sink, contract,
and assemble every correlator into a single container.  Estimated
durations encode the real heterogeneity the schedulers fight over:
light-mass solves dominate, contractions are CPU-trivial — the exact
duration spread that makes bundle-and-wait waste workers.

Artifact references are baked into task params at build time
(``"task_id:name"`` strings), so workers resolve dependencies straight
from the artifact store with no runtime negotiation.

Builders return ``(graph, spec)`` where ``spec`` is a JSON description
sufficient to rebuild the identical graph — the ledger stores it, and
``repro-campaign resume`` replays it.
"""

from __future__ import annotations

import math

from repro.runtime.tasks import CampaignTask, TaskGraph

__all__ = [
    "SOLVER_MODES",
    "DIST_TRANSPORTS",
    "build_ga_campaign",
    "build_sleep_campaign",
    "build_from_spec",
]

#: How a 12-source task solves its red-black system (``exec_tasks``).
SOLVER_MODES = ("percolumn", "batched", "block", "distributed")
#: :data:`repro.comm.transports.TRANSPORTS`, spelled out so that building
#: (and so admitting) a spec never imports the comm stack into a driver.
DIST_TRANSPORTS = ("threads", "shm")


def build_ga_campaign(
    dims: tuple[int, int, int, int] = (4, 4, 4, 8),
    masses: tuple[float, ...] = (0.35, 0.5),
    seed: int = 7,
    tol: float = 1e-7,
    max_iter: int = 4000,
    checkpoint_every: int = 20,
    include_seq: bool = True,
    t_snk: int | None = None,
    scale: float = 0.35,
    solver_mode: str = "percolumn",
    dist_ranks: int = 2,
    dist_transport: str = "threads",
) -> tuple[TaskGraph, dict]:
    """One configuration's worth of the gA production chain.

    ``solver_mode`` selects per-column / lock-step-batched / true-block
    / rank-parallel distributed solves of the red-black system for all
    12-source tasks; with
    ``solver_mode="distributed"``, ``dist_ranks`` and ``dist_transport``
    (``threads``/``shm``) pick the decomposition and the executed halo
    transport.  An unknown mode or transport, fewer than one rank,
    ``dims`` that are not four even extents >= 2, no mass or a zero or
    non-finite one (negative Wilson masses are physical), a ``tol`` or
    ``scale`` outside ``(0, inf)`` / ``[0, inf)``, ``max_iter < 1`` or a
    ``t_snk`` off the time axis is a ``ValueError`` here, before any task runs.

    The defaults reproduce the historical per-column campaign
    bit-for-bit.
    """
    if solver_mode not in SOLVER_MODES:
        raise ValueError(f"unknown solver_mode {solver_mode!r}; have {SOLVER_MODES}")
    if solver_mode == "distributed" and dist_transport not in DIST_TRANSPORTS:
        raise ValueError(f"unknown dist_transport {dist_transport!r}; have {DIST_TRANSPORTS}")
    if solver_mode == "distributed" and int(dist_ranks) < 1:
        raise ValueError(f"dist_ranks must be >= 1, got {dist_ranks}")
    if len(dims) != 4 or any(int(d) != d or d < 2 or d % 2 for d in dims):
        raise ValueError(f"dims must be four even extents >= 2, got {list(dims)}")
    masses = tuple(float(m) for m in masses)
    if not masses or not all(m != 0.0 and math.isfinite(m) for m in masses):
        raise ValueError(f"masses must be non-empty, non-zero and finite, got {list(masses)}")
    if not (0.0 < tol < math.inf and max_iter >= 1 and 0.0 <= scale < math.inf):
        raise ValueError(f"need finite tol > 0, max_iter >= 1, scale >= 0: {tol}, {max_iter}, {scale}")
    if t_snk is None:
        t_snk = dims[3] // 2
    if not 0 <= t_snk < dims[3]:
        raise ValueError(f"t_snk must be in 0..{dims[3] - 1}, got {t_snk}")
    spec = {
        "builder": "ga",
        "kwargs": {
            "dims": list(dims),
            "masses": list(masses),
            "seed": int(seed),
            "tol": float(tol),
            "max_iter": int(max_iter),
            "checkpoint_every": int(checkpoint_every),
            "include_seq": bool(include_seq),
            "t_snk": int(t_snk),
            "scale": float(scale),
            "solver_mode": str(solver_mode),
        },
    }
    if solver_mode == "distributed":
        # only fingerprint the decomposition knobs when they matter, so
        # historical non-distributed specs keep their fingerprints
        spec["kwargs"]["dist_ranks"] = int(dist_ranks)
        spec["kwargs"]["dist_transport"] = str(dist_transport)

    tasks: list[CampaignTask] = [
        CampaignTask(
            task_id="gauge",
            kind="make_gauge",
            params={"dims": list(dims), "seed": seed, "scale": scale},
            est_seconds=0.5,
            priority=10,
        ),
        CampaignTask(
            task_id="gaugefix",
            kind="gauge_fix",
            params={"gauge": "gauge:links", "gauge_type": "coulomb"},
            deps=("gauge",),
            est_seconds=1.0,
            priority=10,
        ),
        CampaignTask(
            task_id="smear",
            kind="smear_sources",
            params={"gauge": "gaugefix:links"},
            deps=("gaugefix",),
            est_seconds=0.5,
            priority=9,
        ),
    ]

    corr_refs: dict[str, str] = {}
    for i, mass in enumerate(masses):
        tag = f"m{i}"
        prop_id, seq_id, corr_id = f"prop_{tag}", f"seq_{tag}", f"corr_{tag}"
        solve_extra: dict = {}
        if solver_mode != "percolumn":
            solve_extra["solver_mode"] = solver_mode
        if solver_mode == "distributed":
            solve_extra["dist_ranks"] = int(dist_ranks)
            solve_extra["dist_transport"] = str(dist_transport)
        # Lighter quarks condition worse: est scales like 1/|mass|, which
        # is the heterogeneity the schedulers exploit.
        tasks.append(
            CampaignTask(
                task_id=prop_id,
                kind="propagator",
                params={
                    "gauge": "gaugefix:links",
                    "sources": "smear:sources",
                    "mass": mass,
                    "tol": tol,
                    "max_iter": max_iter,
                    "checkpoint_every": checkpoint_every,
                    **solve_extra,
                },
                deps=("gaugefix", "smear"),
                est_seconds=4.0 / abs(mass),
                priority=8,
            )
        )
        if include_seq:
            tasks.append(
                CampaignTask(
                    task_id=seq_id,
                    kind="seq_solve",
                    params={
                        "gauge": "gaugefix:links",
                        "prop": f"{prop_id}:prop",
                        "mass": mass,
                        "t_snk": t_snk,
                        "tol": tol,
                        "max_iter": max_iter,
                        **solve_extra,
                    },
                    deps=("gaugefix", prop_id),
                    est_seconds=4.0 / abs(mass),
                    priority=7,
                )
            )
        corr_params: dict = {"prop": f"{prop_id}:prop", "label": corr_id}
        corr_deps = [prop_id]
        if include_seq:
            corr_params["seq"] = f"{seq_id}:prop"
            corr_deps.append(seq_id)
        tasks.append(
            CampaignTask(
                task_id=corr_id,
                kind="contraction",
                params=corr_params,
                deps=tuple(corr_deps),
                est_seconds=0.1,
                cpu_only=True,
                priority=2,
            )
        )
        corr_refs[corr_id] = f"{corr_id}:corr"

    # Cross-mass two-point matrices: cheap backfill work that only
    # unlocks late — the tail METAQ fills and naive bundling serializes.
    for i in range(len(masses)):
        for j in range(i + 1, len(masses)):
            ti, tj = f"m{i}", f"m{j}"
            cid = f"corr_{ti}{tj}"
            tasks.append(
                CampaignTask(
                    task_id=cid,
                    kind="contraction",
                    params={
                        "prop_a": f"prop_{ti}:prop",
                        "prop_b": f"prop_{tj}:prop",
                        "label": cid,
                    },
                    deps=(f"prop_{ti}", f"prop_{tj}"),
                    est_seconds=0.1,
                    cpu_only=True,
                    priority=1,
                )
            )
            corr_refs[cid] = f"{cid}:corr"

    tasks.append(
        CampaignTask(
            task_id="assemble",
            kind="assemble",
            params={"correlators": corr_refs},
            deps=tuple(sorted(corr_refs)),
            est_seconds=0.1,
            cpu_only=True,
            priority=0,
        )
    )
    return TaskGraph(tasks), spec


def sleep_durations(
    n_long: int, n_short: int, long_s: float, short_s: float
) -> tuple[list[float], list[float]]:
    """The shared duration mix for executed *and* modeled scheduling.

    Long tasks ramp linearly up to ``long_s`` — the within-wave duration
    variance that bundle-and-wait turns into idle workers (a wave lasts
    as long as its slowest member).  Both
    :func:`build_sleep_campaign` and the simulator cross-validation draw
    from here, so the two sides schedule the identical workload.
    """
    longs = [long_s * (i + 1) / n_long for i in range(n_long)]
    shorts = [short_s] * n_short
    return longs, shorts


def build_sleep_campaign(
    n_long: int = 4,
    n_short: int = 12,
    long_s: float = 0.4,
    short_s: float = 0.05,
) -> tuple[TaskGraph, dict]:
    """Pure-duration graph for scheduler tests: no physics, just shape.

    Long tasks are independent; each short task depends on one long task
    round-robin, so backfill can start shorts while other longs run but
    bundle-and-wait cannot.
    """
    spec = {
        "builder": "sleep",
        "kwargs": {
            "n_long": int(n_long),
            "n_short": int(n_short),
            "long_s": float(long_s),
            "short_s": float(short_s),
        },
    }
    longs, shorts = sleep_durations(n_long, n_short, long_s, short_s)
    tasks = [
        CampaignTask(
            task_id=f"long{i}",
            kind="sleep",
            params={"seconds": dur},
            est_seconds=dur,
            priority=5,
        )
        for i, dur in enumerate(longs)
    ]
    tasks += [
        CampaignTask(
            task_id=f"short{i}",
            kind="sleep",
            params={"seconds": dur},
            deps=(f"long{i % n_long}",),
            est_seconds=dur,
            cpu_only=True,
        )
        for i, dur in enumerate(shorts)
    ]
    return TaskGraph(tasks), spec


_BUILDERS = {"ga": build_ga_campaign, "sleep": build_sleep_campaign}


def build_from_spec(spec: dict) -> tuple[TaskGraph, dict]:
    """Rebuild the graph a ledger's ``campaign_start`` record describes."""
    name = spec.get("builder")
    if name not in _BUILDERS:
        raise ValueError(f"unknown campaign builder {name!r}")
    kwargs = dict(spec.get("kwargs", {}))
    # specs written while the builder had a shifted-family task spell "shifts": []
    if kwargs.pop("shifts", None):
        raise ValueError("'shifts' was removed: the shifted-family solve task is gone")
    return _BUILDERS[name](**kwargs)
