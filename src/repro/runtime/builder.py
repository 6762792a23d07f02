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

from repro.runtime.tasks import CampaignTask, TaskGraph

__all__ = ["build_ga_campaign", "build_sleep_campaign", "build_from_spec"]


def _mass_tag(i: int, mass: float) -> str:
    return f"m{i}"


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
    shifts: tuple[float, ...] = (),
) -> tuple[TaskGraph, dict]:
    """One configuration's worth of the gA production chain.

    ``solver_mode`` selects per-column / lock-step-batched / true-block
    / rank-parallel distributed solves of the red-black system for all
    12-source tasks; with
    ``solver_mode="distributed"``, ``dist_ranks`` and ``dist_transport``
    (``threads``/``shm``/``loopback``/``mpi`` — ``mpi`` relaunches each
    solve under the machine's launcher) pick the decomposition and the
    executed halo transport.  A non-empty ``shifts`` tuple adds one
    ``multishift_prop``
    task on the base mass solving the whole shifted family
    ``(D^H D + sigma_i)`` in one Krylov sweep.

    The defaults reproduce the historical per-column campaign
    bit-for-bit.
    """
    masses = tuple(float(m) for m in masses)
    if t_snk is None:
        t_snk = dims[3] // 2
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
            "shifts": list(float(s) for s in shifts),
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
        tag = _mass_tag(i, mass)
        prop_id, seq_id, corr_id = f"prop_{tag}", f"seq_{tag}", f"corr_{tag}"
        solve_extra: dict = {}
        if solver_mode != "percolumn":
            solve_extra["solver_mode"] = solver_mode
        if solver_mode == "distributed":
            solve_extra["dist_ranks"] = int(dist_ranks)
            solve_extra["dist_transport"] = str(dist_transport)
        # Lighter quarks condition worse: est scales like 1/mass, which
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
                est_seconds=4.0 / mass,
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
                    est_seconds=4.0 / mass,
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
            ti, tj = _mass_tag(i, masses[i]), _mass_tag(j, masses[j])
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

    if shifts:
        # One shifted-family sweep on the base mass: every sigma_i
        # propagator for (almost) the cost of the smallest shift.
        tasks.append(
            CampaignTask(
                task_id="mshift_m0",
                kind="multishift_prop",
                params={
                    "gauge": "gaugefix:links",
                    "sources": "smear:sources",
                    "mass": masses[0],
                    "shifts": [float(s) for s in shifts],
                    "tol": tol,
                    "max_iter": max_iter,
                },
                deps=("gaugefix", "smear"),
                est_seconds=4.0 / masses[0],
                priority=6,
            )
        )

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
    for key in ("dims", "masses", "shifts"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return _BUILDERS[name](**kwargs)
