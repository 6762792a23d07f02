"""Task executors: the real physics behind every campaign task kind.

These run *inside worker processes*.  Each executor is a pure function
of (params, dependency artifacts on disk) -> (artifacts on disk): no
hidden state, every random draw seeded from params — so any completed
task is bitwise-reproducible no matter which worker ran it, how often it
was retried, or whether a solve resumed from a checkpoint (the
:class:`repro.solvers.cg.CGState` resume is bit-exact).  That determinism
is what lets the campaign-level tests demand bitwise-equal final
correlators across fault-free, fault-injected and ledger-resumed runs.

The physics the executors run is imported here, at module top, and a
process worker imports this module before it takes its first message
(:func:`repro.runtime.worker.worker_main`): the import cost is paid at
boot, off the campaign's critical path.  Only the mode that pulls in a
further subsystem (``distributed``: :mod:`repro.comm`) imports it
locally.  The campaign driver never imports this module — it would pay
the physics' memory for nothing; the artifact store it verifies lives in
:mod:`repro.io.container`.

Task kinds (the paper's Fig. 2 menu):

==================  ======================================================
``make_gauge``      seeded weak-field configuration -> ``links``
``gauge_fix``       Coulomb gauge relaxation -> ``links``
``smear_sources``   12 covariantly smeared point sources -> ``sources``
``propagator``      12-column red-black Wilson CGNE solve -> ``prop``, on
                    ``contractions.SchurColumnStacks`` gathered by
                    ``contractions.collect_columns``: by default
                    (``solver_mode="percolumn"``) checkpointed lock-step
                    stacks, or one 12-stack / block / rank-parallel
``seq_solve``       ``sequential_propagator`` -> ``prop`` (same system and
                    modes, no mid-solve checkpoint)
``contraction``     pion/proton/FH correlators (CPU-cheap) -> ``corr``
``assemble``        gather all correlators into one container
``sleep``/``poison``  scheduling/fault-path test stubs (no physics)
==================  ======================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.contractions import (
    GaussianSmearing,
    Propagator,
    SchurColumnStacks,
    collect_columns,
    column_relres,
    pion_correlator,
    pion_three_point,
    pion_two_point_matrix,
    point_sources,
    proton_correlator,
    sequential_propagator,
)
from repro.dirac.flops import cg_blas_flops_per_site, wilson_dslash_flops_per_site
from repro.dirac.gamma import GAMMA, GAMMA5
from repro.dirac.wilson import WilsonOperator
from repro.io.container import ArtifactStore, FieldFile, verify_artifacts
from repro.lattice import GaugeField, Geometry
from repro.lattice.gaugefix import GaugeFixer
from repro.runtime.builder import SOLVER_MODES
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.faults import FaultSpec
from repro.solvers.blockcg import BlockCG
from repro.solvers.cg import CGState, ConjugateGradient
from repro.utils.rng import make_rng

__all__ = [
    "ExecContext",
    "ArtifactStore",
    "execute_task",
    "verify_artifacts",
    "EXECUTORS",
]


@dataclass
class ExecContext:
    """Everything an executor may touch besides its params."""

    task_id: str
    attempt: int
    store: ArtifactStore
    ckpt: CheckpointManager
    fault: FaultSpec | None = None
    emit: Callable[..., None] = lambda ev, **kw: None
    die: Callable[[], None] = lambda: None  # enact a worker death
    n_checkpoints: int = field(default=0, init=False)

    def checkpoint_saved(self) -> None:
        """Bookkeeping + scripted-fault trigger after each checkpoint.

        The checkpoint hits disk *before* any injected death — that
        ordering is the whole point: the retry finds a complete state.
        """
        self.n_checkpoints += 1
        self.emit(
            "checkpoint_saved", task=self.task_id, n=self.n_checkpoints
        )
        f = self.fault
        if (
            f is not None
            and f.armed(self.attempt)
            and f.kind in ("kill_worker", "corrupt_checkpoint")
            and self.n_checkpoints == f.at_checkpoint
        ):
            if f.kind == "corrupt_checkpoint":
                self.ckpt.corrupt(self.task_id)
            self.emit("fault_injected", task=self.task_id, kind=f.kind)
            self.die()


# -- artifact helpers -------------------------------------------------------


def _save_gauge(ctx: ExecContext, name: str, gauge) -> str:
    ff = FieldFile({"dims": list(gauge.geometry.dims)})
    ff.add("links", gauge.u)
    return ctx.store.save(ctx.task_id, name, ff)


def _load_gauge(ctx: ExecContext, ref: str):
    ff = ctx.store.load(ref)
    dims = tuple(ff.metadata["dims"])
    return GaugeField(Geometry(*dims), ff["links"].reshape((4,) + dims + (3, 3)))


def _save_prop(ctx: ExecContext, name: str, prop) -> str:
    ff = FieldFile({"source": list(prop.source)})
    ff.add("data", prop.data)
    return ctx.store.save(ctx.task_id, name, ff)


def _load_prop(ctx: ExecContext, ref: str):
    ff = ctx.store.load(ref)
    return Propagator(ff["data"], tuple(ff.metadata["source"]))


# -- executors --------------------------------------------------------------


def _exec_make_gauge(params: dict, ctx: ExecContext) -> dict[str, str]:
    geom = Geometry(*params["dims"])
    gauge = GaugeField.random(
        geom, make_rng(int(params["seed"])), scale=float(params.get("scale", 0.35))
    )
    return {"links": _save_gauge(ctx, "links", gauge)}


def _exec_gauge_fix(params: dict, ctx: ExecContext) -> dict[str, str]:
    gauge = _load_gauge(ctx, params["gauge"])
    fixer = GaugeFixer(
        gauge_type=params.get("gauge_type", "coulomb"),
        tol=float(params.get("tol", 1e-4)),
        max_iter=int(params.get("max_iter", 60)),
    )
    fixed = gauge.copy()
    result = fixer.fix(fixed)
    ref = _save_gauge(ctx, "links", fixed)
    ctx.emit(
        "gauge_fixed",
        task=ctx.task_id,
        iterations=result.iterations,
        residual=result.residual,
    )
    return {"links": ref}


def _exec_smear_sources(params: dict, ctx: ExecContext) -> dict[str, str]:
    gauge = _load_gauge(ctx, params["gauge"])
    geom = gauge.geometry
    site = tuple(params.get("site", (0, 0, 0, 0)))
    smear = GaussianSmearing(
        gauge,
        alpha=float(params.get("alpha", 0.25)),
        n_iter=int(params.get("n_iter", 6)),
    )
    # all 12 columns through one smearing pass: the kernel is diagonal in
    # everything between the site axes and colour, so the column index
    # rides there and each column gets the arithmetic of its own call
    columns = np.ascontiguousarray(np.moveaxis(point_sources(geom, site), 0, 4))
    ff = FieldFile({"site": list(site)})
    ff.add("sources", np.moveaxis(smear.apply(columns), 4, 0))
    return {"sources": ctx.store.save(ctx.task_id, "sources", ff)}


_STATE_ARRAYS = ("x", "r", "p", "rsq", "bnorm", "column_iterations")


def _stack_ckpt_save(
    ctx: ExecContext, data: np.ndarray, column: int, stack_shape: tuple, cg_state, totals: dict
) -> None:
    """One atomic file: the finished columns + the in-flight stack's CG state.

    ``column`` is the first column of the stack in flight (every column
    before it is final in ``data``), ``stack_shape`` the shape of a stack
    of the linear system the file was written under, ``cg_state`` the
    stacked mid-solve :class:`repro.solvers.cg.CGState` (None at a stack
    boundary).
    """
    ff = FieldFile(
        {
            "kind": "prop_stack_ckpt",
            "column": column,
            "stack": list(stack_shape),
            "totals": totals,
            "state": cg_state and {"iteration": cg_state.iteration, "flops": cg_state.flops},
        }
    )
    ff.add("data", data)
    if cg_state is not None:
        for name in _STATE_ARRAYS:
            ff.add(f"state_{name}", getattr(cg_state, name))
        ff.add("state_history", np.asarray(cg_state.history, dtype=np.float64))
    ff.save(ctx.ckpt.path_for(ctx.task_id))


def _stack_ckpt_load(ctx: ExecContext, shape: tuple[int, ...], stack_shape: tuple[int, ...]):
    """(partial data, first column of the stack to run, CGState | None, totals).

    None unless the file is a stack checkpoint of *this* task's solve,
    whose stacks have ``stack_shape``: any other kind (the one-column
    ``prop_ckpt`` of earlier versions included), the stacks of another
    width, lattice or linear system (the full-lattice ones written
    before the solve was red-black preconditioned name no ``stack``), or
    a column that is not a stack boundary are ignored whole and the task
    recomputes — a checkpoint is never half-loaded.
    """
    ff = ctx.ckpt.load_fieldfile(ctx.task_id)
    if ff is None or ff.metadata.get("kind") != "prop_stack_ckpt":
        return None
    md = ff.metadata
    column, scalars = int(md["column"]), md["state"]
    if (
        md.get("stack") != list(stack_shape)
        or column % stack_shape[0]
        or not 0 <= column < 12
        or ff["data"].shape != shape
        or (scalars and ff["state_x"].shape != stack_shape)
    ):
        return None
    state = scalars and CGState(
        **{name: ff[f"state_{name}"] for name in _STATE_ARRAYS},
        iteration=int(scalars["iteration"]),
        flops=float(scalars["flops"]),
        history=list(ff["state_history"]),
    )
    return ff["data"], column, state, dict(md["totals"])


def _wilson_solve(params: dict, ctx: ExecContext):
    """``(gauge, operator, solver_mode, solver)`` of a 12-column Wilson
    solve task.

    The system is always the red-black one; ``block`` picks a
    :class:`repro.solvers.blockcg.BlockCG` (one Krylov space shared by
    the 12 columns), every other mode a CG.  The solver charges model
    flops per right-hand side on one formula for every schedule (Table
    I: explicit counts): a normal application is four half-volume Wilson
    hops, and the BLAS-1 of an iteration runs on the even sites a Krylov
    vector occupies.
    """
    gauge = _load_gauge(ctx, params["gauge"])
    mode = str(params.get("solver_mode", "percolumn"))
    volume = gauge.geometry.volume
    solver = (BlockCG if mode == "block" else ConjugateGradient)(
        tol=float(params.get("tol", 1e-8)),
        max_iter=int(params.get("max_iter", 4000)),
        flops_per_matvec=float(2 * volume * wilson_dslash_flops_per_site()),
        blas_flops_per_iter=cg_blas_flops_per_site() * (volume // 2),
    )
    return gauge, WilsonOperator(gauge, mass=float(params["mass"])), mode, solver


def _solve_distributed(params: dict, gauge, sources, tol: float, max_iter: int):
    """The 12-column solve through the rank-parallel decomposition runtime."""
    from repro.comm.transports import dist_solve

    return dist_solve(
        gauge,
        float(params["mass"]),
        sources,
        transport=str(params.get("dist_transport", "threads")),
        ranks=int(params.get("dist_ranks", 2)),
        tol=tol,
        max_iter=max_iter,
        policy=str(params.get("dist_policy", "blocking")),
    )


def _load_sources(params: dict, ctx: ExecContext, geom) -> np.ndarray:
    """The 12 source columns: the ``sources`` artifact, else point sources at ``site``."""
    if params.get("sources"):
        return ctx.store.load(params["sources"])["sources"].reshape((12,) + geom.dims + (4, 3))
    return point_sources(geom, tuple(params.get("site", (0, 0, 0, 0))))


def _exec_propagator(params: dict, ctx: ExecContext) -> dict[str, str]:
    """12-column Wilson CGNE propagator.

    Every mode solves one linear system — the red-black (Schur)
    preconditioned normal equations on checkerboard-packed fields
    (:class:`repro.contractions.propagator.SchurColumnStacks`;
    ``distributed`` is the same chain per rank) — with 12 independent
    Krylov spaces except under ``block``:

    ``percolumn`` (default)
        The fault-tolerant production path: consecutive lock-step stacks
        whose width comes from the workspace budget (6 packed columns at
        4^3 x 8, 1 at 8^3 x 16), so a stencil call serves a whole stack
        and a column's bits are those of its own one-column solve.  The
        stacked CG state of the even-site system is checkpointed every
        ``checkpoint_every`` stacked iterations and at each stack
        boundary, and a retry resumes from it bit-exactly: work at risk
        is at most ``checkpoint_every`` stacked iterations.
    ``batched``
        The same columns as one 12-stack, single shot: the whole stack
        is the workspace and the retry unit.
    ``distributed``
        The 12-stack through the rank-parallel decomposition runtime
        (:func:`repro.comm.transports.dist_solve`) on a collective
        reducer, deterministic for any rank count.  ``dist_ranks``/
        ``dist_policy``/``dist_transport`` (``threads``/``shm``) select
        the decomposition.
    ``block``
        The 12-stack in one true block CGNE (a Krylov space shared by
        the 12 columns).

    Batched/block/distributed modes are single-shot (no mid-solve
    checkpoint); the retry unit is the whole task.  ``solve_done``
    carries the totals of
    :func:`repro.contractions.propagator.collect_columns` — ``iterations``
    the per-column sum under ``percolumn`` (what twelve one-column solves
    count), the stacked count otherwise.
    """
    gauge, wilson, mode, solver = _wilson_solve(params, ctx)
    if mode not in SOLVER_MODES:
        raise ValueError(f"{ctx.task_id}: unknown solver_mode {mode!r}")
    geom = gauge.geometry
    site = tuple(params.get("site", (0, 0, 0, 0)))
    ck_every = int(params.get("checkpoint_every", 0))
    checkpointing = mode == "percolumn" and ck_every > 0
    sources = _load_sources(params, ctx, geom)
    x = np.zeros_like(sources)
    totals = {"iterations": 0, "matvecs": 0, "flops": 0.0, "true_relres": 0.0}

    if mode == "distributed":
        res = _solve_distributed(params, gauge, sources, solver.tol, solver.max_iter)
        # the rank solver charges no model flops and reports the
        # even-site system's residual
        res.flops = (
            res.matvecs * solver.flops_per_matvec + (res.matvecs - 12) * solver.blas_flops_per_iter
        )
        res.final_relres = column_relres(wilson.apply, sources, res.x)
        stacks = [(0, res)]
    else:
        system = SchurColumnStacks(wilson, sources, None if mode == "percolumn" else 12)
        resume = {}
        restored = (
            _stack_ckpt_load(ctx, geom.dims + (4, 4, 3, 3), system.stack_shape)
            if mode == "percolumn" else None
        )
        if restored is not None:
            data, start_col, resume_state, totals = restored
            x = Propagator(data, site).columns()
            resume = dict(start=start_col, state=resume_state)
            ctx.emit(
                "checkpoint_restored",
                task=ctx.task_id,
                column=start_col,
                iteration=0 if resume_state is None else resume_state.iteration,
            )

        def on_checkpoint(lo, st):
            data = Propagator.from_columns(x, site).data
            _stack_ckpt_save(ctx, data, lo, system.stack_shape, st, totals)
            ctx.checkpoint_saved()

        if checkpointing:
            resume.update(checkpoint_every=ck_every, on_checkpoint=on_checkpoint)
        stacks = system.solve(solver, **resume)

    def on_stack(end, res):
        if checkpointing and end < 12:
            # Stack-boundary checkpoint: finished columns never re-solve.
            on_checkpoint(end, None)

    collect_columns(
        stacks, x, totals, percolumn=mode == "percolumn", label=ctx.task_id, on_stack=on_stack
    )
    ref = _save_prop(ctx, "prop", Propagator.from_columns(x, site))
    ctx.ckpt.discard(ctx.task_id)
    ctx.emit("solve_done", task=ctx.task_id, **totals, solver_mode=mode)
    return {"prop": ref}


def _exec_seq_solve(params: dict, ctx: ExecContext) -> dict[str, str]:
    _, wilson, mode, solver = _wilson_solve(params, ctx)
    if mode == "distributed":
        # sequential sink solves stay in-process: the through-the-sink
        # source is built from an already-gathered propagator, so the
        # lock-step batched mode is the closest executable ladder rung
        mode = "batched"
    stats: dict = {}
    seq = sequential_propagator(
        wilson,
        _load_prop(ctx, params["prop"]),
        int(params["t_snk"]),
        solver=solver,
        mode="percolumn" if mode == "percolumn" else "batched",  # "block": the solver's type
        stats=stats,
    )
    ctx.emit("solve_done", task=ctx.task_id, **stats, solver_mode=mode)
    return {"prop": _save_prop(ctx, "prop", seq)}


def _exec_contraction(params: dict, ctx: ExecContext) -> dict[str, str]:
    ff = FieldFile({"label": params.get("label", ctx.task_id)})
    if "prop" in params:
        prop = _load_prop(ctx, params["prop"])
        ff.add("pion", np.asarray(pion_correlator(prop), dtype=np.float64))
        ff.add("proton", np.asarray(proton_correlator(prop, prop)))
    if "prop_a" in params and "prop_b" in params:
        pa = _load_prop(ctx, params["prop_a"])
        pb = _load_prop(ctx, params["prop_b"])
        ff.add("pion_ab", np.asarray(pion_two_point_matrix(pa, pb)))
    if "seq" in params and "prop" in params:
        seq = _load_prop(ctx, params["seq"])
        prop = _load_prop(ctx, params["prop"])
        ff.add(
            "axial_3pt",
            np.asarray(pion_three_point(seq, prop, GAMMA[2] @ GAMMA5)),
        )
    return {"corr": ctx.store.save(ctx.task_id, "corr", ff)}


def _exec_assemble(params: dict, ctx: ExecContext) -> dict[str, str]:
    out = FieldFile({"labels": sorted(params["correlators"])})
    for label in sorted(params["correlators"]):
        src = ctx.store.load(params["correlators"][label])
        for name in src.names():
            out.add(f"{label}/{name}".replace("/", "__"), src[name])
    return {"correlators": ctx.store.save(ctx.task_id, "correlators", out)}


def _exec_sleep(params: dict, ctx: ExecContext) -> dict[str, str]:
    """Pure-duration task for scheduling tests (no physics, no solver)."""
    time.sleep(float(params.get("seconds", 0.01)))
    ff = FieldFile({"slept": float(params.get("seconds", 0.01))})
    ff.add("token", np.asarray([1.0]))
    return {"token": ctx.store.save(ctx.task_id, "token", ff)}


def _exec_poison(params: dict, ctx: ExecContext) -> dict[str, str]:
    raise RuntimeError(params.get("message", "poison task"))


EXECUTORS: dict[str, Callable[[dict, ExecContext], dict[str, str]]] = {
    "make_gauge": _exec_make_gauge,
    "gauge_fix": _exec_gauge_fix,
    "smear_sources": _exec_smear_sources,
    "propagator": _exec_propagator,
    "seq_solve": _exec_seq_solve,
    "contraction": _exec_contraction,
    "assemble": _exec_assemble,
    "sleep": _exec_sleep,
    "poison": _exec_poison,
}


def execute_task(kind: str, params: dict, ctx: ExecContext) -> dict[str, str]:
    """Dispatch to an executor, enacting pre-execution scripted faults."""
    if kind not in EXECUTORS:
        raise ValueError(f"unknown task kind {kind!r}")
    f = ctx.fault
    if f is not None and f.armed(ctx.attempt):
        if f.kind == "stall":
            ctx.emit("fault_injected", task=ctx.task_id, kind="stall")
            time.sleep(f.stall_s)
        elif f.kind == "raise":
            ctx.emit("fault_injected", task=ctx.task_id, kind="raise")
            raise RuntimeError(f"injected fault on {ctx.task_id}")
    return EXECUTORS[kind](params, ctx)

