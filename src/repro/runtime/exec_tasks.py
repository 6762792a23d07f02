"""Task executors: the real physics behind every campaign task kind.

These run *inside worker processes*.  Each executor is a pure function
of (params, dependency artifacts on disk) -> (artifacts on disk): no
hidden state, every random draw seeded from params — so any completed
task is bitwise-reproducible no matter which worker ran it, how often it
was retried, or whether a solve resumed from a checkpoint (the
:class:`repro.solvers.cg.CGState` resume is bit-exact).  That determinism
is what lets the campaign-level tests demand bitwise-equal final
correlators across fault-free, fault-injected and ledger-resumed runs.

Task kinds (the paper's Fig. 2 menu):

==================  ======================================================
``make_gauge``      seeded weak-field configuration -> ``links``
``gauge_fix``       Coulomb gauge relaxation -> ``links``
``smear_sources``   12 covariantly smeared point sources -> ``sources``
``eigenbasis``      per-configuration Lanczos low modes of ``D^H D``
                    -> ``eigen`` (shared by every deflated solve below)
``propagator``      12-column Wilson CGNE solve -> ``prop``: by default
                    (``solver_mode="percolumn"``) 12 independent Krylov
                    spaces of the red-black preconditioned system run
                    as checkpointed lock-step column stacks; optionally
                    deflated (``eigen`` param, full operator), or one
                    single-shot 12-stack / block / rank-parallel solve
``seq_solve``       through-the-sink sequential solve -> ``prop`` (same
                    deflation/mode knobs, no mid-solve checkpoint)
``multishift_prop`` one shifted-CG family ``(D^H D + sigma_i)`` per
                    source column -> ``shifted`` (all shifts for the
                    cost of the smallest)
``contraction``     pion/proton/FH correlators (CPU-cheap) -> ``corr``
``assemble``        gather all correlators into one container
``sleep``/``poison``  scheduling/fault-path test stubs (no physics)
==================  ======================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.io.container import FieldFile
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.faults import FaultSpec

__all__ = [
    "ExecContext",
    "ArtifactStore",
    "execute_task",
    "verify_artifacts",
    "EXECUTORS",
]


class ArtifactStore:
    """Flat artifact directory addressed by ``task_id:name`` refs."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, ref: str) -> Path:
        if ":" not in ref:
            raise ValueError(f"artifact ref {ref!r} is not 'task_id:name'")
        task_id, name = ref.split(":", 1)
        return self.root / f"{task_id}.{name}.lq"

    def save(self, task_id: str, name: str, ff: FieldFile) -> str:
        ref = f"{task_id}:{name}"
        ff.save(self.path(ref))
        return ref

    def load(self, ref: str) -> FieldFile:
        return FieldFile.load(self.path(ref))

    def exists(self, ref: str) -> bool:
        return self.path(ref).exists()


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
    from repro.lattice import GaugeField, Geometry

    ff = ctx.store.load(ref)
    dims = tuple(ff.metadata["dims"])
    return GaugeField(Geometry(*dims), ff["links"].reshape((4,) + dims + (3, 3)))


def _save_prop(ctx: ExecContext, name: str, prop) -> str:
    ff = FieldFile({"source": list(prop.source)})
    ff.add("data", prop.data)
    return ctx.store.save(ctx.task_id, name, ff)


def _load_prop(ctx: ExecContext, ref: str):
    from repro.contractions import Propagator

    ff = ctx.store.load(ref)
    return Propagator(ff["data"], tuple(ff.metadata["source"]))


def _load_eigen(ctx: ExecContext, ref: str):
    """Load a persisted eigenbasis artifact (fingerprint-checked)."""
    from repro.solvers.lanczos import load_eigenbasis

    return load_eigenbasis(ctx.store.path(ref))


# -- executors --------------------------------------------------------------


def _exec_make_gauge(params: dict, ctx: ExecContext) -> dict[str, str]:
    from repro.lattice import GaugeField, Geometry
    from repro.utils.rng import make_rng

    geom = Geometry(*params["dims"])
    gauge = GaugeField.random(
        geom, make_rng(int(params["seed"])), scale=float(params.get("scale", 0.35))
    )
    return {"links": _save_gauge(ctx, "links", gauge)}


def _exec_gauge_fix(params: dict, ctx: ExecContext) -> dict[str, str]:
    from repro.lattice.gaugefix import GaugeFixer

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
    from repro.contractions import GaussianSmearing, point_source

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
    columns = np.stack(
        [point_source(geom, site, spin, color) for spin in range(4) for color in range(3)],
        axis=4,
    )
    ff = FieldFile({"site": list(site)})
    ff.add("sources", np.moveaxis(smear.apply(columns), 4, 0))
    return {"sources": ctx.store.save(ctx.task_id, "sources", ff)}


def _exec_eigenbasis(params: dict, ctx: ExecContext) -> dict[str, str]:
    """Per-configuration Lanczos low modes of the normal operator.

    Computed once and cached in the artifact store; every deflated
    propagator / sequential solve downstream shares this basis.  The
    basis is seeded from params, so retries and resumed campaigns
    rebuild the bit-identical basis (its content fingerprint pins the
    deflated solves and their checkpoints to it).
    """
    from repro.dirac.wilson import WilsonOperator
    from repro.solvers.lanczos import lanczos_lowest, save_eigenbasis

    gauge = _load_gauge(ctx, params["gauge"])
    wilson = WilsonOperator(gauge, mass=float(params["mass"]))
    tmpl = np.zeros(gauge.geometry.dims + (4, 3), dtype=np.complex128)
    window = params.get("poly_window")
    eigen = lanczos_lowest(
        wilson.apply_normal,
        tmpl,
        int(params["n_eigen"]),
        n_krylov=int(params["n_krylov"]) if params.get("n_krylov") else None,
        rng=int(params.get("seed", 0)),
        poly_degree=int(params.get("poly_degree", 0)),
        poly_window=(float(window[0]), float(window[1])) if window else None,
    )
    ref = f"{ctx.task_id}:eigen"
    save_eigenbasis(
        eigen,
        ctx.store.path(ref),
        meta={
            "gauge": params["gauge"],
            "mass": float(params["mass"]),
            "poly_degree": int(params.get("poly_degree", 0)),
            "poly_window": [float(w) for w in window] if window else [],
        },
    )
    ctx.emit(
        "eigen_done",
        task=ctx.task_id,
        n_eigen=eigen.n_eigen,
        matvecs=eigen.matvecs,
        fingerprint=eigen.fingerprint,
        lambda_min=float(eigen.eigenvalues[0]),
        lambda_max=float(eigen.eigenvalues[-1]),
    )
    return {"eigen": ref}


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
    from repro.solvers.cg import CGState

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


def _model_flops(volume: int, schur: bool) -> dict:
    """Solver keywords charging model flops per right-hand side, one
    formula for every schedule (Table I: explicit counts): a normal
    application is four half-volume Wilson hops (red-black) or two full
    ones, the BLAS-1 of an iteration runs on the sites a Krylov vector
    occupies."""
    from repro.dirac.flops import cg_blas_flops_per_site, wilson_dslash_flops_per_site

    return dict(
        flops_per_matvec=float(2 * volume * wilson_dslash_flops_per_site()),
        blas_flops_per_iter=cg_blas_flops_per_site() * (volume // 2 if schur else volume),
    )


def _solve_distributed(params: dict, gauge, sources, tol: float, max_iter: int):
    """The 12-column solve through the rank-parallel decomposition runtime."""
    # dist_transport="mpi" is launcher-driven: the whole CG runs inside
    # one rank program (one subprocess per task, not one per operator
    # apply); every other transport is an in-process worker pool
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
        engine=str(params.get("dist_engine", "auto")),
    )


def _exec_propagator(params: dict, ctx: ExecContext) -> dict[str, str]:
    """12-column Wilson CGNE propagator.

    ``percolumn``, ``batched`` and ``distributed`` are three schedules of
    one linear system — the red-black (Schur) preconditioned normal
    equations on checkerboard-packed fields, 12 independent Krylov
    spaces (:class:`repro.contractions.propagator.SchurColumnStacks`;
    ``distributed`` is the same chain per rank):

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
        ``dist_engine``/``dist_policy``/``dist_transport`` select the
        decomposition; the compiled SoA engine is picked automatically
        where numba imports.  ``dist_transport`` accepts ``threads``/
        ``shm``/``loopback`` (in-process) and ``mpi`` (the whole solve
        relaunched under the machine's launcher).
    ``block``
        All 12 columns in one true block CGNE (shared Krylov space) on
        the full operator.

    An optional ``eigen`` artifact ref deflates every solve with the
    per-configuration low-mode basis, in any mode except
    ``distributed`` (the rank-local solver has no deflation hook); the
    basis is of the full ``D^H D``, so a deflated solve keeps the full
    operator.  Batched/block/distributed modes are single-shot (no
    mid-solve checkpoint); the retry unit is the whole task.
    ``solve_done`` reports ``iterations`` as the per-column sum under
    ``percolumn`` (what twelve one-column solves count) and as the
    stacked count otherwise, model ``flops`` on one formula for the three
    schedules (:func:`_model_flops`) and ``true_relres``, the worst
    column's ``|b - D x| / |b|`` on the full operator.
    """
    from functools import partial

    from repro.contractions import (
        Propagator, SchurColumnStacks, column_relres, point_source, solve_column_stacks, stack_width,
    )
    from repro.dirac.wilson import WilsonOperator
    from repro.solvers.blockcg import BlockCG
    from repro.solvers.cg import ConjugateGradient

    gauge = _load_gauge(ctx, params["gauge"])
    geom = gauge.geometry
    wilson = WilsonOperator(gauge, mass=float(params["mass"]))
    site = tuple(params.get("site", (0, 0, 0, 0)))
    tol = float(params.get("tol", 1e-8))
    max_iter = int(params.get("max_iter", 4000))
    mode = str(params.get("solver_mode", "percolumn"))
    ck_every = int(params.get("checkpoint_every", 0))
    eigen = _load_eigen(ctx, params["eigen"]) if params.get("eigen") else None

    if "sources" in params and params["sources"]:
        src_ff = ctx.store.load(params["sources"])
        sources = src_ff["sources"].reshape((12,) + geom.dims + (4, 3))
    else:
        sources = np.stack(
            [
                point_source(geom, site, spin, color)
                for spin in range(4)
                for color in range(3)
            ]
        )

    shape = geom.dims + (4, 4, 3, 3)
    data = np.zeros(shape, dtype=np.complex128)
    totals = {"iterations": 0, "matvecs": 0, "flops": 0.0, "true_relres": 0.0}
    if mode not in ("percolumn", "batched", "block", "distributed"):
        raise ValueError(f"{ctx.task_id}: unknown solver_mode {mode!r}")
    schur = eigen is None and mode != "block"
    checkpointing = mode == "percolumn" and ck_every > 0
    model = _model_flops(geom.volume, schur)
    solver = (BlockCG if mode == "block" else ConjugateGradient)(tol=tol, max_iter=max_iter, **model)

    if mode == "distributed":
        if eigen is not None:
            raise ValueError(
                f"{ctx.task_id}: solver_mode 'distributed' does not support "
                "deflation (drop the eigen ref or use batched/block)"
            )
        res = _solve_distributed(params, gauge, sources, tol, max_iter)
        # the rank solver charges no model flops and reports the
        # even-site system's residual
        res.flops = (
            res.matvecs * model["flops_per_matvec"]
            + (res.matvecs - 12) * model["blas_flops_per_iter"]
        )
        res.final_relres = column_relres(wilson.apply, sources, res.x)
        stacks = [(0, res)]
    else:
        width = None if mode == "percolumn" else 12
        if schur:
            system = SchurColumnStacks(wilson, sources, width)
            solve, stack_shape = system.solve, system.stack_shape
        else:
            # full operator: the basis is of D^H D; BlockCG shares one Krylov space
            solve = partial(
                solve_column_stacks, wilson.apply, wilson.apply_dagger, sources,
                deflation=eigen, width=width,
            )
            stack_shape = (width or stack_width(sources[0].nbytes),) + sources.shape[1:]
        resume = {}
        restored = _stack_ckpt_load(ctx, shape, stack_shape) if mode == "percolumn" else None
        if restored is not None:
            data, start_col, resume_state, totals = restored
            resume = dict(start=start_col, state=resume_state)
            ctx.emit(
                "checkpoint_restored",
                task=ctx.task_id,
                column=start_col,
                iteration=0 if resume_state is None else resume_state.iteration,
            )

        def on_checkpoint(lo, st):
            _stack_ckpt_save(ctx, data, lo, stack_shape, st, totals)
            ctx.checkpoint_saved()

        if checkpointing:
            resume.update(checkpoint_every=ck_every, on_checkpoint=on_checkpoint)
        stacks = solve(solver, **resume)

    for lo, res in stacks:
        if not res.all_converged:
            bad = [lo + i for i in range(res.n_rhs) if not res.converged[i]]
            raise RuntimeError(
                f"{ctx.task_id}: columns {bad} did not converge "
                f"(worst relres {float(np.max(res.final_relres)):.2e})"
            )
        for i in range(res.n_rhs):
            spin, color = divmod(lo + i, 3)
            data[..., :, spin, :, color] = res.x[i]
        totals["iterations"] += (
            int(res.column_iterations.sum()) if mode == "percolumn" else res.iterations
        )
        totals["matvecs"] += res.matvecs
        totals["flops"] += res.flops
        totals["true_relres"] = max(totals["true_relres"], float(res.final_relres.max()))
        if checkpointing and lo + res.n_rhs < 12:
            # Stack-boundary checkpoint: finished columns never re-solve.
            on_checkpoint(lo + res.n_rhs, None)

    prop = Propagator(data, site)
    ref = _save_prop(ctx, "prop", prop)
    ctx.ckpt.discard(ctx.task_id)
    ctx.emit(
        "solve_done",
        task=ctx.task_id,
        **totals,
        solver_mode=mode,
        deflated=eigen is not None,
        inner=res.inner,  # of the last stack: every stack runs the one solver
        reliable_updates=res.reliable_updates,
    )
    return {"prop": ref}


def _exec_seq_solve(params: dict, ctx: ExecContext) -> dict[str, str]:
    from repro.contractions import sequential_propagator
    from repro.dirac.wilson import WilsonOperator
    from repro.solvers.blockcg import BlockCG
    from repro.solvers.cg import ConjugateGradient

    gauge = _load_gauge(ctx, params["gauge"])
    prop = _load_prop(ctx, params["prop"])
    wilson = WilsonOperator(gauge, mass=float(params["mass"]))
    tol = float(params.get("tol", 1e-8))
    max_iter = int(params.get("max_iter", 4000))
    mode = str(params.get("solver_mode", "percolumn"))
    if mode == "distributed":
        # sequential sink solves stay in-process: the through-the-sink
        # source is built from an already-gathered propagator, so the
        # lock-step batched mode is the closest executable ladder rung
        mode = "batched"
    eigen = _load_eigen(ctx, params["eigen"]) if params.get("eigen") else None
    solver = (BlockCG if mode == "block" else ConjugateGradient)(
        tol=tol,
        max_iter=max_iter,
        **_model_flops(gauge.geometry.volume, eigen is None and mode != "block"),
    )
    stats: dict = {}
    seq = sequential_propagator(
        wilson,
        prop,
        int(params["t_snk"]),
        solver=solver,
        deflation=eigen,
        mode=mode,
        stats=stats,
    )
    ctx.emit(
        "solve_done",
        task=ctx.task_id,
        iterations=int(stats.get("iterations", 0)),
        matvecs=int(stats.get("matvecs", 0)),
        flops=float(stats.get("flops", 0.0)),
        true_relres=float(stats.get("true_relres", 0.0)),
        solver_mode=mode,
        deflated=eigen is not None,
    )
    return {"prop": _save_prop(ctx, "prop", seq)}


def _exec_multishift_prop(params: dict, ctx: ExecContext) -> dict[str, str]:
    """Shifted-family propagators via multishift CG.

    For every source column, solves the whole family
    ``(D^H D + sigma_i) y_i = D^H b`` in one Krylov sweep — all shifts
    for (almost) the cost of the smallest, the rational-HMC trick
    applied to the campaign's multi-mass analysis.  Multishift CG
    requires a zero initial guess (shifted residuals must stay collinear
    with the base residual), so this task is the one solver family
    deflation cannot seed; its amortization is the shift axis itself.
    """
    from repro.contractions import point_source
    from repro.dirac.wilson import WilsonOperator
    from repro.solvers.multishift import MultiShiftCG

    gauge = _load_gauge(ctx, params["gauge"])
    geom = gauge.geometry
    wilson = WilsonOperator(gauge, mass=float(params["mass"]))
    shifts = [float(s) for s in params["shifts"]]
    site = tuple(params.get("site", (0, 0, 0, 0)))
    solver = MultiShiftCG(
        tol=float(params.get("tol", 1e-8)),
        max_iter=int(params.get("max_iter", 4000)),
    )

    if "sources" in params and params["sources"]:
        src_ff = ctx.store.load(params["sources"])
        sources = src_ff["sources"].reshape((12,) + geom.dims + (4, 3))
    else:
        sources = np.stack(
            [
                point_source(geom, site, spin, color)
                for spin in range(4)
                for color in range(3)
            ]
        )

    shape = (len(shifts), 12) + geom.dims + (4, 3)
    data = np.zeros(shape, dtype=np.complex128)
    totals = {"iterations": 0, "matvecs": 0, "flops": 0.0}
    for col in range(12):
        rhs = wilson.apply_dagger(sources[col])
        res = solver.solve(wilson.apply_normal, rhs, shifts)
        if not res.converged:
            raise RuntimeError(
                f"{ctx.task_id}: column {col} shifted family did not converge "
                f"(worst relres {max(res.final_relres):.2e})"
            )
        for si in range(len(shifts)):
            data[si, col] = res.solutions[si]
        totals["iterations"] += res.iterations
        totals["matvecs"] += res.matvecs
        totals["flops"] += res.flops

    ff = FieldFile(
        {
            "shifts": shifts,
            "site": list(site),
            "iterations": totals["iterations"],
            "matvecs": totals["matvecs"],
        }
    )
    ff.add("data", data)
    ref = ctx.store.save(ctx.task_id, "shifted", ff)
    ctx.emit(
        "solve_done",
        task=ctx.task_id,
        iterations=totals["iterations"],
        matvecs=totals["matvecs"],
        flops=totals["flops"],
        solver_mode="multishift",
        n_shifts=len(shifts),
    )
    return {"shifted": ref}


def _exec_contraction(params: dict, ctx: ExecContext) -> dict[str, str]:
    from repro.contractions import (
        pion_correlator,
        pion_three_point,
        pion_two_point_matrix,
        proton_correlator,
    )
    from repro.dirac import gamma as g

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
            np.asarray(pion_three_point(seq, prop, g.GAMMA[2] @ g.GAMMA5)),
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
    "eigenbasis": _exec_eigenbasis,
    "propagator": _exec_propagator,
    "seq_solve": _exec_seq_solve,
    "multishift_prop": _exec_multishift_prop,
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


def verify_artifacts(store: ArtifactStore, artifacts: dict[str, str]) -> bool:
    """True when every artifact exists and passes its checksums."""
    for ref in artifacts.values():
        try:
            store.load(ref)
        except (ValueError, KeyError, OSError, FileNotFoundError):
            return False
    return True
