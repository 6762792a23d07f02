"""SPMD rank program for the MPI transport: ``python -m repro.comm.mpi_worker``.

The driver side (:mod:`repro.comm.mpilaunch`) serializes one *job* —
operator background plus the operation to run — into an ``.npz`` file,
launches this module under the machine's launcher (``mpiexec -n N ...``),
and reads the result ``.npz`` back.  Every rank loads the same job and
runs the rank program every other launcher starts
(:mod:`repro.comm.distributed`): the same ``RankPlan``, the same
``_RankContext`` — over an :class:`~repro.comm.mpifabric.MpiFabric` on
``MPI.COMM_WORLD``, with its own slice of the links — and the same
``rank_command`` dispatch, fed the job's one command instead of a
channel.  Blocks are allgathered, so results are identical on every
rank and rank 0 alone writes the output (atomically: temp file +
rename, so a crashed worker never leaves a torn result for the driver
to misread).

Job fields (all optional except ``op``, ``u``, ``mass``):

``op``
    ``hopping`` / ``apply`` / ``schur`` / ``schur_dagger`` /
    ``schur_normal`` / ``prepare_rhs`` / ``cg`` / ``bench``.
``u``
    The gauge field's ``u`` array ``(4, X, Y, Z, T, 3, 3)``.
``psi``
    Stacked input fields ``(n, X, Y, Z, T, 4, 3)`` (ops except bench).
``policy`` / ``engine`` / ``max_rhs`` / ``timeout`` / ``antiperiodic_t``
    The plan's knobs, as :class:`~repro.comm.distributed.DecompRuntime`'s.
``tol`` / ``max_iter`` / ``reliable`` / ``delta``
    CG controls (op ``cg``).
``repeats`` / ``policies``
    Bench controls (op ``bench``).

``--selftest`` runs built-in parity checks on a tiny lattice (hopping
against the serial operator, one ``cg`` job against its 1-rank answer)
and prints ``MPI-SELFTEST-OK`` from rank 0 — the CI smoke that the
binding, the launcher and the op table work before the suite runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

__all__ = ["main"]


def _scalar(job, key, default=None):
    """A python scalar from an npz entry (0-d arrays unwrap via item)."""
    if key not in getattr(job, "files", job):
        return default
    v = job[key]
    return v.item() if getattr(v, "ndim", 1) == 0 else v


def _make_context(comm, job):
    """This rank's context over ``comm``, on the plan the job describes."""
    from repro.comm.distributed import RankPlan, _RankContext
    from repro.comm.mpifabric import MpiFabric
    from repro.lattice.gauge import GaugeField
    from repro.lattice.geometry import Geometry

    u = np.asarray(job["u"], dtype=np.complex128)
    gauge = GaugeField(Geometry(*u.shape[1:5]), u)
    plan = RankPlan.make(
        gauge.geometry.dims,
        float(_scalar(job, "mass")),
        ranks=comm.Get_size(),
        policy=str(_scalar(job, "policy", "blocking")),
        engine=str(_scalar(job, "engine", "interpreted")),
        max_rhs=int(_scalar(job, "max_rhs", 12)),
        timeout=float(_scalar(job, "timeout", 120.0)),
    )
    links = gauge.fermion_links(antiperiodic_t=bool(_scalar(job, "antiperiodic_t", True)))
    rank = comm.Get_rank()
    fabric = MpiFabric(plan.spec, plan.grid, comm)
    return _RankContext(plan, rank, fabric, plan.block(links, rank))


def _gathered(comm, plan, block: np.ndarray) -> np.ndarray:
    """Every rank's block, assembled (the same global stack everywhere)."""
    return plan.grid.gather(comm.allgather(np.ascontiguousarray(block)), site_axis=1)


def _stats_payload(stats: list) -> dict:
    return {
        "stats_wait_seconds": np.array([s["wait_seconds"] for s in stats]),
        "stats_messages": np.array([s["messages"] for s in stats]),
        "stats_bytes_sent": np.array([s["bytes_sent"] for s in stats]),
        "stats_rounds": np.array([s["rounds"] for s in stats]),
    }


def _pingpong(comm) -> dict:
    """Measured point-to-point latency and bandwidth between ranks 0/1."""
    if comm.Get_size() < 2:
        return {"pingpong_latency_s": np.float64(0.0),
                "pingpong_bandwidth_gbs": np.float64(0.0)}
    rank = comm.Get_rank()
    out = {}
    for label, nbytes, reps in (("latency", 8, 64), ("bandwidth", 1 << 21, 8)):
        buf = np.zeros(nbytes // 8, dtype=np.float64)
        comm.Barrier()
        t0 = time.perf_counter()
        for _ in range(reps):
            if rank == 0:
                comm.Send(buf, dest=1, tag=99)
                comm.Recv(buf, source=1, tag=99)
            elif rank == 1:
                comm.Recv(buf, source=0, tag=99)
                comm.Send(buf, dest=0, tag=99)
        dt = time.perf_counter() - t0
        one_way = dt / reps / 2.0 if rank in (0, 1) else 0.0
        if label == "latency":
            out["pingpong_latency_s"] = np.float64(one_way)
        else:
            bw = nbytes / one_way / 1e9 if one_way > 0 else 0.0
            out["pingpong_bandwidth_gbs"] = np.float64(bw)
    comm.Barrier()
    return out


def _bench(comm, ctx, job) -> dict:
    """Per-schedule halo timings on a stacked hopping workload."""
    from repro.comm.distributed import rank_command
    from repro.comm.exchange import feasible_policies

    plan = ctx.plan
    repeats = int(_scalar(job, "repeats", 3))
    n_rhs = int(_scalar(job, "n_rhs", 4))
    feasible = feasible_policies(plan.grid)
    policies = _scalar(job, "policies", None)
    policies = feasible if policies is None else [str(p) for p in np.atleast_1d(policies)]
    rng = np.random.default_rng(11)
    shape = (n_rhs,) + plan.grid.global_dims + (4, 3)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    local = plan.block(plan.stack(psi), comm.Get_rank())
    ex = ctx.stencil.exchanger

    def hopping() -> np.ndarray:
        """What a driver's ``hopping`` costs: the stencil and the gather."""
        return _gathered(comm, plan, rank_command(ctx, "hopping", local, None)[0])

    rows = {}
    for policy in policies:
        if policy == "overlap" and policy not in feasible:
            continue
        rank_command(ctx, "policy", None, policy)
        hopping()  # warm-up
        wait0 = ex.wait_seconds
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            hopping()
            best = min(best, time.perf_counter() - t0)
        # collective max: the halo wait that actually gates the stencil
        wait = max(comm.allgather((ex.wait_seconds - wait0) / repeats))
        rows[policy] = {"seconds": best, "halo_wait_s": wait}
    bytes_per_round = ex.bytes_sent / ex.rounds if ex.rounds else 0.0
    msgs_per_round = ex.messages / ex.rounds if ex.rounds else 0.0
    payload = {
        "bench_policies": np.array(sorted(rows)),
        "bench_seconds": np.array([rows[p]["seconds"] for p in sorted(rows)]),
        "bench_halo_wait_s": np.array([rows[p]["halo_wait_s"] for p in sorted(rows)]),
        "bench_bytes_per_round": np.float64(bytes_per_round),
        "bench_messages_per_round": np.float64(msgs_per_round),
        "bench_n_rhs": np.int64(n_rhs),
    }
    payload.update(_pingpong(comm))
    return payload


def run_job(comm, job) -> dict:
    """Execute one job collectively; returns the output-npz payload."""
    from repro.comm.distributed import rank_command

    op = str(_scalar(job, "op"))
    ctx = _make_context(comm, job)
    plan = ctx.plan
    if op == "bench":
        payload = _bench(comm, ctx, job)
        payload["n_ranks"] = np.int64(comm.Get_size())
        return payload
    psi = np.asarray(job["psi"])  # plan.stack keeps complex64, else complex128
    args = None
    if op == "cg":
        if psi.ndim < 7:
            raise ValueError("solve_cgne expects a stacked rhs (leading axes)")
        solve = {k: _scalar(job, k) for k in ("tol", "max_iter", "reliable", "delta")}
        args = {k: v for k, v in solve.items() if v is not None}
    block, res = rank_command(ctx, op, plan.block(plan.stack(psi), comm.Get_rank()), args)
    payload = {"result": _gathered(comm, plan, block).reshape(psi.shape)}
    if op == "cg":
        payload.update(
            iterations=np.int64(res.iterations),
            converged=np.asarray(res.converged),
            relres=np.asarray(res.final_relres),
            reliable_updates=np.int64(res.reliable_updates),
            matvecs=np.int64(res.matvecs),
            inner=np.str_(res.inner),
        )
        if res.column_iterations is not None:  # the reliable-update solve records none
            payload["column_iterations"] = res.column_iterations
    payload["n_ranks"] = np.int64(comm.Get_size())
    payload.update(_stats_payload(comm.allgather(rank_command(ctx, "stats", None, None)[1])))
    return payload


def _selftest(comm) -> int:
    """Built-in parity checks, two :func:`run_job` calls: a ``hopping`` job
    == the serial hopping (exact), and a 2-RHS ``cg`` job == the same job
    on one in-process rank — a broken op table or solver wiring fails
    here, in seconds, before the suites start."""
    from repro.comm.mpifabric import LoopbackWorld
    from repro.dirac.wilson import WilsonOperator
    from repro.lattice.gauge import GaugeField
    from repro.lattice.geometry import Geometry
    from repro.utils.rng import make_rng

    n = comm.Get_size()
    geom = Geometry(2 * max(n, 2), 2, 2, 4)
    gauge = GaugeField.random(geom, make_rng(7), scale=0.3)
    rng = np.random.default_rng(9)
    psi = rng.normal(size=(2,) + geom.dims + (4, 3)) + 1j * rng.normal(
        size=(2,) + geom.dims + (4, 3)
    )
    job = {"op": "hopping", "u": gauge.u, "mass": 0.1, "psi": psi, "max_rhs": 2}
    want = WilsonOperator(gauge, mass=0.1).hopping(psi)
    ok = np.array_equal(run_job(comm, job)["result"], want)
    job = {**job, "op": "cg", "tol": 1e-8}
    got, want = run_job(comm, job), run_job(LoopbackWorld(1).comm(0), job)
    ok = ok and bool(np.all(got["converged"]))
    ok = ok and int(got["iterations"]) == int(want["iterations"])
    ok = ok and np.array_equal(got["result"], want["result"])
    all_ok = all(comm.allgather(bool(ok)))
    if comm.Get_rank() == 0:
        print(f"MPI-SELFTEST-{'OK' if all_ok else 'FAIL'} n_ranks={n}", flush=True)
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", help="input job .npz")
    parser.add_argument("--out", help="output result .npz (written by rank 0)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in parity check and exit")
    args = parser.parse_args(argv)
    try:
        from mpi4py import MPI
    except ImportError:
        print(
            "mpi_worker: mpi4py is not installed — this rank program only "
            "runs under an MPI launcher (pip install -e '.[mpi]'); the "
            "loopback transport covers the same fabric in-process",
            file=sys.stderr,
        )
        return 2

    comm = MPI.COMM_WORLD
    if args.selftest:
        return _selftest(comm)
    if not args.job or not args.out:
        parser.error("--job and --out are required (or use --selftest)")
    with np.load(args.job) as job:
        payload = run_job(comm, job)
    if comm.Get_rank() == 0:
        tmp = args.out + f".tmp.{os.getpid()}"
        np.savez(tmp, **payload)
        os.replace(tmp, args.out)
    comm.Barrier()
    return 0


if __name__ == "__main__":
    sys.exit(main())
