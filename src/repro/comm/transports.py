"""One API over every executed distributed transport.

The transport-parameterized parity suites (and the campaign runtime's
``--transport`` plumbing) dispatch through this module so that *one*
code path asserts ``serial == threads == shm == mpi``:

``threads`` / ``shm`` / ``loopback``
    A :class:`~repro.comm.distributed.DecompRuntime` for the call:
    rank threads, spawned ranks (``shm`` is the ``processes``
    transport's public name), or rank threads whose fabric is
    :class:`~repro.comm.mpifabric.MpiFabric` over an in-process
    :class:`~repro.comm.mpifabric.LoopbackComm` — the tier that keeps
    the MPI fabric logic under test on hosts where ``import mpi4py``
    fails.
``mpi``
    One launch of the same rank program under the machine's launcher
    (``mpiexec -n N python -m repro.comm.mpi_worker`` via
    :func:`repro.comm.mpilaunch.run_mpi_job`) fed the operation as a
    job file — real inter-process MPI traffic.

:func:`transport_available` answers (usable, reason) so suites degrade
to skip-with-reason instead of failing where a transport cannot run.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "TRANSPORTS",
    "transport_available",
    "dist_fieldwise",
    "dist_solve",
    "run_loopback_spmd",
]

#: Every executed transport, in suite-parameterization order.
TRANSPORTS = ("threads", "shm", "loopback", "mpi")


def transport_available(name: str, n_ranks: int = 2) -> tuple[bool, str]:
    """(usable-here, reason-if-not) for one transport name."""
    if name in ("threads", "shm", "loopback"):
        return True, ""
    if name == "mpi":
        from repro.comm.mpilaunch import mpi_transport_available

        return mpi_transport_available(n_ranks)
    return False, f"unknown transport {name!r} (have {TRANSPORTS})"


def run_loopback_spmd(n_ranks: int, fn, timeout: float = 60.0) -> list:
    """Run ``fn(comm)`` on ``n_ranks`` loopback ranks in threads.

    The SPMD harness the suites drive ``mpi_worker.run_job`` and the
    ``LoopbackComm`` primitives with, no ``mpi4py`` needed: every thread
    is one rank of a :class:`~repro.comm.mpifabric.LoopbackWorld`.
    Returns the per-rank results in rank order; the first rank
    exception is re-raised in the caller.
    """
    from repro.comm.mpifabric import LoopbackWorld

    world = LoopbackWorld(n_ranks, timeout=timeout)
    results: list = [None] * n_ranks
    errors: list = []

    def entry(rank: int) -> None:
        try:
            results[rank] = fn(world.comm(rank))
        except BaseException as e:  # noqa: BLE001 - re-raised below
            errors.append((rank, e))

    threads = [
        threading.Thread(target=entry, args=(r,), name=f"loopback-rank{r}")
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout + 30.0)
    if errors:
        # prefer the root cause: a rank that raised outright over a peer
        # that merely timed out waiting for it
        from repro.comm.shm import CommTimeoutError

        ordered = sorted(
            errors, key=lambda re: (isinstance(re[1], CommTimeoutError), re[0])
        )
        rank, err = ordered[0]
        raise RuntimeError(f"loopback rank {rank} failed: {err!r}") from err
    alive = [t.name for t in threads if t.is_alive()]
    if alive:
        raise RuntimeError(f"loopback ranks wedged: {alive}")
    return results


def _mpi_job(gauge, mass, psi, *, ranks, timeout, **job) -> dict:
    """One ``mpi_worker`` job on the stack ``psi``; the result payload."""
    from repro.comm.mpilaunch import run_mpi_job

    job.update(
        u=gauge.u, mass=float(mass), psi=np.ascontiguousarray(psi),
        max_rhs=max(1, int(psi.shape[0])),
    )
    return run_mpi_job(job, n_ranks=ranks, timeout=max(timeout, 300.0))


def _runtime(gauge, mass, psi, **knobs):
    """The in-process runtime one call on the stack ``psi`` needs."""
    from repro.comm.distributed import DecompRuntime

    return DecompRuntime(gauge, mass, max_rhs=max(1, int(psi.shape[0])), **knobs)


def dist_fieldwise(
    op: str,
    gauge,
    mass: float,
    psi: np.ndarray,
    *,
    transport: str,
    ranks: int,
    policy: str = "blocking",
    engine: str = "interpreted",
    timeout: float = 60.0,
) -> np.ndarray:
    """One distributed field operation through the named transport.

    ``op`` is a :data:`repro.comm.distributed.RANK_OPS` code.  The result
    is exact on any host against the serial operator, whatever the
    transport (the parity suites pin this).
    """
    from repro.comm.distributed import RANK_OPS

    if op not in RANK_OPS:
        raise ValueError(f"unknown field op {op!r}; have {sorted(RANK_OPS)}")
    knobs = {"ranks": ranks, "policy": policy, "engine": engine, "timeout": timeout}
    if transport == "mpi":
        return _mpi_job(gauge, mass, psi, op=op, **knobs)["result"].reshape(psi.shape)
    with _runtime(gauge, mass, psi, transport=transport, **knobs) as rt:
        return rt.fieldwise(op, psi)


def dist_solve(
    gauge,
    mass: float,
    b: np.ndarray,
    *,
    transport: str,
    ranks: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    reliable: bool = False,
    delta: float = 0.1,
    policy: str = "blocking",
    engine: str = "interpreted",
    timeout: float = 60.0,
):
    """Distributed batched CGNE/RU-CG through the named transport."""
    from repro.solvers.cg import BatchedSolveResult

    solve = {"tol": tol, "max_iter": max_iter, "reliable": reliable, "delta": delta}
    knobs = {"ranks": ranks, "policy": policy, "engine": engine, "timeout": timeout}
    if transport == "mpi":
        out = _mpi_job(gauge, mass, b, op="cg", **knobs, **solve)
        return BatchedSolveResult(
            x=out["result"].reshape(b.shape),
            converged=out["converged"],
            iterations=int(out["iterations"]),
            final_relres=out["relres"],
            reliable_updates=int(out["reliable_updates"]),
            matvecs=int(out["matvecs"]),
            inner=str(out["inner"]),
            column_iterations=out.get("column_iterations"),  # absent from a reliable-update solve
        )
    with _runtime(gauge, mass, b, transport=transport, **knobs) as rt:
        return rt.solve_cgne(b, **solve)
