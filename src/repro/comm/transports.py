"""One API over every executed distributed transport.

The transport-parameterized parity suites (and the campaign runtime's
``--transport`` plumbing) dispatch through this module so that *one*
code path asserts ``serial == threads == shm == mpi``:

``threads`` / ``shm``
    The in-process :class:`~repro.comm.distributed.DecompRuntime`
    driver (``shm`` is the ``processes`` transport's public name).
``mpi``
    A relaunch of the same rank program under the machine's launcher
    (``mpiexec -n N python -m repro.comm.mpi_worker`` via
    :mod:`repro.comm.mpilaunch`) — real inter-process MPI traffic.
``loopback``
    The MPI rank program (:class:`~repro.comm.mpifabric.MpiRuntime`
    over :class:`~repro.comm.mpifabric.MpiFabric`) run SPMD in threads
    over an in-process :class:`~repro.comm.mpifabric.LoopbackComm` —
    the tier that keeps the MPI fabric logic under test on hosts where
    ``import mpi4py`` fails.

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

    The SPMD harness behind the ``loopback`` transport: every thread is
    one rank of a :class:`~repro.comm.mpifabric.LoopbackWorld`.  Returns
    the per-rank results in rank order; the first rank exception is
    re-raised in the caller.
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


def _in_process(calls, gauge, mass, *, transport, ranks, **runtime):
    """``calls(runtime)`` on an in-process runtime: the ``DecompRuntime``
    driver, or — ``loopback`` — the MPI rank program run SPMD.  Both
    expose the same ``fieldwise``/``solve_cgne`` surface."""
    if transport == "loopback":
        from repro.comm.mpifabric import MpiRuntime

        def rank_program(comm):
            return calls(MpiRuntime(gauge, mass, comm=comm, **runtime))

        return run_loopback_spmd(ranks, rank_program, timeout=runtime["timeout"])[0]
    from repro.comm.distributed import DecompRuntime

    with DecompRuntime(
        gauge, mass, ranks=ranks,
        transport="processes" if transport == "shm" else transport, **runtime,
    ) as rt:
        return calls(rt)


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
    if transport == "mpi":
        from repro.comm.mpilaunch import mpi_fieldwise

        return mpi_fieldwise(
            op, gauge, mass, psi, ranks=ranks, policy=policy, engine=engine,
            timeout=max(timeout, 300.0),
        )
    return _in_process(
        lambda rt: rt.fieldwise(op, psi), gauge, mass, transport=transport,
        ranks=ranks, policy=policy, engine=engine,
        max_rhs=max(1, int(psi.shape[0])), timeout=timeout,
    )


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
    solve = {"tol": tol, "max_iter": max_iter, "reliable": reliable, "delta": delta}
    if transport == "mpi":
        from repro.comm.mpilaunch import mpi_solve_cgne

        return mpi_solve_cgne(
            gauge, mass, b, ranks=ranks, policy=policy, engine=engine,
            timeout=max(timeout, 300.0), **solve,
        )
    return _in_process(
        lambda rt: rt.solve_cgne(b, **solve), gauge, mass, transport=transport,
        ranks=ranks, policy=policy, engine=engine,
        max_rhs=max(1, int(b.shape[0])), timeout=timeout,
    )
