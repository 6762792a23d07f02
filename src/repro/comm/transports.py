"""One API over every executed distributed transport.

The transport-parameterized parity suites (and the campaign runtime's
``--dist-transport`` plumbing) dispatch through this module so that
*one* code path asserts ``serial == threads == shm``: each call stands
up a :class:`~repro.comm.distributed.DecompRuntime` for its operation —
rank threads (``threads``) or spawned ranks over shared memory (``shm``,
the ``processes`` transport's public name).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TRANSPORTS",
    "dist_fieldwise",
    "dist_solve",
]

#: Every executed transport, in suite-parameterization order.
TRANSPORTS = ("threads", "shm")


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
    with _runtime(gauge, mass, psi, transport=transport, ranks=ranks, timeout=timeout) as rt:
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
    timeout: float = 60.0,
):
    """Distributed batched CGNE/RU-CG through the named transport."""
    with _runtime(gauge, mass, b, transport=transport, ranks=ranks, timeout=timeout) as rt:
        return rt.solve_cgne(b, tol=tol, max_iter=max_iter, reliable=reliable, delta=delta)
