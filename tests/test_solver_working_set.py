"""A solve holds only what is live.

Heap ceilings, by ``tracemalloc`` after a warm call (the kernel has
pooled its workspace and built its link layouts), on a 12-stack of point
sources at 4^3x8, counted in fields of the stack the solve iterates on.
Each docstring gives the reading before this working set was trimmed
(the old ``ap`` bound through the next operator application, a ``tmp``
axpy buffer, ``D^H`` and the second Schur hop into fresh fields, a
``(m+4) x`` field temporary, stored adjoint links, ...) and after it;
each ceiling sits between the two.  The solves' bits are pinned
elsewhere (``test_solver_regression.py``, the parity suites); these
guard the footprint.
"""

from __future__ import annotations

import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.comm.distributed import RankPlan, _RankContext, rank_main, rank_solve
from repro.comm.shm import ThreadShared
from repro.dirac import WilsonOperator
from repro.dirac.evenodd_wilson import WilsonSchur
from repro.lattice import GaugeField, Geometry
from repro.solvers import ConjugateGradient, ReliableUpdateCG
from repro.solvers.cg import solve_normal_equations_batched
from repro.solvers.precision import SinglePrecision
from repro.utils.rng import make_rng

DIMS = (4, 4, 4, 8)
MASS = 0.3
#: the Python objects around an operator's arrays (a few KiB)
OBJECT_SLACK = 16 * 1024


@pytest.fixture(scope="module")
def gauge():
    return GaugeField.random(Geometry(*DIMS), make_rng(2026), scale=0.3)


@pytest.fixture(scope="module")
def sources():
    b = np.zeros((12,) + DIMS + (4, 3), dtype=np.complex128)
    for sc in range(12):
        b[(sc, 0, 0, 0, 0) + divmod(sc, 3)] = 1.0
    return b


def _peak(fn) -> int:
    """Traced heap peak of ``fn()`` above what was live before it, after
    one untraced warm call."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _packed_system(gauge, sources):
    wilson = WilsonOperator(gauge, mass=MASS)
    eo = WilsonSchur.packed(wilson.kernel, wilson.hopping, wilson.mass)
    return eo, eo.schur_dagger_apply(eo.prepare_rhs(sources))


def _rank(gauge):
    """One thread rank's context: the whole lattice, no partitioned direction."""
    plan = RankPlan.make(DIMS, MASS, grid=(1, 1, 1, 1), max_rhs=12, timeout=30.0)
    links = plan.block(gauge.fermion_links(antiperiodic_t=True), 0)
    return _RankContext(plan, 0, ThreadShared(plan.spec).make_fabric(0), links)


def test_serial_cgne(gauge, sources):
    """Full-operator CGNE (``ga_direct``'s solve): 8.10 fields before,
    5.10 after — ``b``'s normal equations, ``x``, ``r``, ``p`` and one
    ``D^H D p``."""
    wilson = WilsonOperator(gauge, mass=MASS)
    cg = ConjugateGradient(tol=1e-6, max_iter=2000)
    peak = _peak(lambda: solve_normal_equations_batched(wilson.apply, wilson.apply_dagger, sources, cg))
    assert peak <= 5.5 * sources.nbytes, f"{peak / sources.nbytes:.2f} fields"


def test_packed_double_cg(gauge, sources):
    """All-double CG on the packed Schur system: 8.52 packed fields
    before, 5.52 after."""
    eo, rhs = _packed_system(gauge, sources)
    cg = ConjugateGradient(tol=1e-6, max_iter=2000)
    peak = _peak(lambda: cg._run(eo.schur_normal_apply, rhs))
    assert peak <= 6.0 * rhs.nbytes, f"{peak / rhs.nbytes:.2f} packed fields"


def test_packed_rucg_single_inner_loop(gauge, sources):
    """The double-single cycle, one complex64 inner loop and one refresh
    (tol 1e-3 at ``rank_solve``'s delta): 5.77 packed fields before, 3.77
    after — ``r_true`` is freed while the cycle runs and its updates go
    through ``ap``."""
    eo, rhs = _packed_system(gauge, sources)
    delta = float(np.sqrt(SinglePrecision().epsilon()))
    solver = ReliableUpdateCG(SinglePrecision(), tol=1e-3, delta=delta)
    assert solver._run(eo.schur_normal_apply, rhs).reliable_updates == 1
    peak = _peak(lambda: solver._run(eo.schur_normal_apply, rhs))
    assert peak <= 4.25 * rhs.nbytes, f"{peak / rhs.nbytes:.2f} packed fields"


def test_rank_solve_on_one_thread_rank(gauge, sources):
    """``rank_solve`` (prepare, double-single solve, residual,
    reconstruct): 4.01 full fields before, 2.89 after."""
    ctx = _rank(gauge)
    peak = _peak(lambda: rank_solve(ctx, sources, tol=1e-6))
    assert peak <= 3.25 * sources.nbytes, f"{peak / sources.nbytes:.2f} full fields"


def test_fresh_operator_holds_its_links_once_per_layout(gauge):
    """A fresh ``WilsonOperator`` holds ``u`` and one double full-layout
    block of ``-U/2`` and ``-U^H/2`` planes: 3.01 ``u.nbytes`` after,
    4.09 while it also stored ``u_dag`` and built the planes per
    component."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        wilson = WilsonOperator(gauge, mass=MASS)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 3 * wilson.u.nbytes + OBJECT_SLACK, f"{held / wilson.u.nbytes:.2f} u.nbytes"


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value)


def test_packed_solve_builds_no_full_layout(gauge, sources):
    """A rank that runs only packed solves holds its links and the packed
    blocks: no array over the full local site box beside ``u`` itself
    (before, the full-lattice ``-U/2`` / ``-U^H/2`` planes and ``u_dag``
    were built with the kernel)."""
    ctx = _rank(gauge)
    rank_solve(ctx, sources[:2], tol=1e-6)
    kernel = ctx.stencil.kernel
    held = [a for name, v in vars(kernel).items() if name not in ("u", "workspace") for a in _arrays(v)]
    assert held, "the packed layouts are held by the kernel"
    full = [a.shape for a in held if any(a.shape[i : i + 4] == DIMS for i in range(a.ndim))]
    assert not full, full


class _OneReplyChannel:
    """Feeds ``rank_main`` two ``apply`` commands and ``stop``; keeps
    only a weak reference to each reply's field, and reads, while handing
    over the next command, whether the previous reply is still alive."""

    def __init__(self, field):
        self.commands = [("apply", field, None), ("apply", field, None), ("stop", None, None)]
        self.replies, self.alive_at_recv = [], []

    def recv(self):
        if self.replies:
            self.alive_at_recv.append(self.replies[-1]() is not None)
        return self.commands.pop(0)

    def send(self, msg):
        status, field, meta = msg
        assert status == "ok", meta
        self.replies.append(weakref.ref(field))


def test_a_rank_drops_its_last_reply(gauge, sources):
    """Between two commands the rank holds nothing of the first reply:
    before, ``reply`` stayed bound (with a solve's ``x`` block) until the
    next command had finished."""
    plan = RankPlan.make(DIMS, MASS, grid=(1, 1, 1, 1), max_rhs=12, timeout=30.0)
    links = plan.block(gauge.fermion_links(antiperiodic_t=True), 0)
    chan = _OneReplyChannel(sources[:2].copy())
    rank = threading.Thread(
        target=rank_main, args=(plan, 0, ThreadShared(plan.spec).make_fabric(0), links, chan)
    )
    rank.start()
    rank.join(timeout=30.0)
    assert not rank.is_alive()
    assert chan.alive_at_recv == [False, False]


def test_a_rank_loads_no_rng():
    """The rank program imports no ``numpy.random`` (nor ``secrets``
    through it): a dataclass default evaluated at import time used to
    pull it into every rank, worker and driver."""
    import subprocess
    import sys

    code = "import sys, repro.comm.distributed; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
