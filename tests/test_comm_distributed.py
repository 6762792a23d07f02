"""Distributed operators vs serial: exact parity under every knob.

The decomposition runtime must *reproduce*, not approximate: hopping,
Wilson apply, and the Schur ops are required to match the single-process
operators bit for bit on any rank grid and any transport, under the one
halo schedule — *exact on any host*, because the rank stencils keep the serial kernel's
per-site operation chain and no reduction is involved.  The
``transport`` fixture (``tests/conftest.py``) parameterizes the parity
assertions over threads/shm from one source of truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.distributed import (
    DecompRuntime,
    DistributedEvenOddOperator,
    DistributedWilsonOperator,
    RankPlan,
    _RankContext,
)
from repro.comm.shm import ThreadShared
from repro.comm.transports import dist_fieldwise
from repro.dirac.evenodd_wilson import EvenOddWilson
from repro.dirac.wilson import WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng

MASS = 0.12


def _background(dims, seed=21):
    geom = Geometry(*dims)
    gauge = GaugeField.random(geom, make_rng(seed), scale=0.35)
    rng = np.random.default_rng(5)
    shape = (2,) + geom.dims + (4, 3)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return gauge, psi


@pytest.mark.parametrize("dims", [(8, 4, 2, 8), (4, 6, 2, 8)])
@pytest.mark.parametrize("ranks", [2, 4, 8])
def test_hopping_and_apply_bitwise(dims, ranks):
    if dims[0] % ranks:
        pytest.skip(f"{ranks} ranks do not divide Lx={dims[0]}")
    gauge, psi = _background(dims)
    serial = WilsonOperator(gauge, MASS)
    with DistributedWilsonOperator(
        gauge, MASS, ranks=ranks, timeout=60.0
    ) as op:
        assert np.array_equal(op.runtime.hopping(psi), serial.hopping(psi))
        assert np.array_equal(op.apply(psi), serial.apply(psi))


@pytest.mark.parametrize("policy", ["blocking"])
def test_policies_all_bitwise(transport, policy):
    """serial == threads == shm under the one schedule (``blocking``)."""
    gauge, psi = _background((4, 6, 2, 8))
    serial = WilsonOperator(gauge, MASS)
    got = dist_fieldwise("apply", gauge, MASS, psi, transport=transport, ranks=2)
    assert np.array_equal(got, serial.apply(psi))


@pytest.mark.parametrize("ranks", [2, 4, 8])
def test_hopping_parity_across_transports(transport, ranks):
    """One source of truth: the serial operator, every transport/ranks."""
    gauge, psi = _background((8, 4, 2, 8))
    serial = WilsonOperator(gauge, MASS)
    got = dist_fieldwise(
        "hopping", gauge, MASS, psi, transport=transport, ranks=ranks
    )
    assert np.array_equal(got, serial.hopping(psi))


@pytest.mark.parametrize(
    "ranks,policy", [(1, "blocking"), (2, "blocking"), (4, "blocking")]
)
def test_complex64_ops_bitwise(transport, ranks, policy):
    """Precision is a dtype of the one stencil: given complex64 fields the
    rank ops compute and answer in complex64, their halo faces travel in
    it, and — no reduction involved — they equal the serial complex64
    chain on any rank count and transport (exact on any host)."""
    gauge, psi = _background((8, 4, 2, 8))
    psi = psi.astype(np.complex64)
    serial = WilsonOperator(gauge, MASS)
    eo = EvenOddWilson(serial)
    x = eo.restrict(psi, 0)
    knobs = dict(transport=transport, ranks=ranks)
    for op, arg, want in (
        ("apply", psi, serial.apply(psi)),
        ("schur_normal", x, eo.schur_normal_apply(x)),
    ):
        got = dist_fieldwise(op, gauge, MASS, arg, **knobs)
        assert want.dtype == got.dtype == np.complex64, op
        assert np.array_equal(got, want), op


def test_complex64_faces_halve_the_halo_bytes():
    """The exchanger carries ``(shape, dtype)``: a complex64 hop sends
    half the bytes of a complex128 one, in as many rounds and messages."""
    gauge, psi = _background((8, 4, 2, 8))
    with DecompRuntime(gauge, MASS, ranks=2, max_rhs=2) as rt:
        marks = [rt.halo_stats()[0]]
        for field in (psi, psi.astype(np.complex64)):
            rt.hopping(field)
            marks.append(rt.halo_stats()[0])
    double, single = (
        {k: b[k] - a[k] for k in ("rounds", "messages", "bytes_sent")}
        for a, b in zip(marks, marks[1:])
    )
    assert single == {**double, "bytes_sent": double["bytes_sent"] // 2}


@pytest.mark.parametrize("policy", ["blocking"])
def test_ghosts_follow_the_rhs_tile(monkeypatch, policy):
    """The exchange happens once per hopping, for the whole stack; each
    RHS tile of the stencil must then read its own columns of the ghosts.
    Five columns in rank-side tiles of two (2 + 2 + 1), threads transport
    so the ranks see the patched tile size: exact against the serial
    operator, whose own tiling differs."""
    from repro.dirac.kernels import halfspinor

    gauge, _ = _background((8, 4, 2, 8))
    rng = np.random.default_rng(8)
    shape = (5,) + gauge.geometry.dims + (4, 3)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    local_column = psi[0, :4].nbytes  # one column of a 2-rank block
    monkeypatch.setattr(halfspinor, "TILE_BYTES", 2 * local_column)
    serial = WilsonOperator(gauge, MASS)
    got = dist_fieldwise("hopping", gauge, MASS, psi, transport="threads", ranks=2)
    assert np.array_equal(got, serial.hopping(psi))


def test_dist_fieldwise_rejects_unknown_op():
    gauge, psi = _background((4, 6, 2, 8))
    with pytest.raises(ValueError, match="unknown field op"):
        dist_fieldwise("frob", gauge, MASS, psi, transport="threads", ranks=2)


@pytest.mark.parametrize(
    "knob", [{"transport": "mpi"}, {"transport": "loopback"}, {"engine": "compiled"}]
)
def test_one_engine_two_transports(knob):
    """The half-spinor stencil over threads or shm is all there is: any
    other engine or transport is a ``ValueError`` from the driver's
    constructor, before any rank is started."""
    gauge, _ = _background((4, 6, 2, 8))
    with pytest.raises(ValueError, match="unknown"):
        DecompRuntime(gauge, MASS, ranks=2, **knob)


def test_schur_ops_parity_across_transports(transport):
    gauge, psi = _background((4, 6, 2, 8))
    eo = EvenOddWilson(WilsonOperator(gauge, MASS))
    x = eo.restrict(psi, 0)
    for op, want in (
        ("schur", eo.schur_apply(x)),
        ("schur_dagger", eo.schur_dagger_apply(x)),
        ("prepare_rhs", eo.prepare_rhs(psi)),
    ):
        arg = psi if op == "prepare_rhs" else x
        got = dist_fieldwise(op, gauge, MASS, arg, transport=transport, ranks=2)
        assert np.array_equal(got, want), op


def test_evenodd_schur_ops_bitwise():
    gauge, psi = _background((8, 4, 2, 8))
    eo = EvenOddWilson(WilsonOperator(gauge, MASS))
    x = eo.restrict(psi, 0)
    with DistributedEvenOddOperator(
        gauge, MASS, ranks=4, timeout=60.0
    ) as op:
        assert np.array_equal(op.schur_apply(x), eo.schur_apply(x))
        assert np.array_equal(op.schur_dagger_apply(x), eo.schur_dagger_apply(x))
        assert np.array_equal(op.prepare_rhs(psi), eo.prepare_rhs(psi))


def test_ghosts_outlive_the_next_hopping():
    """Regression (transport hazard): mailbox slots are double-buffered
    and only the barrier inside a round orders ranks, so a peer's *next*
    hopping may post while this rank still reads its ghosts.  On a grid
    with two partitioned directions over shared memory, whose mailboxes
    are overwritten in place, five back-to-back ops that hop four times
    each must all come back exact."""
    gauge, psi = _background((4, 4, 2, 4))
    eo = EvenOddWilson(WilsonOperator(gauge, MASS))
    x = eo.restrict(psi, 0)
    want = eo.schur_normal_apply(x)
    with DecompRuntime(gauge, MASS, grid=(2, 2, 1, 1), transport="shm", max_rhs=2) as rt:
        for _ in range(5):
            assert np.array_equal(rt.fieldwise("schur_normal", x), want)


# -- checkerboard-packed Schur fast path ------------------------------------


def _rank0_context(dims, grid):
    gauge = GaugeField.random(Geometry(*dims), make_rng(21), scale=0.35)
    plan = RankPlan.make(dims, MASS, grid=grid, max_rhs=4, timeout=30.0)
    links = plan.block(gauge.fermion_links(antiperiodic_t=True), 0)
    return _RankContext(plan, 0, ThreadShared(plan.spec).make_fabric(0), links)


@pytest.mark.parametrize("dims", [(8, 8, 8, 16), (4, 6, 2, 8)])
def test_cb_packed_path_bitwise(dims):
    """The checkerboard-packed hopping/Schur chain is pure data movement:
    bit-identical to the full-field chain on the nonzero parity."""
    ctx = _rank0_context(dims, (1, 1, 1, 1))
    kernel, full, packed = ctx.stencil.kernel, ctx.eo, ctx.eo_solve
    assert packed is not full  # the solve runs packed
    rng = np.random.default_rng(3)
    shape = (2,) + dims + (4, 3)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for parity in (0, 1):
        xr = full.split(x)[parity]
        # pack/unpack roundtrip is exact
        z = kernel.unpack(kernel.pack(xr, 0), kernel.pack(xr, 1))
        assert np.array_equal(z, xr)
        # hopping lands on the opposite parity, bit-identical
        hp = kernel.hopping(kernel.pack(xr, parity), parity=parity)
        assert np.array_equal(hp, kernel.pack(kernel.hopping(xr), 1 - parity))

    xe = full.split(x)[0]
    assert np.array_equal(
        packed.schur_apply(kernel.pack(xe, 0)), kernel.pack(full.schur_apply(xe), 0)
    )
    assert np.array_equal(
        packed.schur_dagger_apply(kernel.pack(xe, 0)),
        kernel.pack(full.schur_dagger_apply(xe), 0),
    )


# -- failure paths: a rank that raises, a rank that dies ----------------------


@pytest.mark.parametrize("transport", ["threads", "shm"])
def test_rank_side_error_closes_the_runtime(transport):
    """A command every rank fails comes back as one ``RuntimeError``
    carrying each rank's traceback, and leaves the runtime closed.  (The
    reducer refuses a grid that is not a slab along x before any
    collective, so the ranks return at once.)"""
    gauge, psi = _background((4, 4, 2, 4))
    rt = DecompRuntime(gauge, MASS, grid=(1, 2, 1, 1), transport=transport, max_rhs=2)
    with pytest.raises(RuntimeError, match="distributed command failed") as exc:
        rt.solve_cgne(psi)
    for r in (0, 1):
        assert f"rank {r}:" in str(exc.value)
    assert str(exc.value).count("need a slab grid along axis 0") == 2
    with pytest.raises(RuntimeError, match="runtime is closed"):
        rt.hopping(psi)


def test_dead_rank_fails_the_send_and_closes_the_runtime():
    """Regression: a spawned rank that died made the next command raise a
    bare ``BrokenPipeError`` from the *send*, leaving the runtime open,
    the surviving rank running and the arena linked."""
    from multiprocessing.shared_memory import SharedMemory

    gauge, psi = _background((4, 4, 2, 4))
    rt = DecompRuntime(gauge, MASS, ranks=2, transport="shm", max_rhs=2, timeout=2.0)
    try:
        rt.halo_stats()  # returns once every rank is up
        arena = rt._arena.name
        rt._ranks[0].terminate()
        rt._ranks[0].join(timeout=10.0)
        with pytest.raises(RuntimeError, match="channel to rank 0 broke"):
            rt.hopping(psi)
        with pytest.raises(RuntimeError, match="runtime is closed"):
            rt.hopping(psi)
        assert not any(rank.is_alive() for rank in rt._ranks)
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=arena)
    finally:
        rt.close()
