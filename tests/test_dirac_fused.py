"""The fused Wilson application: the adjoint and the diagonal term run
inside the half-spinor stencil's one pass.

``hopping(phi, dagger=True)`` swaps the forward and backward projector
tables, which moves exactly the sign flips of the ``gamma_5`` sandwich,
and ``diag=d`` adds ``d * phi`` in the tile with the rounding of a
separate ``H phi + d * phi``: every identity here is bitwise.  A Wilson
``D psi`` or ``D^H psi`` then allocates its output and nothing else.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from repro.comm.distributed import RankPlan, _RankContext
from repro.comm.shm import ThreadShared
from repro.dirac import WilsonOperator
from repro.dirac.gamma import gamma5_mul
from repro.dirac.kernels import ReferenceKernel
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng
from tests.conftest import random_fermion

MASS = 0.12
DTYPES = (np.complex128, np.complex64)
#: the full layout and the packed one from either parity
LAYOUTS = (None, 0, 1)


def _wilson(dims=(4, 4, 4, 8), seed=21) -> WilsonOperator:
    return WilsonOperator(GaugeField.random(Geometry(*dims), make_rng(seed), scale=0.35), MASS)


def _field(kernel, n, parity, dtype, seed=5) -> np.ndarray:
    """A random ``n``-stack in ``kernel``'s full or packed layout."""
    psi = random_fermion(np.random.default_rng(seed), (n,) + kernel.geometry.dims + (4, 3))
    return (psi if parity is None else kernel.pack(psi, parity)).astype(dtype)


@pytest.mark.parametrize("parity", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_dagger_hop_is_the_gamma5_sandwich(dtype, parity):
    k = _wilson().kernel
    phi = _field(k, 3, parity, dtype)
    got = k.hopping(phi, parity=parity, dagger=True)
    assert got.dtype == dtype
    assert np.array_equal(got, gamma5_mul(k.hopping(gamma5_mul(phi), parity=parity)))


@pytest.mark.parametrize("parity", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_dagger_faces_are_the_sandwiched_faces(dtype, parity):
    """A face is projected, never reconstructed: the swapped tables give
    the faces of ``gamma_5 phi`` with no sign pass on the way out."""
    k = _wilson().kernel
    phi = _field(k, 2, parity, dtype)
    for mu in range(4):
        got = k.faces(phi, mu, parity, dagger=True)
        want = k.faces(gamma5_mul(phi), mu, parity)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[tag], want[tag]) for tag in want), mu


@pytest.mark.parametrize("dtype", DTYPES)
def test_apply_is_hop_plus_diagonal(dtype):
    w = _wilson()
    psi = _field(w.kernel, 2, None, dtype)
    want = w.hopping(psi)
    want += (MASS + 4.0) * psi
    assert np.array_equal(w.apply(psi), want)
    assert np.array_equal(w.apply_dagger(psi), gamma5_mul(w.apply(gamma5_mul(psi))))


@pytest.mark.parametrize("dagger", (False, True))
def test_reference_oracle_composes_the_same_operator(dagger):
    """The oracle takes ``dagger`` / ``diag`` by a sandwich and an add,
    independently of the fused tables: the two agree to rounding."""
    w = _wilson()
    ref = ReferenceKernel(w.u, w.u_dag, w.geometry)
    phi = _field(w.kernel, 2, None, np.complex128)
    got = w.kernel.hopping(phi, dagger=dagger, diag=MASS + 4.0)
    np.testing.assert_allclose(
        got, ref.hopping(phi, dagger=dagger, diag=MASS + 4.0), rtol=1e-12, atol=1e-13
    )


def _two_thread_ranks(dims, policy, fn) -> list:
    """``fn(ctx, site_slices)`` collectively on two thread ranks of an
    x-slab grid, one result per rank."""
    gauge = GaugeField.random(Geometry(*dims), make_rng(21), scale=0.35)
    plan = RankPlan.make(dims, MASS, grid=(2, 1, 1, 1), policy=policy, max_rhs=4, timeout=30.0)
    shared, links = ThreadShared(plan.spec), gauge.fermion_links(antiperiodic_t=True)
    results, errors = [None, None], []

    def entry(r):
        try:
            ctx = _RankContext(plan, r, shared.make_fabric(r), plan.block(links, r))
            results[r] = fn(ctx, plan.grid.site_slices(r))
        except BaseException as e:  # noqa: BLE001 - surfaced below
            errors.append(e)

    threads = [threading.Thread(target=entry, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


@pytest.mark.parametrize("policy", ("blocking", "pairwise", "overlap"))
def test_rank_stencil_dagger_hop_equals_serial(policy):
    """The faces follow ``dagger``: a rank's ``H^H`` (full and packed, and
    the fused ``D^H``) is the serial kernel's, under every schedule."""
    dims = (8, 4, 2, 8)
    w = _wilson(dims)
    k = w.kernel
    psi = _field(k, 2, None, np.complex128)
    packed = {p: k.pack(psi, p) for p in (0, 1)}
    want = {
        "full": k.hopping(psi, dagger=True),
        "D^H": w.apply_dagger(psi),
        **{p: k.hopping(packed[p], parity=p, dagger=True) for p in (0, 1)},
    }

    def run(ctx, sites):
        blk = np.ascontiguousarray(psi[(slice(None),) + sites])
        hop = ctx.stencil.hopping
        kp = ctx.stencil.kernel
        return {
            "full": hop(blk, dagger=True),
            "D^H": hop(blk, dagger=True, diag=MASS + 4.0),
            **{p: hop(kp.pack(blk, p), p, dagger=True) for p in (0, 1)},
        }

    got = _two_thread_ranks(dims, policy, run)
    for key, full in want.items():  # packed blocks splice along x like full ones
        assert np.array_equal(np.concatenate([g[key] for g in got], axis=1), full), key


#: heap a fused application may hold above its output and the kernel's
#: pooled workspace: NumPy's ufunc iteration buffers on strided operands
#: (8192 elements, about 100 KiB read at 4^3x8) and the loop's index tuples
SLACK_BYTES = 256 * 1024


@pytest.mark.parametrize("method", ("apply", "apply_dagger"))
def test_application_allocates_only_its_output(method):
    """``D psi`` / ``D^H psi`` on a 12-stack (4^3x8, one RHS tile): the
    heap peak is the returned field plus the workspace the kernel pools
    on first use.  A separate ``(m+4) psi`` or ``gamma_5`` pass would
    hold one more field (1.2 MB here) and fail this."""
    w = _wilson()
    psi = _field(w.kernel, 12, None, np.complex128)
    tracemalloc.start()
    try:
        out = getattr(w, method)(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == psi.nbytes
    assert peak <= out.nbytes + w.kernel.workspace.nbytes + SLACK_BYTES
