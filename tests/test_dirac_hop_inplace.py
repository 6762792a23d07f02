"""``hopping(phi, out=phi)``: the second hop of ``D^H D`` and of the Schur
chain runs in place.  Each RHS tile is copied into the stencil's
workspace before its output tile is written, so the in-place result is
the fresh one bit for bit — serial (full and packed, both dtypes) and on
two thread ranks under every halo schedule (``overlap`` returns a fresh
array: its slab recompute re-reads ``phi``).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.test_dirac_fused import DTYPES, LAYOUTS, MASS, _field, _two_thread_ranks, _wilson


@pytest.mark.parametrize("parity", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dagger", (False, True))
def test_in_place_hop_is_the_fresh_one(dtype, parity, dagger):
    w = _wilson()
    phi = _field(w.kernel, 12, parity, dtype)
    want = w.hopping(phi, parity, dagger=dagger, diag=MASS + 4.0)
    got = w.hopping(phi, parity, dagger=dagger, diag=MASS + 4.0, out=phi)
    assert got.dtype == dtype and np.shares_memory(got, phi)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("policy", ("blocking", "pairwise", "overlap"))
@pytest.mark.parametrize("dtype", DTYPES)
def test_rank_stencil_in_place_hop_equals_serial(policy, dtype):
    dims = (8, 4, 2, 8)
    k = _wilson(dims).kernel
    psi = _field(k, 2, None, dtype)
    want = {"full": k.hopping(psi), **{p: k.hopping(k.pack(psi, p), parity=p) for p in (0, 1)}}

    def run(ctx, sites):
        blk = np.ascontiguousarray(psi[(slice(None),) + sites])
        kp, hop = ctx.stencil.kernel, ctx.stencil.hopping
        got, shared = {}, {}
        for key, phi, parity in [("full", blk, None)] + [(p, kp.pack(blk, p), p) for p in (0, 1)]:
            got[key] = hop(phi, parity, out=phi)
            shared[key] = np.shares_memory(got[key], phi)
        return got, shared

    for r, (_, shared) in enumerate(got := _two_thread_ranks(dims, policy, run)):
        assert all(v == (policy != "overlap") for v in shared.values()), (r, shared)
    for key, full in want.items():
        assert np.array_equal(np.concatenate([g[0][key] for g in got], axis=1), full), key
