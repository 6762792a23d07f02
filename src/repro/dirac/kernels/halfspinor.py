"""Half-spinor (spin-projected) dslash backend.

QUDA's key flop optimization (Section IV): the hopping projectors
``(1 -+ gamma_mu)`` have rank two, so in the DeGrand-Rossi chiral basis —
where every ``gamma_mu`` is block off-diagonal — each projected spinor is
fully described by its upper two spin components:

``P psi = [[1, A], [R, RA]] psi``,  ``h = psi_upper + A psi_lower``,
``P psi = (h, R h)``  with  ``R A = 1``  (from ``gamma_mu^2 = 1``).

The expensive SU(3) color multiply then runs on the *half* field ``h``
(two spin components instead of four — half the color-multiply flops and
half the neighbour-exchange traffic), and the full spinor is
reconstructed afterwards by the trivial row map ``R``.  Both ``A`` and
``R`` have a single ``+-1``/``+-i`` entry per row, so projection and
reconstruction are pure slicing plus scaled adds: no 4x4 spin einsum
appears anywhere in this backend.

The 3x3 color multiply is unrolled into nine broadcast
multiply-accumulates over contiguous per-component link planes, which
sidesteps the per-site small-matrix overhead of ``einsum``/``matmul``.

Workspace layout (QUDA's field order, Section IV): :meth:`HalfSpinorKernel.
hopping` runs the primitives on buffers whose *memory* is component-major
``(spin, colour, rhs, x, y, z, t)`` but whose *shape*, as the primitives
see it, is the usual ``(rhs, x, y, z, t, spin, colour)`` — one transposing
copy in, one out, and every ``[..., s, :]`` / ``[..., c]`` slice in between
is a contiguous plane instead of a stride-12 / stride-3 gather.  The
per-element operation chain does not depend on the layout, so the result
is bitwise the one the array-of-structures path gives (the distributed
stencils still run the same primitives on array-of-structures buffers).
The RHS axis is processed in tiles of :data:`TILE_BYTES` of fermion field,
so the workspace is bounded independently of the stack width, and
steady-state applications allocate only the returned output field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dirac import gamma as g
from repro.dirac.kernels.base import DslashKernel, roll_into
from repro.dirac.kernels.registry import register_backend

__all__ = ["HalfSpinorKernel"]

#: Bytes of fermion field per RHS tile of the stencil workspace (1.125 MiB:
#: 12 columns at 4^3x8, one at 8^3x16) — with the half-field scratch and
#: the link planes the tile's working set is about the 4 MiB of one L2.
TILE_BYTES = 12 * (512 * 12 * 16)


@dataclass(frozen=True)
class _Proj:
    """Half-spinor form of one hopping projector ``1 + sign*gamma_mu``.

    ``h[s] = psi[s] + acoef[s] * psi[lower][s]`` (projection) and
    ``out[2 + s] = rcoef[s] * h[rsel][s]`` (reconstruction), with
    ``lower``/``rsel`` spin-axis slices (possibly order-reversing views —
    never copies).
    """

    lower: slice
    acoef: np.ndarray
    rsel: slice
    rcoef: np.ndarray


def _build_tables() -> tuple[tuple[_Proj, ...], tuple[_Proj, ...]]:
    """Derive projection/reconstruction tables from the gamma basis."""
    fwd: list[_Proj] = []
    bwd: list[_Proj] = []
    rows = np.arange(2)
    for mu in range(4):
        for sign, dest in ((-1.0, fwd), (+1.0, bwd)):
            a = sign * g.GAMMA[mu][0:2, 2:4]
            r = sign * g.GAMMA[mu][2:4, 0:2]
            aidx = np.argmax(np.abs(a), axis=1)
            ridx = np.argmax(np.abs(r), axis=1)
            acoef = np.ascontiguousarray(a[rows, aidx].reshape(2, 1))
            rcoef = np.ascontiguousarray(r[rows, ridx].reshape(2, 1))
            lower = slice(2, 4) if aidx[0] == 0 else slice(3, 1, -1)
            rsel = slice(0, 2) if ridx[0] == 0 else slice(1, None, -1)
            # Exactness guard: the projector really factors this way.
            proj = g.IDENTITY + sign * g.GAMMA[mu]
            assert np.allclose(proj[2:4], r @ proj[0:2], atol=1e-14)
            assert np.allclose(r @ a, np.eye(2), atol=1e-14)
            dest.append(_Proj(lower, acoef, rsel, rcoef))
    return tuple(fwd), tuple(bwd)


_FWD, _BWD = _build_tables()


def _aos_view(buf: np.ndarray, ncomp: int) -> np.ndarray:
    """``(rhs, x, y, z, t, component...)``-shaped view of a buffer whose
    memory is component-major ``(component..., rhs, x, y, z, t)``."""
    return buf.transpose(*range(ncomp, buf.ndim), *range(ncomp))


@register_backend("halfspinor")
class HalfSpinorKernel(DslashKernel):
    """Spin-projected stencil with an unrolled broadcast color multiply.

    The links are pre-split into 18 contiguous component planes per
    direction (9 for ``U``, 9 for ``U^H``), shaped ``dims + (1,)`` so one
    plane broadcasts over the half field's spin axis.  The 3x3 multiply
    is then nine vectorized multiply-accumulates over the whole lattice —
    no per-site small-matrix dispatch at all.
    """

    name = "halfspinor"

    def __init__(self, u, u_dag, geometry):
        super().__init__(u, u_dag, geometry)
        split = lambda links, mu: tuple(
            tuple(np.ascontiguousarray(links[mu, ..., a, b])[..., None] for b in range(3))
            for a in range(3)
        )
        self._u_comp = tuple(split(u, mu) for mu in range(4))
        self._udag_comp = tuple(split(u_dag, mu) for mu in range(4))

    # -- primitive steps ----------------------------------------------------
    @staticmethod
    def _project(phi: np.ndarray, proj: _Proj, out: np.ndarray) -> None:
        """``out = (P phi)_upper`` — slicing plus one scaled add."""
        np.multiply(phi[..., proj.lower, :], proj.acoef, out=out)
        out += phi[..., 0:2, :]

    @staticmethod
    def _accumulate(out: np.ndarray, uh: np.ndarray, proj: _Proj, rtmp: np.ndarray) -> None:
        """``out += (uh, R uh)`` given the pre-scaled half field ``uh``."""
        out[..., 0:2, :] += uh
        np.multiply(uh[..., proj.rsel, :], proj.rcoef, out=rtmp)
        out[..., 2:4, :] += rtmp

    def _color_mul(
        self,
        mu: int,
        dagger: bool,
        h: np.ndarray,
        out: np.ndarray,
        sites: tuple | None = None,
        tmp: np.ndarray | None = None,
    ) -> None:
        """``out = U h`` (or ``U^H h``) on the half field.

        ``sites`` optionally restricts the links to a sub-volume (a
        4-tuple of site-axis slices) so the distributed overlap policy
        can recompute boundary slabs; the per-element operation chain is
        identical to the full-volume call, keeping slab recomputation
        bitwise-consistent with it.  ``tmp`` is one colour plane of
        scratch (default: a pooled array-of-structures buffer).
        """
        comp = (self._udag_comp if dagger else self._u_comp)[mu]
        if sites is not None:
            comp = tuple(tuple(c[sites] for c in row) for row in comp)
        if tmp is None:
            tmp = self.workspace.get("cmul_tmp", h.shape[:-1])
        for a in range(3):
            oa = out[..., a]
            np.multiply(comp[a][0], h[..., 0], out=oa)
            np.multiply(comp[a][1], h[..., 1], out=tmp)
            oa += tmp
            np.multiply(comp[a][2], h[..., 2], out=tmp)
            oa += tmp

    # -- the stencil --------------------------------------------------------
    def hopping(self, phi: np.ndarray) -> np.ndarray:
        self.applications += 1
        n, sites = phi.shape[0], phi.shape[1:-2]
        tile = min(n, max(1, TILE_BYTES // phi[0].nbytes))
        ws = self.workspace
        src = _aos_view(ws.get("phi", (4, 3, tile) + sites), 2)
        acc = _aos_view(ws.get("out", (4, 3, tile) + sites), 2)
        tmp = _aos_view(ws.get("cmul_tmp", (2, tile) + sites), 1)
        out = np.empty(phi.shape, dtype=np.complex128)
        for lo in range(0, n, tile):
            k = min(tile, n - lo)
            dst = out[lo : lo + k]
            # Until the closing transpose overwrites it, the output
            # tile's own memory is the two half-field scratch buffers.
            h, hs = (_aos_view(half, 2) for half in dst.reshape((2, 2, 3, k) + sites))
            self._hop_tile(phi[lo : lo + k], dst, src[:k], acc[:k], h, hs, tmp[:k])
        return out

    def _hop_tile(self, phi_aos, out_aos, phi, out, h, hs, tmp) -> None:
        """One RHS tile: transpose in, the eight hops, transpose out."""
        phi[...] = phi_aos
        out.fill(0.0)
        for mu in range(4):
            axis = 1 + mu  # site axes follow the flattened lead axis
            # forward hop: -(1/2) (1 - gamma_mu) U_mu(x) psi(x + mu)
            pf = _FWD[mu]
            self._project(phi, pf, h)
            roll_into(h, -1, axis, hs)
            self._color_mul(mu, False, hs, h, tmp=tmp)
            h *= -0.5
            self._accumulate(out, h, pf, hs)
            # backward hop: -(1/2) (1 + gamma_mu) U_mu(x-mu)^H psi(x - mu)
            pb = _BWD[mu]
            self._project(phi, pb, h)
            self._color_mul(mu, True, h, hs, tmp=tmp)
            roll_into(hs, +1, axis, h)
            h *= -0.5
            self._accumulate(out, h, pb, hs)
        out_aos[...] = out
