"""Half-spinor (spin-projected) dslash backend — the one NumPy stencil.

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
The hopping prefactor ``-1/2`` is folded into those planes once at
construction — exact, because scaling by a power of two only decrements
IEEE exponents and so commutes with every rounding in the
multiply-accumulate chain.

One loop, three callers (QUDA has one dslash, Section IV-V):
:meth:`HalfSpinorKernel.hopping` is the only place the eight hops
(project -> shift -> colour-multiply -> accumulate, forward then
backward, mu = 0..3) are sequenced.

* *Serial is the no-ghost case.*  ``hopping(phi)`` shifts periodically.
  A rank of a decomposed lattice passes ``ghosts`` — the dict a halo
  exchange of :meth:`HalfSpinorKernel.faces` returns — and each
  partitioned direction's wrapped plane is overwritten with the
  neighbour's face after the local roll, which yields the bytes a global
  ``np.roll`` would.  ``sites`` restricts the links to a sub-box, so the
  same function recomputes a boundary slab (the overlap halo policy).
* *Checkerboard-packed is a layout.*  ``hopping(xp, parity=p)`` maps one
  parity's sites, folded pairwise along t (:meth:`HalfSpinorKernel.pack`),
  to the other parity's: per-parity packed link planes, plain rolls along
  x, y, z, and a column-masked roll along t.  Same loop, same ``ghosts``,
  same ``sites``; half the sites in every pass of a red-black solve.
* *Precision is a dtype.*  ``hopping`` / ``faces`` compute and answer in
  ``phi``'s dtype — complex128, or complex64 at half the bytes per site
  (the paper's bandwidth lever): link planes are cast once per dtype from
  the double ``-U/2`` ones, the workspace is keyed on it, faces travel in
  it.  Same loop; the complex128 bits are unchanged.

Workspace layout (QUDA's field order, Section IV): the loop runs on
buffers whose *memory* is component-major ``(spin, colour, rhs, x, y, z,
t)`` but whose *shape*, as the primitives see it, is the usual ``(rhs,
x, y, z, t, spin, colour)`` — one transposing copy in, one out, and every
``[..., s, :]`` / ``[..., c]`` slice in between is a contiguous plane
instead of a stride-12 / stride-3 gather.  Every primitive is
elementwise, so neither the layout, the RHS tiling nor the site box
changes a bit of the result.  The RHS axis is processed in tiles of
:data:`TILE_BYTES` of fermion field, so the workspace is bounded
independently of the stack width, and steady-state applications allocate
only the returned output field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def _build_tables(dtype) -> tuple[tuple[_Proj, ...], tuple[_Proj, ...]]:
    """Derive projection/reconstruction tables from the gamma basis, their
    ``+-1``/``+-i`` coefficients held in ``dtype``."""
    fwd: list[_Proj] = []
    bwd: list[_Proj] = []
    rows = np.arange(2)
    for mu in range(4):
        for sign, dest in ((-1.0, fwd), (+1.0, bwd)):
            a = sign * g.GAMMA[mu][0:2, 2:4]
            r = sign * g.GAMMA[mu][2:4, 0:2]
            aidx = np.argmax(np.abs(a), axis=1)
            ridx = np.argmax(np.abs(r), axis=1)
            acoef = np.ascontiguousarray(a[rows, aidx].reshape(2, 1), dtype=dtype)
            rcoef = np.ascontiguousarray(r[rows, ridx].reshape(2, 1), dtype=dtype)
            lower = slice(2, 4) if aidx[0] == 0 else slice(3, 1, -1)
            rsel = slice(0, 2) if ridx[0] == 0 else slice(1, None, -1)
            # Exactness guard: the projector really factors this way.
            proj = g.IDENTITY + sign * g.GAMMA[mu]
            assert np.allclose(proj[2:4], r @ proj[0:2], atol=1e-14)
            assert np.allclose(r @ a, np.eye(2), atol=1e-14)
            dest.append(_Proj(lower, acoef, rsel, rcoef))
    return tuple(fwd), tuple(bwd)


#: ``(forward, backward)`` projector tables by the dtype a hop computes in.
_TABLES = {np.dtype(t): _build_tables(t) for t in (np.complex128, np.complex64)}
_FWD, _BWD = _TABLES[np.dtype(np.complex128)]


def _aos_view(buf: np.ndarray, ncomp: int) -> np.ndarray:
    """``(rhs, x, y, z, t, component...)``-shaped view of a buffer whose
    memory is component-major ``(component..., rhs, x, y, z, t)``."""
    return buf.transpose(*range(ncomp, buf.ndim), *range(ncomp))


def _face(mu: int, high: bool) -> tuple:
    """Index of one boundary plane of site axis ``mu`` in a field stack
    (the unit axis is kept)."""
    return (slice(None),) * (1 + mu) + (slice(-1, None) if high else slice(0, 1),)


def _each(planes, fn):
    """Nested tuples of site-indexed arrays (or ``None``), ``fn`` of each."""
    if isinstance(planes, tuple):
        return tuple(_each(p, fn) for p in planes)
    return None if planes is None else fn(planes)


def _cut(planes, sites: tuple | None):
    """``planes``, each restricted to the site-axis slices ``sites``."""
    return planes if sites is None else _each(planes, lambda p: p[sites])


def _planes(links: np.ndarray, fold=np.ascontiguousarray) -> tuple:
    """``[mu][a][b]`` contiguous component planes of a link field, shaped
    ``dims + (1,)`` so one plane broadcasts over the half-spinor axis."""
    return tuple(
        tuple(tuple(fold(links[mu, ..., a, b])[..., None] for b in range(3)) for a in range(3))
        for mu in range(4)
    )


@register_backend("halfspinor")
class HalfSpinorKernel(DslashKernel):
    """Spin-projected stencil with an unrolled broadcast color multiply.

    The links are pre-split into 18 contiguous component planes per
    direction (9 for ``-U/2``, 9 for ``-U^H/2``).  The 3x3 multiply is
    then nine vectorized multiply-accumulates over the whole lattice — no
    per-site small-matrix dispatch at all.  ``geometry`` may be a rank's
    :class:`~repro.comm.decomp.LocalGeometry`: the packed layout reads the
    *global* parity of its sites from it.
    """

    name = "halfspinor"

    def __init__(self, u, u_dag, geometry):
        super().__init__(u, u_dag, geometry)
        self._u = _planes(-0.5 * u)
        self._udag = _planes(-0.5 * u_dag)
        self._layouts: dict = {}

    # -- the checkerboard-packed layout -------------------------------------
    # Site (x, y, z, t) of parity P sits at packed index (x, y, z, t // 2):
    # within one (x, y, z) column the two t-slots of a pair split between
    # the parities.  Shifts along x, y, z are then plain rolls between the
    # parity arrays (the neighbour's parity flip and the slot convention
    # cancel) and only the t-shift needs the column mask; packed blocks
    # splice across rank boundaries whenever every global extent is even.
    @cached_property
    def _packed(self) -> tuple:
        """``(masks, u, udag)`` by parity: ``masks[P]`` marks the columns
        whose parity-``P`` site occupies the even t-slot."""
        if self.geometry.dims[3] % 2:
            raise ValueError(f"packing needs an even t extent, got {self.geometry.dims[3]}")
        even_slot = self.geometry.parity[..., 0, None]
        masks = tuple((even_slot == P)[..., None, None] for P in (0, 1))
        fold = lambda P: lambda c: np.ascontiguousarray(
            np.where(even_slot == P, c[..., 0::2], c[..., 1::2])
        )
        u, udag = (
            tuple(_planes(links, fold(P)) for P in (0, 1))
            for links in (-0.5 * self.u, -0.5 * self.u_dag)
        )
        return masks, u, udag

    def pack(self, field: np.ndarray, parity: int) -> np.ndarray:
        """One parity of a full field stack as a packed array."""
        m = self._packed[0][parity]
        return np.where(m, field[..., 0::2, :, :], field[..., 1::2, :, :])

    def unpack(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """The full field stack whose two packed parities are given."""
        m = self._packed[0][0]
        out = np.empty(p0.shape[:4] + (2 * p0.shape[4], 4, 3), dtype=p0.dtype)
        out[..., 0::2, :, :] = np.where(m, p0, p1)
        out[..., 1::2, :, :] = np.where(m, p1, p0)
        return out

    def _layout(self, parity: int | None, dtype: np.dtype) -> tuple:
        """Link planes of the forward hop (at the output site) and of the
        backward hop (at the source site) in ``dtype`` — cast once, on
        first use, from the double ``-U/2`` planes — and the t-shift masks
        of each, for the full or the packed layout."""
        if (parity, dtype) not in self._layouts:
            u, udag, masks = self._u, self._udag, (None, None)
            if parity is not None:
                m, pu, pudag = self._packed
                u, udag, masks = pu[1 - parity], pudag[parity], (m[1 - parity], m[parity])
            cast = lambda p: p.astype(dtype, copy=False)  # the double planes are themselves
            self._layouts[parity, dtype] = _each(u, cast), _each(udag, cast), masks
        return self._layouts[parity, dtype]

    # -- primitive steps ----------------------------------------------------
    @staticmethod
    def _project(phi: np.ndarray, proj: _Proj, out: np.ndarray) -> None:
        """``out = (P phi)_upper`` — slicing plus one scaled add."""
        np.multiply(phi[..., proj.lower, :], proj.acoef, out=out)
        out += phi[..., 0:2, :]

    @staticmethod
    def _shift(src, sign: int, mu: int, mask, out) -> None:
        """``out(x) = src(x - sign * mu_hat)``, periodic in the local box.
        In the packed layout (``mask`` given) a t-neighbour sits in the
        same packed slot on the masked columns and in the next one on the
        others."""
        roll_into(src, sign, 1 + mu, out)
        if mu == 3 and mask is not None:
            np.copyto(out, src, where=mask)

    @staticmethod
    def _color_mul(comp: tuple, h: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
        """``out = U h`` on the half field, ``comp`` the nine planes of
        ``U`` and ``tmp`` one colour plane of scratch."""
        for a in range(3):
            oa = out[..., a]
            np.multiply(comp[a][0], h[..., 0], out=oa)
            np.multiply(comp[a][1], h[..., 1], out=tmp)
            oa += tmp
            np.multiply(comp[a][2], h[..., 2], out=tmp)
            oa += tmp

    @staticmethod
    def _accumulate(out, uh, proj: _Proj, rtmp, first: bool = False) -> None:
        """``out += (uh, R uh)``; the ``first`` term is written instead
        (value-exact against a zero fill: ``0 + x == x``)."""
        np.multiply(uh[..., proj.rsel, :], proj.rcoef, out=rtmp)
        if first:
            out[..., 0:2, :] = uh
            out[..., 2:4, :] = rtmp
        else:
            out[..., 0:2, :] += uh
            out[..., 2:4, :] += rtmp

    # -- the stencil --------------------------------------------------------
    def faces(self, phi: np.ndarray, mu: int, parity: int | None = None) -> dict:
        """Both halo faces of direction ``mu``, from ``phi``'s two boundary
        slabs: ``("f", mu)`` the forward-projected low plane (the ``-mu``
        neighbour's ``psi(x + mu)`` ghost), ``("b", mu)`` the
        backward-projected, ``U^H``-multiplied high plane (the ``+mu``
        neighbour's ghost; links never travel).  12 of 24 reals per site.
        The chain is elementwise, so these are the bits the loop itself
        computes on those planes."""
        high = _face(mu, True)
        dtype = np.result_type(phi.dtype, np.complex64)
        pf, pb = _TABLES[dtype]
        udag = _cut(self._layout(parity, dtype)[1][mu], high[1:])
        fwd = np.empty(phi[high].shape[:-2] + (2, 3), dtype=dtype)
        h, bwd = np.empty_like(fwd), np.empty_like(fwd)
        self._project(phi[_face(mu, False)], pf[mu], fwd)
        self._project(phi[high], pb[mu], h)
        self._color_mul(udag, h, bwd, np.empty(h.shape[:-1], dtype=dtype))
        return {("f", mu): fwd, ("b", mu): bwd}

    def hopping(
        self,
        phi: np.ndarray,
        ghosts: dict | None = None,
        sites: tuple | None = None,
        parity: int | None = None,
    ) -> np.ndarray:
        """``H phi`` on a stack ``(n,) + box + (4, 3)``.

        ``ghosts``
            ``{("f" | "b", mu): face}`` for the whole stack — what a halo
            exchange of :meth:`faces` returns; directions without an
            entry wrap periodically inside the box.
        ``sites``
            Site-axis slices of the sub-box ``phi`` (and ``ghosts``)
            cover, when that is not the kernel's whole block.
        ``parity``
            ``phi`` holds this parity's sites in the packed layout; the
            result holds the other parity's.
        """
        self.applications += 1
        dtype = np.result_type(phi.dtype, np.complex64)
        u, udag, masks = _cut(self._layout(parity, dtype), sites)
        n, box = phi.shape[0], phi.shape[1:-2]
        tile = min(n, max(1, TILE_BYTES // phi[0].nbytes))
        ws = self.workspace
        src = _aos_view(ws.get("phi", (4, 3, tile) + box, dtype), 2)
        acc = _aos_view(ws.get("out", (4, 3, tile) + box, dtype), 2)
        tmp = _aos_view(ws.get("cmul_tmp", (2, tile) + box, dtype), 1)
        out = np.empty(phi.shape, dtype=dtype)
        for lo in range(0, n, tile):
            k = min(tile, n - lo)
            cols = slice(lo, lo + k)
            dst = out[cols]
            # Until the closing transpose overwrites it, the output
            # tile's own memory is the two half-field scratch buffers.
            h, hs = (_aos_view(half, 2) for half in dst.reshape((2, 2, 3, k) + box))
            halo = {tag: face[cols] for tag, face in (ghosts or {}).items()}
            self._hop_tile(phi[cols], dst, halo, u, udag, masks, src[:k], acc[:k], h, hs, tmp[:k])
        return out

    def _hop_tile(self, phi_aos, out_aos, halo, u, udag, masks, phi, out, h, hs, tmp) -> None:
        """One RHS tile: transpose in, the eight hops, transpose out."""
        phi[...] = phi_aos
        fwd, bwd = _TABLES[phi.dtype]
        for mu in range(4):
            # forward hop: -(1/2) (1 - gamma_mu) U_mu(x) psi(x + mu)
            pf = fwd[mu]
            self._project(phi, pf, h)
            self._shift(h, -1, mu, masks[0], hs)
            if ("f", mu) in halo:
                hs[_face(mu, True)] = halo["f", mu]
            self._color_mul(u[mu], hs, h, tmp)
            self._accumulate(out, h, pf, hs, first=mu == 0)
            # backward hop: -(1/2) (1 + gamma_mu) U_mu(x-mu)^H psi(x - mu)
            pb = bwd[mu]
            self._project(phi, pb, h)
            self._color_mul(udag[mu], h, hs, tmp)
            self._shift(hs, +1, mu, masks[1], h)
            if ("b", mu) in halo:
                h[_face(mu, False)] = halo["b", mu]
            self._accumulate(out, h, pb, hs)
        out_aos[...] = out
