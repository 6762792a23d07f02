"""Half-spinor (spin-projected) dslash kernel — the one NumPy stencil.

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
appears anywhere in this kernel.

The 3x3 color multiply is unrolled into nine broadcast
multiply-accumulates over contiguous per-component link planes (no
per-site ``einsum``/``matmul``), with the hopping prefactor ``-1/2``
folded in once — exact, as scaling by a power of two commutes with every
rounding of the chain.

One loop (QUDA has one dslash, Section IV-V):
:meth:`HalfSpinorKernel.hopping` is the only place the eight hops
(project -> shift -> colour-multiply -> accumulate, forward then
backward, mu = 0..3) are sequenced.

* *Serial is the no-ghost case.*  ``hopping(phi)`` shifts periodically.
  A rank of a decomposed lattice passes ``ghosts`` — the dict a halo
  exchange of :meth:`HalfSpinorKernel.faces` returns — and each
  partitioned direction's wrapped plane is overwritten with the
  neighbour's face after the local roll, which yields the bytes a global
  ``np.roll`` would.
* *Checkerboard-packed is a layout.*  ``hopping(xp, parity=p)`` maps one
  parity's sites, folded pairwise along t (:meth:`HalfSpinorKernel.pack`),
  to the other parity's: per-parity packed link planes, plain rolls along
  x, y, z, and a column-masked roll along t.  Same loop, same ``ghosts``;
  half the sites in every pass of a red-black solve.
* *Precision is a dtype.*  ``hopping`` / ``faces`` compute and answer in
  ``phi``'s dtype — complex128, or complex64 at half the bytes per site
  (the paper's bandwidth lever): link planes are cast once per dtype from
  the double ``-U/2`` ones, the workspace holds its tiles (one buffer per
  tag serves both dtypes), faces travel in it.  Same loop; the complex128
  bits are unchanged.
* *The adjoint and the diagonal are inputs* (QUDA fuses both, Section
  IV).  ``dagger=True`` is ``gamma_5 H gamma_5`` by a swap of the
  forward and backward projector tables; ``diag=d`` adds ``d phi`` inside
  each tile.  A Wilson ``D psi`` or ``D^H psi`` is one pass.

Workspace layout (QUDA's field order, Section IV): buffers whose
*memory* is component-major ``(spin, colour, rhs, x, y, z, t)`` but whose
*shape* is the usual ``(rhs, x, y, z, t, spin, colour)`` — one
transposing copy in, one out, and every ``[..., s, :]`` / ``[..., c]``
slice in between a contiguous plane.  Every primitive is elementwise, so
neither the layout nor the RHS tiles of :data:`TILE_BYTES` (a workspace
bounded whatever the stack width) changes a bit of the result, and an
application allocates only the returned output field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.dirac import gamma as g
from repro.dirac.kernels.base import DslashKernel, roll_into

__all__ = ["HalfSpinorKernel"]

#: Bytes of fermion field per RHS tile of the stencil workspace (1.125 MiB:
#: 12 columns at 4^3x8, one at 8^3x16) — with the half-field scratch and
#: the link planes the tile's working set is about the 4 MiB of one L2.
TILE_BYTES = 12 * (512 * 12 * 16)


@dataclass(frozen=True)
class _Proj:
    """Half-spinor form of one hopping projector ``1 + sign*gamma_mu``:
    ``h[s] = psi[s] + acoef[s] * psi[lower][s]`` (projection) and
    ``out[2 + s] = rcoef[s] * h[rsel][s]`` (reconstruction), ``lower`` /
    ``rsel`` spin-axis slices (order-reversing views, never copies)."""

    lower: slice
    acoef: np.ndarray
    rsel: slice
    rcoef: np.ndarray


def _build_tables(dtype) -> tuple[tuple[_Proj, ...], tuple[_Proj, ...]]:
    """Derive projection/reconstruction tables from the gamma basis, their
    ``+-1``/``+-i`` coefficients held in ``dtype``."""
    fwd, bwd = [], []
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


#: ``(forward, backward)`` projector tables by ``(dtype, dagger)``: ``H^H``
#: swaps them, as ``gamma_5 (1 -+ gamma_mu) gamma_5 = 1 +- gamma_mu``.
_TABLES = {
    (np.dtype(t), d): _build_tables(t)[:: -1 if d else 1]
    for t in (np.complex128, np.complex64) for d in (False, True)
}


def _aos_view(buf: np.ndarray, ncomp: int) -> np.ndarray:
    """``(rhs, x, y, z, t, component...)``-shaped view of a buffer whose
    memory is component-major ``(component..., rhs, x, y, z, t)``."""
    return buf.transpose(*range(ncomp, buf.ndim), *range(ncomp))


def _face(mu: int, high: bool) -> tuple:
    """Index of one boundary plane of site axis ``mu`` in a field stack
    (the unit axis is kept)."""
    return (slice(None),) * (1 + mu) + (slice(-1, None) if high else slice(0, 1),)


class HalfSpinorKernel(DslashKernel):
    """Spin-projected stencil on 18 contiguous link component planes per
    direction (9 for ``-U/2``, 9 for ``-U^H/2``), held once per layout and
    dtype it runs.  ``geometry`` may be a rank's
    :class:`~repro.comm.decomp.LocalGeometry`: the packed layout reads the
    *global* parity of its sites from it.
    """

    name = "halfspinor"

    def __init__(self, u, geometry):
        super().__init__(u, geometry)
        self._layouts: dict = {}

    # -- the checkerboard-packed layout -------------------------------------
    # Site (x, y, z, t) of parity P sits at packed index (x, y, z, t // 2):
    # within one (x, y, z) column the two t-slots of a pair split between
    # the parities.  Shifts along x, y, z are then plain rolls between the
    # parity arrays (the neighbour's parity flip and the slot convention
    # cancel) and only the t-shift needs the column mask; packed blocks
    # splice across rank boundaries whenever every global extent is even.
    @cached_property
    def _masks(self) -> tuple:
        """By parity ``P``: the columns whose parity-``P`` site occupies
        the even t-slot."""
        if self.geometry.dims[3] % 2:
            raise ValueError(f"packing needs an even t extent, got {self.geometry.dims[3]}")
        even_slot = self.geometry.parity[..., 0, None]
        return tuple((even_slot == P)[..., None, None] for P in (0, 1))

    def pack(self, field: np.ndarray, parity: int) -> np.ndarray:
        """One parity of a full field (any leading axes) as a packed array."""
        m = self._masks[parity]
        return np.where(m, field[..., 0::2, :, :], field[..., 1::2, :, :])

    def unpack(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """The full field (any leading axes) whose two packed parities are given."""
        m = self._masks[0]
        out = np.empty(p0.shape[:-3] + (2 * p0.shape[-3], 4, 3), dtype=p0.dtype)
        for slot, (on, off) in enumerate(((p0, p1), (p1, p0))):
            np.copyto(out[..., slot::2, :, :], off)
            np.copyto(out[..., slot::2, :, :], on, where=m)
        return out

    def layout(self, parity: int | None = None, dtype=None) -> tuple:
        """``(planes, masks)`` of the full (``parity=None``) or packed layout
        in ``dtype`` (the links'), built on first use as one contiguous block
        ``(2, 4, 3, 3) + box + (1,)``: ``planes[0][mu][a, b]`` the ``-U/2``
        planes of the forward hop (at the output site), ``planes[1]`` the
        ``-U^H/2`` ones of the backward hop (at the source site), each
        broadcasting over the half-spinor axis; ``masks`` the t-shift
        column masks of each (``None`` unpacked).  ``-U^H/2`` is
        ``conj(-U/2)`` with the colour indices swapped and a complex64
        block the cast of the double one: both exact."""
        dtype = np.dtype(self.u.dtype if dtype is None else dtype)
        if (parity, dtype) not in self._layouts:
            masks = (None, None) if parity is None else (self._masks[1 - parity], self._masks[parity])
            if dtype != self.u.dtype:
                planes = self.layout(parity)[0].astype(dtype)
            else:
                half = -0.5 * self.u
                fwd, bwd = (
                    np.moveaxis(
                        half if m is None
                        else np.where(m, half[..., 0::2, :, :], half[..., 1::2, :, :]),
                        (-2, -1), (1, 2),
                    )[..., None]
                    for m in masks
                )
                planes = np.empty((2,) + fwd.shape, dtype)
                planes[0] = fwd
                np.conjugate(bwd.swapaxes(1, 2), out=planes[1])
            self._layouts[parity, dtype] = planes, masks
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
    def _color_mul(comp: np.ndarray, h: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
        """``out = U h`` on the half field, ``comp`` the nine planes of
        ``U`` and ``tmp`` one colour plane of scratch."""
        for a in range(3):
            oa = out[..., a]
            np.multiply(comp[a, 0], h[..., 0], out=oa)
            np.multiply(comp[a, 1], h[..., 1], out=tmp)
            oa += tmp
            np.multiply(comp[a, 2], h[..., 2], out=tmp)
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
    def faces(self, phi, mu: int, parity: int | None = None, *, dagger: bool = False) -> dict:
        """Both halo faces of direction ``mu``, from ``phi``'s two boundary
        slabs: ``("f", mu)`` the forward-projected low plane (the ``-mu``
        neighbour's ``psi(x + mu)`` ghost), ``("b", mu)`` the
        backward-projected, ``U^H``-multiplied high plane (the ``+mu``
        neighbour's ghost; links never travel).  12 of 24 reals per site.
        The chain is elementwise, so these are the bits the loop itself
        computes on those planes (``dagger``: with its swapped tables)."""
        high = _face(mu, True)
        dtype = np.result_type(phi.dtype, np.complex64)
        pf, pb = _TABLES[dtype, dagger]
        udag = self.layout(parity, dtype)[0][1, mu][(slice(None),) * 2 + high[1:]]
        fwd = np.empty(phi[high].shape[:-2] + (2, 3), dtype=dtype)
        h, bwd = np.empty_like(fwd), np.empty_like(fwd)
        self._project(phi[_face(mu, False)], pf[mu], fwd)
        self._project(phi[high], pb[mu], h)
        self._color_mul(udag, h, bwd, np.empty(h.shape[:-1], dtype=dtype))
        return {("f", mu): fwd, ("b", mu): bwd}

    def hopping(
        self, phi: np.ndarray, ghosts: dict | None = None, parity: int | None = None, *,
        dagger: bool = False, diag: float | None = None, out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``H phi`` on a stack ``(n,) + box + (4, 3)``.

        ``ghosts``
            ``{("f" | "b", mu): face}`` for the whole stack — what a halo
            exchange of :meth:`faces` returns; directions without an
            entry wrap periodically inside the box.
        ``parity``
            ``phi`` holds this parity's sites in the packed layout; the
            result holds the other parity's.
        ``dagger``
            ``H^H = gamma_5 H gamma_5``: the projector tables swap, which
            moves exactly the sandwich's sign flips (``faces`` too).
        ``diag``
            ``+ diag * phi`` in each tile after the eight hops, on the
            input workspace: ``fl(H phi + fl(diag * phi))``, one pass.
        ``out``
            The result's array (default: a fresh one); ``phi`` itself is
            allowed, as each RHS tile is copied into the workspace before
            its output tile is written.
        """
        dtype = np.result_type(phi.dtype, np.complex64)
        planes, masks = self.layout(parity, dtype)
        layout, tables = (*planes, masks), _TABLES[dtype, dagger]
        n, box = phi.shape[0], phi.shape[1:-2]
        tile = min(n, max(1, TILE_BYTES // phi[0].nbytes))
        ws = self.workspace
        src = _aos_view(ws.get("phi", (4, 3, tile) + box, dtype), 2)
        acc = _aos_view(ws.get("out", (4, 3, tile) + box, dtype), 2)
        tmp = _aos_view(ws.get("cmul_tmp", (2, tile) + box, dtype), 1)
        out = np.empty(phi.shape, dtype=dtype) if out is None else out
        for lo in range(0, n, tile):
            k = min(tile, n - lo)
            cols = slice(lo, lo + k)
            dst = out[cols]
            # Until the closing transpose overwrites it, the output
            # tile's own memory is the two half-field scratch buffers.
            h, hs = (_aos_view(half, 2) for half in dst.reshape((2, 2, 3, k) + box))
            halo = {tag: face[cols] for tag, face in (ghosts or {}).items()}
            args = (src[:k], acc[:k], h, hs, tmp[:k])
            self._hop_tile(phi[cols], dst, halo, layout, tables, diag, *args)
        return out

    def _hop_tile(self, phi_aos, out_aos, halo, layout, tables, diag, phi, out, h, hs, tmp) -> None:
        """One RHS tile: transpose in, the eight hops (and the diagonal
        term), transpose out."""
        phi[...] = phi_aos
        u, udag, masks = layout
        fwd, bwd = tables
        for mu in range(4):
            # forward hop: -(1/2) (1 -+ gamma_mu) U_mu(x) psi(x + mu), H^H the lower sign
            pf = fwd[mu]
            self._project(phi, pf, h)
            self._shift(h, -1, mu, masks[0], hs)
            if ("f", mu) in halo:
                hs[_face(mu, True)] = halo["f", mu]
            self._color_mul(u[mu], hs, h, tmp)
            self._accumulate(out, h, pf, hs, first=mu == 0)
            # backward hop: -(1/2) (1 +- gamma_mu) U_mu(x-mu)^H psi(x - mu)
            pb = bwd[mu]
            self._project(phi, pb, h)
            self._color_mul(udag[mu], h, hs, tmp)
            self._shift(hs, +1, mu, masks[1], h)
            if ("b", mu) in halo:
                h[_face(mu, False)] = halo["b", mu]
            self._accumulate(out, h, pb, hs)
        if diag is not None:
            out += np.multiply(phi, diag, out=phi)
        out_aos[...] = out
