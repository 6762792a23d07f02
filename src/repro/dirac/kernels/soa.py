"""Structure-of-arrays (SoA) field layout for compiled dslash kernels.

NumPy's array-of-structures fermion layout — ``(n,) + dims + (4, 3)``
complex128 — is the right shape for whole-lattice broadcasting, but a
compiled per-site stencil wants the opposite: every (spin, colour)
component as one contiguous plane over the flattened site index, with
real and imaginary parts split so the hot loop is pure float64 scalar
arithmetic (QUDA's float2/float4 device ordering, Section IV, is the
same idea).  This module owns that layout:

* :func:`pack_fermion` / :func:`unpack_fermion` — AoS complex ``(n,)
  + dims + (4, 3)``  <->  SoA float64 ``(n, 4, 3, V)`` re/im pair;
* :func:`pack_links` — gauge links ``(4,) + dims + (3, 3)`` -> SoA
  ``(4, 3, 3, V)`` re/im pair;
* :func:`neighbor_tables` — periodic forward/backward site-index tables
  ``(4, V)``, the compiled analogue of the ``np.roll`` gathers (fermion
  boundary conditions are already folded into the links, so the tables
  are purely periodic);
* :func:`projection_tables` — the DeGrand-Rossi half-spinor projection
  and reconstruction coefficients of
  :mod:`repro.dirac.kernels.halfspinor` flattened into plain float/int
  arrays a jitted kernel can index.

Round-trips are exact (pack then unpack is bitwise identity — tested by
a hypothesis property), so a backend over this layout can be promoted
against the reference oracle at the usual 1e-12 tolerance.

:data:`SOA_LAYOUT_VERSION` is folded into the autotuner tune-key aux
string: any change to the ordering here invalidates cached backend
winners that were raced against the old layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.lattice.geometry import Geometry

__all__ = [
    "SOA_LAYOUT_VERSION",
    "SoAProjTables",
    "pack_fermion",
    "unpack_fermion",
    "pack_links",
    "neighbor_tables",
    "projection_tables",
]

#: Bump when the SoA axis ordering or table format changes — part of the
#: dslash tune-key aux string, so stale cached winners are re-raced.
SOA_LAYOUT_VERSION = 1


def pack_fermion(
    phi: np.ndarray,
    out_re: np.ndarray | None = None,
    out_im: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """AoS ``(n,) + dims + (4, 3)`` -> SoA ``(n, 4, 3, V)`` re/im pair.

    ``out_re``/``out_im`` are optional preallocated float64 targets (the
    kernel workspace), so steady-state packing allocates nothing.
    """
    phi = np.asarray(phi)
    n = phi.shape[0]
    volume = int(np.prod(phi.shape[1:-2], dtype=np.int64))
    flat = phi.reshape(n, volume, 4, 3)
    moved = np.moveaxis(flat, 1, 3)  # (n, 4, 3, V) view, no copy
    if out_re is None:
        out_re = np.empty((n, 4, 3, volume), dtype=np.float64)
    if out_im is None:
        out_im = np.empty((n, 4, 3, volume), dtype=np.float64)
    out_re[...] = moved.real
    out_im[...] = moved.imag
    return out_re, out_im


def unpack_fermion(re: np.ndarray, im: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """SoA ``(n, 4, 3, V)`` re/im pair -> freshly allocated AoS complex.

    ``shape`` is the original ``(n,) + dims + (4, 3)`` field shape.
    """
    n, volume = re.shape[0], re.shape[3]
    out = np.empty(shape, dtype=np.complex128)
    flat = out.reshape(n, volume, 4, 3)
    moved = np.moveaxis(flat, 1, 3)  # view into out
    moved.real[...] = re
    moved.imag[...] = im
    return out


def pack_links(links: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauge links ``(4,) + dims + (3, 3)`` -> SoA ``(4, 3, 3, V)``."""
    volume = int(np.prod(links.shape[1:-2], dtype=np.int64))
    flat = links.reshape(4, volume, 3, 3)
    moved = np.moveaxis(flat, 1, 3)
    return (
        np.ascontiguousarray(moved.real, dtype=np.float64),
        np.ascontiguousarray(moved.imag, dtype=np.float64),
    )


def neighbor_tables(geometry: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """Periodic neighbour index tables ``(fwd, bwd)``, each ``(4, V)``.

    ``fwd[mu, x]`` is the flattened index of site ``x + mu_hat`` and
    ``bwd[mu, x]`` of ``x - mu_hat``, under the same C-order site
    flattening as :func:`pack_fermion`.  Equivalent to the ``np.roll``
    gathers of the NumPy backends (verified against them in the tests).
    """
    idx = np.arange(geometry.volume, dtype=np.int64).reshape(geometry.dims)
    fwd = np.stack([np.roll(idx, -1, axis=mu).ravel() for mu in range(4)])
    bwd = np.stack([np.roll(idx, +1, axis=mu).ravel() for mu in range(4)])
    return np.ascontiguousarray(fwd), np.ascontiguousarray(bwd)


@dataclass(frozen=True)
class SoAProjTables:
    """Half-spinor projection/reconstruction coefficients as flat arrays.

    Row ``d = 2 * mu + fb`` covers direction ``mu`` forward (``fb=0``,
    projector ``1 - gamma_mu``) or backward (``fb=1``, ``1 + gamma_mu``):

    * projection: ``h[s] = phi[s] + a[d, s] * phi[a_idx[d, s]]`` with
      ``a = a_re + i a_im`` and ``a_idx`` in ``{2, 3}``;
    * reconstruction (inverse-mapped so a kernel can scatter each half
      row as it is produced): uh row ``s`` contributes
      ``r[d, s] * uh[s]`` to full-spinor row ``r_row[d, s]``.
    """

    a_idx: np.ndarray  # (8, 2) int64
    a_re: np.ndarray   # (8, 2) float64
    a_im: np.ndarray   # (8, 2) float64
    r_row: np.ndarray  # (8, 2) int64
    r_re: np.ndarray   # (8, 2) float64
    r_im: np.ndarray   # (8, 2) float64


@lru_cache(maxsize=1)
def projection_tables() -> SoAProjTables:
    """Flatten the halfspinor ``_Proj`` tables into kernel-ready arrays."""
    from repro.dirac.kernels.halfspinor import _BWD, _FWD

    a_idx = np.zeros((8, 2), dtype=np.int64)
    a_co = np.zeros((8, 2), dtype=np.complex128)
    r_row = np.zeros((8, 2), dtype=np.int64)
    r_co = np.zeros((8, 2), dtype=np.complex128)
    spin4 = np.arange(4)
    spin2 = np.arange(2)
    for mu in range(4):
        for fb, table in ((0, _FWD), (1, _BWD)):
            proj = table[mu]
            d = 2 * mu + fb
            a_idx[d] = spin4[proj.lower]
            a_co[d] = proj.acoef.ravel()
            rsel = spin2[proj.rsel]
            rcoef = proj.rcoef.ravel()
            for s in range(2):
                # out[2 + s] += rcoef[s] * uh[rsel[s]]  becomes, keyed by
                # the uh row actually produced (rsel is a permutation):
                r_row[d, rsel[s]] = 2 + s
                r_co[d, rsel[s]] = rcoef[s]
    return SoAProjTables(
        a_idx=a_idx,
        a_re=np.ascontiguousarray(a_co.real),
        a_im=np.ascontiguousarray(a_co.imag),
        r_row=r_row,
        r_re=np.ascontiguousarray(r_co.real),
        r_im=np.ascontiguousarray(r_co.imag),
    )
