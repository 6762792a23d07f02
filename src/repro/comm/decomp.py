"""Per-rank lattice geometry for the domain-decomposition runtime.

Extends :class:`repro.lattice.geometry.Geometry` with what a *rank* of a
decomposed lattice needs and the global geometry cannot express:

* local extents may be odd or 1 (a 4-way split of ``Lx = 8`` at 8 ranks
  leaves one slice per rank), so the even-extent validation is relaxed;
* the checkerboard parity of a local site is its **global** parity — the
  block origin's parity is folded in, so red-black preconditioning on a
  rank whose origin is odd stays consistent with the global lattice;
* ghost-cell (halo-padded) allocation for a radius-one stencil.

:class:`RankGrid` maps ranks onto blocks: coordinates, neighbours,
site slices and gather between global fields and per-rank local fields (with
arbitrary leading axes, e.g. a multi-RHS stack).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.comm.halo import Decomposition
from repro.lattice.geometry import Geometry

__all__ = ["LocalGeometry", "RankGrid", "slab_grid"]


@dataclass(frozen=True)
class LocalGeometry(Geometry):
    """One rank's block of a global lattice.

    Parameters
    ----------
    lx, ly, lz, lt:
        Local extents (each >= 1; parity unrestricted).
    origin:
        Global coordinate of the block's low corner.  Only its parity
        matters for the checkerboard; it defaults to the global origin.
    """

    origin: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self) -> None:  # relaxed: extents >= 1, any parity
        for name, L in zip("lx ly lz lt".split(), self.dims):
            if L < 1:
                raise ValueError(f"{name}={L}: local extents must be >= 1")
        coords = np.indices(self.dims, dtype=np.int64)
        parity = (coords.sum(axis=0) + sum(self.origin)) % 2
        object.__setattr__(self, "_parity", parity)
        self._parity.setflags(write=False)

    def padded_dims(self, partitioned: tuple[int, ...]) -> tuple[int, int, int, int]:
        """Extents with one ghost slice on each partitioned face."""
        return tuple(
            L + (2 if mu in partitioned else 0) for mu, L in enumerate(self.dims)
        )

    def ghost_field(
        self,
        partitioned: tuple[int, ...],
        inner: tuple[int, ...] = (),
        dtype=np.complex128,
    ) -> np.ndarray:
        """Allocate a halo-padded field (ghost slices on partitioned dims)."""
        return np.zeros(self.padded_dims(partitioned) + tuple(inner), dtype=dtype)

    def interior_slices(self, partitioned: tuple[int, ...]) -> tuple[slice, ...]:
        """Site slices selecting the owned block inside a padded field."""
        return tuple(
            slice(1, 1 + L) if mu in partitioned else slice(None)
            for mu, L in enumerate(self.dims)
        )


@dataclass(frozen=True)
class RankGrid:
    """A process grid over the global lattice, with rank bookkeeping.

    Rank ``r`` owns the block whose grid coordinate is the mixed-radix
    decomposition of ``r`` (x slowest, t fastest).
    """

    decomp: Decomposition
    _coords: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_coords", tuple(self._coords_of(r) for r in range(self.n_ranks))
        )

    @classmethod
    def make(
        cls, global_dims: tuple[int, int, int, int], grid: tuple[int, int, int, int]
    ) -> "RankGrid":
        return cls(Decomposition(tuple(global_dims), tuple(grid)))

    # -- shape queries -----------------------------------------------------
    @property
    def global_dims(self) -> tuple[int, int, int, int]:
        return self.decomp.global_dims

    @property
    def grid(self) -> tuple[int, int, int, int]:
        return self.decomp.grid

    @property
    def n_ranks(self) -> int:
        return self.decomp.n_ranks

    @property
    def local_dims(self) -> tuple[int, int, int, int]:
        return self.decomp.local_dims

    @cached_property
    def partitioned(self) -> tuple[int, ...]:
        """Directions actually split across ranks."""
        return tuple(self.decomp.partitioned_dims())

    # -- rank maps ----------------------------------------------------------
    def _coords_of(self, rank: int) -> tuple[int, int, int, int]:
        gx, gy, gz, gt = self.grid
        cx, rem = divmod(rank, gy * gz * gt)
        cy, rem = divmod(rem, gz * gt)
        cz, ct = divmod(rem, gt)
        return (cx, cy, cz, ct)

    def coords(self, rank: int) -> tuple[int, int, int, int]:
        return self._coords[rank]

    def rank_id(self, coords: tuple[int, int, int, int]) -> int:
        gx, gy, gz, gt = self.grid
        cx, cy, cz, ct = (c % g for c, g in zip(coords, self.grid))
        return ((cx * gy + cy) * gz + cz) * gt + ct

    def neighbor(self, rank: int, mu: int, sign: int) -> int:
        """Rank owning the block at ``coords + sign * e_mu`` (periodic)."""
        c = list(self.coords(rank))
        c[mu] += sign
        return self.rank_id(tuple(c))

    def local_geometry(self, rank: int) -> LocalGeometry:
        origin = tuple(
            c * L for c, L in zip(self.coords(rank), self.local_dims)
        )
        return LocalGeometry(*self.local_dims, origin=origin)

    # -- site blocks / gather -------------------------------------------------
    def site_slices(self, rank: int) -> tuple[slice, ...]:
        """Global-array slices of the rank's site block."""
        return tuple(
            slice(c * L, (c + 1) * L)
            for c, L in zip(self.coords(rank), self.local_dims)
        )

    def gather(self, blocks: list[np.ndarray], site_axis: int = 0) -> np.ndarray:
        """Reassemble per-rank local arrays into one global array."""
        if len(blocks) != self.n_ranks:
            raise ValueError(f"expected {self.n_ranks} blocks, got {len(blocks)}")
        b0 = blocks[0]
        shape = (
            b0.shape[:site_axis] + self.global_dims + b0.shape[site_axis + 4 :]
        )
        out = np.empty(shape, dtype=b0.dtype)
        lead = (slice(None),) * site_axis
        for r, blk in enumerate(blocks):
            out[lead + self.site_slices(r)] = blk
        return out


def slab_grid(
    global_dims: tuple[int, int, int, int], n_ranks: int, axis: int = 0
) -> tuple[int, int, int, int]:
    """A 1D (slab) rank grid along one axis.

    Slab decompositions keep every rank's block — and every global slice
    along the decomposed axis — contiguous in memory, which is what
    makes the distributed solver's slice-ordered global reductions both
    cheap and decomposition-invariant (see
    :class:`repro.comm.distributed.DistributedCG`).
    """
    if axis not in (0, 1, 2, 3):
        raise ValueError(f"axis must be in 0..3, got {axis}")
    if n_ranks < 1 or global_dims[axis] % n_ranks:
        raise ValueError(
            f"{n_ranks} ranks do not divide extent {global_dims[axis]} on axis {axis}"
        )
    grid = [1, 1, 1, 1]
    grid[axis] = n_ranks
    return tuple(grid)
