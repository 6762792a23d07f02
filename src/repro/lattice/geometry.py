"""4D lattice geometry: shapes, shifts, checkerboards.

Conventions
-----------
* Site axes are ordered ``(x, y, z, t)``; direction indices are
  ``mu = 0..3`` for x, y, z, t.
* Fields are NumPy arrays whose first four axes are the site axes;
  internal (spin/colour/fifth-dimension) axes follow, except gauge links
  which carry a leading direction axis.
* Periodic shifts are implemented with ``numpy.roll``:
  ``shift(psi, mu, +1)[x] == psi[x + mu_hat]``.
* The checkerboard (red-black) parity of a site is
  ``(x + y + z + t) % 2`` — the preconditioning used by QUDA's
  "red-black preconditioned double-half CG" (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Geometry"]


@dataclass(frozen=True)
class Geometry:
    """An ``Lx x Ly x Lz x Lt`` periodic lattice.

    Parameters
    ----------
    lx, ly, lz, lt:
        Extents in the x, y, z and t directions.  Each must be a positive
        even number so the red-black checkerboard tiles exactly.
    """

    lx: int
    ly: int
    lz: int
    lt: int
    _parity: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, L in zip("lx ly lz lt".split(), self.dims):
            if L < 2 or L % 2:
                raise ValueError(f"{name}={L}: extents must be even and >= 2")
        coords = np.indices(self.dims, dtype=np.int64)
        parity = coords.sum(axis=0) % 2
        object.__setattr__(self, "_parity", parity)
        self._parity.setflags(write=False)

    # -- basic queries ---------------------------------------------------
    @property
    def dims(self) -> tuple[int, int, int, int]:
        """Site extents ``(Lx, Ly, Lz, Lt)``."""
        return (self.lx, self.ly, self.lz, self.lt)

    @property
    def volume(self) -> int:
        """Number of 4D sites."""
        return self.lx * self.ly * self.lz * self.lt

    @property
    def spatial_volume(self) -> int:
        """Number of sites on one time slice."""
        return self.lx * self.ly * self.lz

    @classmethod
    def from_shape(cls, shape: tuple[int, int, int, int]) -> "Geometry":
        """Build from a ``(Lx, Ly, Lz, Lt)`` tuple."""
        return cls(*shape)

    # -- parity / checkerboard -------------------------------------------
    @property
    def parity(self) -> np.ndarray:
        """Integer array of shape ``dims`` holding each site's parity."""
        return self._parity

    def parity_mask(self, parity: int) -> np.ndarray:
        """Boolean mask selecting sites of the given parity (0=even, 1=odd)."""
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        return self._parity == parity

    @property
    def half_volume(self) -> int:
        """Sites per checkerboard (the red-black system size)."""
        return self.volume // 2

    # -- shifts ------------------------------------------------------------
    def shift(self, field: np.ndarray, mu: int, sign: int) -> np.ndarray:
        """Return the field shifted so entry ``x`` holds ``field[x + sign*mu_hat]``.

        ``sign=+1`` gathers the forward neighbour, ``sign=-1`` the backward
        one.  Shifting is periodic; antiperiodic fermion boundary
        conditions are folded into the time links by
        :meth:`repro.lattice.gauge.GaugeField.fermion_links`.
        """
        if mu not in (0, 1, 2, 3):
            raise ValueError(f"mu must be in 0..3, got {mu}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {sign}")
        self._check_site_axes(field)
        return np.roll(field, -sign, axis=mu)

    def _check_site_axes(self, field: np.ndarray) -> None:
        if field.shape[:4] != self.dims:
            raise ValueError(
                f"field site axes {field.shape[:4]} do not match lattice {self.dims}"
            )

    # -- allocation helpers -------------------------------------------------
    def site_field(self, inner: tuple[int, ...] = (), dtype=np.complex128) -> np.ndarray:
        """Allocate a zero field with site axes plus the given inner axes."""
        return np.zeros(self.dims + tuple(inner), dtype=dtype)

    def coordinate(self, axis: int) -> np.ndarray:
        """Array of shape ``dims`` holding each site's coordinate along ``axis``."""
        if axis not in (0, 1, 2, 3):
            raise ValueError(f"axis must be in 0..3, got {axis}")
        shape = [1, 1, 1, 1]
        shape[axis] = self.dims[axis]
        coord = np.arange(self.dims[axis], dtype=np.int64).reshape(shape)
        return np.broadcast_to(coord, self.dims)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.lx}x{self.ly}x{self.lz}x{self.lt}"
