"""Shared infrastructure for the dslash kernels.

A kernel is one implementation of the Wilson hopping stencil (the hot
loop of every solve), built once per operator from the
boundary-conditioned links.  The production kernel and its test oracle
share one contract: :meth:`DslashKernel.hopping` maps a flattened stack
``(n,) + dims + (4, 3)`` to a fresh array of that shape, and its
temporaries come from a :class:`Workspace` pool keyed by shape.
"""

from __future__ import annotations

import numpy as np

from repro.lattice.geometry import Geometry

__all__ = ["Workspace", "DslashKernel", "roll_into"]


class Workspace:
    """Shape-keyed pool of reusable scratch buffers.

    Buffers are identified by ``(tag, shape, dtype)``; asking twice for
    the same key returns the *same* array, so a kernel must use distinct
    tags for buffers that are live simultaneously.  The pool grows only
    when a new field shape is encountered (e.g. a different multi-RHS
    batch size) — the QUDA analogue is the persistent device workspace
    attached to each tuned kernel instance.
    """

    def __init__(self) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}

    def get(self, tag: str, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
        key = (tag, tuple(shape), np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf

    @property
    def nbytes(self) -> int:
        """Total bytes currently pooled (diagnostic)."""
        return sum(b.nbytes for b in self._bufs.values())

    def __len__(self) -> int:
        return len(self._bufs)

    def clear(self) -> None:
        self._bufs.clear()


def roll_into(src: np.ndarray, shift: int, axis: int, out: np.ndarray) -> np.ndarray:
    """``out[:] = np.roll(src, shift, axis)`` without allocating.

    ``src`` and ``out`` must be distinct arrays of identical shape.
    """
    length = src.shape[axis]
    s = shift % length
    if s == 0:
        out[...] = src
    else:
        lead = (slice(None),) * (axis % src.ndim)
        out[lead + (slice(s, None),)] = src[lead + (slice(None, length - s),)]
        out[lead + (slice(None, s),)] = src[lead + (slice(length - s, None),)]
    return out


class DslashKernel:
    """Base class for the Wilson hopping-term kernels.

    Parameters
    ----------
    u:
        Boundary-conditioned links ``U_mu(x)``, shape ``(4,) + dims + (3, 3)``.
    geometry:
        The 4D lattice.
    """

    #: Short name; an operator's span is ``dslash.{name}``.
    name: str = "?"

    def __init__(self, u: np.ndarray, geometry: Geometry):
        self.u = u
        self.geometry = geometry
        self.workspace = Workspace()

    def hopping(self, phi: np.ndarray, *, dagger: bool = False, diag=None, out=None) -> np.ndarray:
        """``H phi`` (``H^H phi`` with ``dagger``) ``+ diag * phi`` on a
        flattened stack ``(n,) + dims + (4, 3)``, into ``out`` if given
        (``phi`` itself allowed)."""
        raise NotImplementedError
