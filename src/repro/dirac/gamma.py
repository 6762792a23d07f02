"""Euclidean gamma matrices in the DeGrand-Rossi (chiral) basis.

Conventions
-----------
* ``GAMMA[mu]`` for ``mu = 0..3`` are gamma_x, gamma_y, gamma_z, gamma_t.
* All are hermitian and satisfy ``{gamma_mu, gamma_nu} = 2 delta_mu_nu``.
* ``GAMMA5 = gamma_x gamma_y gamma_z gamma_t = diag(+1, +1, -1, -1)``,
  so chirality is block-diagonal — which is what makes the domain-wall
  fifth-dimension hopping act as simple shifts per two-spinor block.
* The axial-current insertion used for g_A is ``gamma_z gamma_5``
  (:data:`AXIAL_GAMMA3`), the zero-momentum spin-projected current.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GAMMA",
    "GAMMA5",
    "IDENTITY",
    "P_PLUS",
    "P_MINUS",
    "AXIAL_GAMMA3",
    "CHARGE_CONJ",
    "proj_plus",
    "proj_minus",
    "spin_mul",
    "gamma5_mul",
]

_i = 1j

#: gamma_x (DeGrand-Rossi)
_GX = np.array(
    [
        [0, 0, 0, _i],
        [0, 0, _i, 0],
        [0, -_i, 0, 0],
        [-_i, 0, 0, 0],
    ],
    dtype=np.complex128,
)

#: gamma_y
_GY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=np.complex128,
)

#: gamma_z
_GZ = np.array(
    [
        [0, 0, _i, 0],
        [0, 0, 0, -_i],
        [-_i, 0, 0, 0],
        [0, _i, 0, 0],
    ],
    dtype=np.complex128,
)

#: gamma_t
_GT = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ],
    dtype=np.complex128,
)

#: The four Euclidean gamma matrices, indexed by direction mu = 0..3.
GAMMA: tuple[np.ndarray, ...] = (_GX, _GY, _GZ, _GT)

#: gamma_5 = gamma_x gamma_y gamma_z gamma_t.
GAMMA5: np.ndarray = (_GX @ _GY @ _GZ @ _GT).round(12)

IDENTITY: np.ndarray = np.eye(4, dtype=np.complex128)

#: Chiral projectors P_+- = (1 +- gamma_5) / 2 (the domain-wall hopping
#: projectors along the fifth dimension).
P_PLUS: np.ndarray = 0.5 * (IDENTITY + GAMMA5)
P_MINUS: np.ndarray = 0.5 * (IDENTITY - GAMMA5)

#: gamma_z gamma_5: the zero-momentum axial-current spin structure for g_A.
AXIAL_GAMMA3: np.ndarray = _GZ @ GAMMA5

#: Charge conjugation C = gamma_y gamma_t (used in the (C gamma_5) diquark
#: of the nucleon interpolating operator).
CHARGE_CONJ: np.ndarray = _GY @ _GT

for _m in GAMMA:
    _m.setflags(write=False)
for _m in (GAMMA5, IDENTITY, P_PLUS, P_MINUS, AXIAL_GAMMA3, CHARGE_CONJ):
    _m.setflags(write=False)


#: The two-operand ``spin_mul`` contraction admits exactly one pairwise
#: order, so its einsum path is fixed here at import instead of being
#: re-resolved by ``optimize=True`` on every call.
_SPIN_MUL_PATH = ["einsum_path", (0, 1)]


def spin_mul(mat: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply a 4x4 spin matrix to a fermion field.

    The spin axis is assumed to be the second-to-last axis of ``psi``
    (fields are ``(..., spin, colour)``).
    """
    return np.einsum("st,...tc->...sc", mat, psi, optimize=_SPIN_MUL_PATH)


#: diag(gamma_5) spread over the trailing ``(spin, colour)`` axes — float32,
#: so the sign pass returns the dtype it is given (``+-1`` is exact in any).
_GAMMA5_SIGNS = np.repeat(np.diag(GAMMA5).real, 3).reshape(4, 3).astype(np.float32)


def gamma5_mul(psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``gamma_5 psi`` — in this basis a sign flip of spin components 2, 3:
    one elementwise pass, no spin contraction.  ``out=psi`` flips in place.
    """
    return np.multiply(psi, _GAMMA5_SIGNS, out=out)


def proj_plus(psi: np.ndarray) -> np.ndarray:
    """Chiral projection ``P_+ psi`` — keeps the upper two spin components."""
    out = np.zeros_like(psi)
    out[..., :2, :] = psi[..., :2, :]
    return out


def proj_minus(psi: np.ndarray) -> np.ndarray:
    """Chiral projection ``P_- psi`` — keeps the lower two spin components."""
    out = np.zeros_like(psi)
    out[..., 2:, :] = psi[..., 2:, :]
    return out
