"""Nucleon two-point contractions.

The interpolating operator is the standard positive-parity nucleon

``N_gamma(x) = eps_abc (u_a^T C gamma_5 d_b) u_c^gamma``

whose two-point function with projector ``P = (1 + gamma_t)/2`` follows
from Wick's theorem as two epsilon-epsilon contractions (direct and
exchange).  Writing ``T = C gamma_5`` and ``Tbar = gamma_t T^H gamma_t``:

``C(t) = sum_x eps_abc eps_a'b'c' T_ab Tbar_rs Sd^{bb'}_{br} *
         [ Su^{aa'}_{as} tr(P Su^{cc'}) - (P Su^{ac'} ... Su^{ca'}) ]``

The exact index bookkeeping lives in :func:`proton_correlator_bilinear`;
its *bilinear* form (separate propagators for the two u-quark lines) is
what the Feynman-Hellmann derivative needs — ``dC/dlambda`` replaces one
quark line at a time.
"""

from __future__ import annotations

import numpy as np

from repro.contractions.propagator import Propagator
from repro.dirac import gamma as g

__all__ = ["proton_correlator", "proton_correlator_bilinear", "POSITIVE_PARITY"]

#: Positive-parity projector (1 + gamma_t)/2.
POSITIVE_PARITY: np.ndarray = 0.5 * (g.IDENTITY + g.GAMMA[3])
POSITIVE_PARITY.setflags(write=False)

#: The diquark spin matrix T = C gamma_5 and its conjugate Tbar.
_T: np.ndarray = g.CHARGE_CONJ @ g.GAMMA5
_TBAR: np.ndarray = g.GAMMA[3] @ _T.conj().T @ g.GAMMA[3]

#: The six non-zero entries ``(a, b, c, sign)`` of the rank-3 epsilon tensor.
_EPS = (
    (0, 1, 2, 1.0),
    (1, 2, 0, 1.0),
    (2, 0, 1, 1.0),
    (0, 2, 1, -1.0),
    (2, 1, 0, -1.0),
    (1, 0, 2, -1.0),
)


def _color_major(s: np.ndarray) -> np.ndarray:
    """``[snk colour, src colour, sites, snk spin, src spin]`` copy of
    propagator data, so each colour pair is a stack of contiguous 4x4
    spin matrices."""
    return np.ascontiguousarray(np.moveaxis(s, (-2, -1), (0, 1)))


def _timeslice_fold(arr: np.ndarray) -> np.ndarray:
    """Sum an ``(Lx, Ly, Lz, Lt)`` site array over space, keeping time."""
    return arr.sum(axis=(0, 1, 2))


def proton_correlator_bilinear(
    u1: Propagator,
    u2: Propagator,
    d: Propagator,
    projector: np.ndarray | None = None,
) -> np.ndarray:
    """Nucleon two-point function, bilinear in the two u-quark lines.

    Parameters
    ----------
    u1, u2:
        Propagators for the two up-quark lines (slot ``a`` and slot ``c``
        of the interpolator).  Pass the same object twice for the
        physical correlator; pass a Feynman-Hellmann propagator in one
        slot for the derivative correlator.
    d:
        Down-quark propagator.
    projector:
        Spin projector at the sink (default positive parity).

    Returns
    -------
    Complex array of length ``Lt`` (source time rolled to 0).  For the
    physical degenerate-mass correlator the imaginary part vanishes in
    the ensemble average and the real part is positive at large ``t``.
    """
    proj = POSITIVE_PARITY if projector is None else projector
    s1 = _color_major(u1.shifted_to_origin())
    # G^{bb'}_{AS} = (T Sd Tbar)_{AS}: the diquark-dressed d propagator;
    # P S2, whose spin trace closes the direct term.
    # (one colour-major copy serves every slot a propagator fills)
    gtilde = _T @ (s1 if d is u1 else _color_major(d.shifted_to_origin())) @ _TBAR
    ps2 = proj @ (s1 if u2 is u1 else _color_major(u2.shifted_to_origin()))
    tr2 = np.trace(ps2, axis1=-2, axis2=-1)[..., None, None]

    # eps_abc eps_def Gt^{be}_{AS} [ S1^{ad}_{AS} tr_s(P S2^{cf})   (direct)
    #                              - (S1^{af} P S2^{cd})_{AS} ]     (exchange)
    site_corr = 0.0
    for a, b, c, sign_abc in _EPS:
        for dd, e, f, sign_def in _EPS:
            term = s1[a, dd] * tr2[c, f] - s1[a, f] @ ps2[c, dd]
            site_corr = site_corr + (sign_abc * sign_def) * np.sum(
                gtilde[b, e] * term, axis=(-2, -1)
            )
    return _timeslice_fold(site_corr)


def proton_correlator(
    u: Propagator,
    d: Propagator,
    projector: np.ndarray | None = None,
) -> np.ndarray:
    """Physical nucleon two-point function (both u lines identical)."""
    return proton_correlator_bilinear(u, u, d, projector=projector)
