"""Quenched gauge-field generation: Cabibbo-Marinari heatbath + overrelaxation.

The paper consumes HISQ ensembles generated elsewhere (a09m310 etc.); per
the substitution rule we generate our own quenched SU(3) ensembles for the
small lattices the Python stack runs on.  The update is the classic
Cabibbo-Marinari sweep over SU(2) subgroups with Kennedy-Pendleton
heatbath sampling, fully vectorized over one checkerboard at a time (links
of equal direction and parity have disjoint staples, so they update
simultaneously — the same parallelization used on real machines).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lattice.gauge import GaugeField
from repro.lattice.gaugefix import _SUBGROUPS, _mul, _pack, _rotate_rows, _store, _tables
from repro.lattice.su3 import NC
from repro.utils.rng import make_rng

__all__ = ["HeatbathUpdater"]


def _su2_extract(w: np.ndarray) -> np.ndarray:
    """Quaternion components of the su2-projection of 2x2 matrices.

    Any complex 2x2 ``w`` splits as ``w = k V + w_perp`` with ``V`` in
    SU(2) and ``Re tr(u w) = k Re tr(u V)`` for all SU(2) ``u``.  Returns
    the un-normalized quaternion ``(x0, x1, x2, x3)`` stacked on the last
    axis; ``k = |x|``.
    """
    x0 = 0.5 * (w[..., 0, 0].real + w[..., 1, 1].real)
    x1 = 0.5 * (w[..., 0, 1].imag + w[..., 1, 0].imag)
    x2 = 0.5 * (w[..., 0, 1].real - w[..., 1, 0].real)
    x3 = 0.5 * (w[..., 0, 0].imag - w[..., 1, 1].imag)
    return np.stack([x0, x1, x2, x3], axis=-1)


def _quat_to_su2(q: np.ndarray) -> np.ndarray:
    """Embed unit quaternions ``(a0, a)`` as ``a0 I + i a . sigma``."""
    a0, a1, a2, a3 = (q[..., i] for i in range(4))
    out = np.empty(q.shape[:-1] + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = a0 + 1j * a3
    out[..., 0, 1] = a2 + 1j * a1
    out[..., 1, 0] = -a2 + 1j * a1
    out[..., 1, 1] = a0 - 1j * a3
    return out


def _quat_conj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate (= SU(2) hermitian conjugate)."""
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product matching the SU(2) embedding ``a0 + i a . sigma``.

    With that embedding ``(p q)_vec = p0 q_vec + q0 p_vec - p_vec x q_vec``
    (the cross product enters with a *minus* relative to the Hamilton
    convention), so ``_quat_to_su2(_quat_mul(p, q)) ==
    _quat_to_su2(p) @ _quat_to_su2(q)`` exactly (tested).
    """
    p0, p1, p2, p3 = (p[..., i] for i in range(4))
    q0, q1, q2, q3 = (q[..., i] for i in range(4))
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 - (p2 * q3 - p3 * q2),
            p0 * q2 + p2 * q0 - (p3 * q1 - p1 * q3),
            p0 * q3 + p3 * q0 - (p1 * q2 - p2 * q1),
        ],
        axis=-1,
    )


def _kennedy_pendleton(alpha: np.ndarray, rng: np.random.Generator, max_iter: int = 500) -> np.ndarray:
    """Sample ``a0 in [-1, 1]`` with density ``sqrt(1-a0^2) exp(alpha a0)``.

    Vectorized hybrid sampler: Kennedy-Pendleton rejection where it is
    efficient (``alpha >= 1``) and direct rejection against the flat
    proposal below that (KP's acceptance collapses as ``alpha -> 0``
    because almost every proposed ``lambda^2`` exceeds 1).  Raises if a
    pathological element fails to accept within ``max_iter`` rounds.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha < 0):
        raise ValueError("Kennedy-Pendleton requires alpha >= 0")
    a0 = np.empty_like(alpha)
    pending = np.ones(alpha.shape, dtype=bool)
    small = alpha < 1.0
    for _ in range(max_iter):
        n = int(pending.sum())
        if n == 0:
            return a0
        idx = np.flatnonzero(pending)
        a = alpha.flat[idx]
        is_small = small.flat[idx]
        accept = np.zeros(n, dtype=bool)
        proposal = np.empty(n, dtype=np.float64)

        # Direct rejection for small alpha: propose uniform, accept with
        # sqrt(1 - x^2) exp(alpha (x - 1)) <= 1 (acceptance ~ pi/4).
        ns = int(is_small.sum())
        if ns:
            x = rng.uniform(-1.0, 1.0, size=ns)
            w = np.sqrt(1.0 - x**2) * np.exp(a[is_small] * (x - 1.0))
            ok = rng.random(ns) <= w
            proposal[is_small] = x
            accept[is_small] = ok

        # Kennedy-Pendleton for the rest.
        nl = n - ns
        if nl:
            al = a[~is_small]
            r1 = 1.0 - rng.random(nl)  # in (0, 1]
            r2 = 1.0 - rng.random(nl)
            r3 = 1.0 - rng.random(nl)
            lam2 = -(np.log(r1) + np.cos(2.0 * np.pi * r2) ** 2 * np.log(r3)) / (2.0 * al)
            ok = (lam2 <= 1.0) & (rng.random(nl) ** 2 <= 1.0 - lam2)
            proposal[~is_small] = 1.0 - 2.0 * lam2
            accept[~is_small] = ok

        chosen = idx[accept]
        a0.flat[chosen] = proposal[accept]
        pending.flat[chosen] = False
    raise RuntimeError("Kennedy-Pendleton sampling failed to converge")


def _random_unit_vector(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform points on S^2, stacked on the last axis (shape + (3,))."""
    cos_theta = rng.uniform(-1.0, 1.0, size=shape)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - cos_theta**2))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return np.stack(
        [sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta], axis=-1
    )


@dataclass
class HeatbathUpdater:
    """Cabibbo-Marinari heatbath (+ optional overrelaxation) for the Wilson action.

    Parameters
    ----------
    beta:
        Wilson gauge coupling ``beta = 6/g^2``.
    n_overrelax:
        Microcanonical overrelaxation sweeps interleaved after each
        heatbath sweep (decorrelates without changing the distribution).
    """

    beta: float
    n_overrelax: int = 1
    rng: np.random.Generator = field(default_factory=make_rng)

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.n_overrelax < 0:
            raise ValueError("n_overrelax must be >= 0")
        self.rng = make_rng(self.rng)

    # -- public API --------------------------------------------------------
    def sweep(self, gauge: GaugeField) -> None:
        """One full heatbath sweep (plus overrelaxation) in place."""
        self._sweep(gauge, mode="heatbath")
        for _ in range(self.n_overrelax):
            self._sweep(gauge, mode="overrelax")

    def thermalize(self, gauge: GaugeField, n_sweeps: int) -> list[float]:
        """Run ``n_sweeps`` sweeps, returning the plaquette history."""
        history = []
        for _ in range(n_sweeps):
            self.sweep(gauge)
            history.append(gauge.plaquette())
        return history

    # -- internals -----------------------------------------------------------
    def _sweep(self, gauge: GaugeField, mode: str) -> None:
        """One sweep on gaugefix's packed planes: parity-local staples, two-row rotations."""
        (_, fwd, bwd), planes = _tables(gauge.geometry), _pack(gauge)
        for mu in range(4):
            for parity in (0, 1):
                u = planes[mu, parity]  # (3, 3, n) view: updated in place
                w = _mul(u, _staple(planes, fwd, bwd, mu, parity))
                for (i, j) in _SUBGROUPS:
                    x = _su2_extract(w[(i, j),][:, (i, j)].transpose(2, 0, 1))
                    k = np.sqrt(np.einsum("nq,nq->n", x, x))
                    vc = _quat_conj(x / np.maximum(k, 1e-300)[:, None])  # V^H quaternion
                    if mode == "heatbath":
                        a0 = _kennedy_pendleton(2.0 * self.beta * k / NC, self.rng)
                        radial = np.sqrt(np.maximum(0.0, 1.0 - a0**2))[:, None]
                        direction = _random_unit_vector(a0.shape, self.rng)
                        u_new = _quat_mul(np.concatenate([a0[:, None], radial * direction], -1), vc)
                    else:
                        # Overrelaxation: the subgroup update multiplies the
                        # link from the left, so the "current element" is the
                        # identity and the action-preserving reflection about
                        # the staple direction V is g = (V^H)^2:
                        # Re tr((V^H)^2 V) = Re tr(V^H) = Re tr(V).
                        u_new = _quat_mul(vc, vc)
                    # rotate both the link and W = U A
                    _rotate_rows((w, u), i, j, u_new.T)
        _store(gauge, planes)
        gauge.reunitarize()  # periodic reunitarization controls roundoff drift


def _staple(planes: np.ndarray, fwd: np.ndarray, bwd: np.ndarray, mu: int, p: int) -> np.ndarray:
    """The sum of the six staples around the ``mu`` link on the parity-``p``
    sites of packed planes: the three ``nu != mu`` ride a leading axis, each
    with its own hop table."""
    q, nus, u_mu = 1 - p, [nu for nu in range(4) if nu != mu], planes[mu, 1 - p][None]
    hop = lambda m, idx: np.take_along_axis(m, idx[:, None, None], axis=-1)
    dag = lambda m: m.conj().swapaxes(-3, -2)
    # upper: U_nu(x+mu) [U_nu(x) U_mu(x+nu)]^H, lower: [U_mu(x-nu) U_nu(x+mu-nu)]^H U_nu(x-nu)
    upper = _mul(planes[nus, q][..., fwd[mu, p]], dag(_mul(planes[nus, p], hop(u_mu, fwd[nus, p]))))
    lower = _mul(dag(_mul(hop(u_mu, bwd[nus, p]), hop(planes[nus, p], bwd[nus, q][:, fwd[mu, p]]))),
                 hop(planes[nus, q], bwd[nus, p]))
    return (upper + lower).sum(axis=0)
