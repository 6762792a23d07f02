"""Pure-gauge Hybrid Monte Carlo with a leapfrog integrator.

Complements the heatbath generator: HMC is the algorithm actually used to
produce the dynamical ensembles the paper consumes, so we provide the
pure-gauge version with the exact accept/reject step, reversibility and
the Creutz equality ``<exp(-dH)> = 1`` as testable invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lattice.gauge import GaugeField
from repro.lattice.su3 import NC, project_traceless_antihermitian, random_algebra, su3_expm
from repro.utils.rng import make_rng

__all__ = ["PureGaugeHMC", "HMCResult"]


@dataclass(frozen=True)
class HMCResult:
    """Outcome of one HMC trajectory."""

    accepted: bool
    delta_h: float
    plaquette: float


@dataclass
class PureGaugeHMC:
    """Leapfrog HMC for the Wilson gauge action.

    Parameters
    ----------
    beta:
        Gauge coupling.
    n_steps:
        Leapfrog steps per unit-length trajectory.
    traj_length:
        Molecular-dynamics trajectory length (1.0 is standard).
    """

    beta: float
    n_steps: int = 10
    traj_length: float = 1.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.traj_length <= 0:
            raise ValueError("traj_length must be positive")
        self.rng = make_rng(self.rng)

    # -- pieces of the Hamiltonian ----------------------------------------
    def kinetic_energy(self, mom: np.ndarray) -> float:
        """``K = -sum tr(P^2) = ||P||_F^2`` for antihermitian momenta."""
        return float(np.sum(np.abs(mom) ** 2))

    def force(self, gauge: GaugeField) -> np.ndarray:
        """Molecular-dynamics force ``F_mu(x) = (beta/2Nc) TA[U_mu(x) A_mu(x)]``.

        ``dP/dtau = -F`` conserves ``H = -sum tr(P^2) + S_Wilson(U)`` (the
        dt^2 scaling of the leapfrog energy violation is tested).
        """
        f = np.empty_like(gauge.u)
        for mu in range(4):
            ua = gauge.u[mu] @ gauge.staple(mu)
            f[mu] = (self.beta / (2.0 * NC)) * project_traceless_antihermitian(ua)
        return f

    def sample_momenta(self, gauge: GaugeField) -> np.ndarray:
        """Gaussian momenta with density ``exp(tr P^2)`` (unit generators)."""
        return random_algebra(self.rng, (4,) + gauge.geometry.dims, scale=1.0 / np.sqrt(2.0))

    def hamiltonian(self, gauge: GaugeField, mom: np.ndarray) -> float:
        return self.kinetic_energy(mom) + gauge.wilson_action(self.beta)

    # -- integrator ----------------------------------------------------------
    def leapfrog(self, gauge: GaugeField, mom: np.ndarray) -> tuple[GaugeField, np.ndarray]:
        """Integrate Hamilton's equations; returns the evolved pair.

        The update is time-reversible: integrating, flipping momenta and
        integrating again returns the initial state to machine precision.
        """
        dt = self.traj_length / self.n_steps
        g = gauge.copy()
        p = mom - 0.5 * dt * self.force(g)
        for step in range(self.n_steps):
            g.u = su3_expm(dt * p) @ g.u
            if step != self.n_steps - 1:
                p = p - dt * self.force(g)
        p = p - 0.5 * dt * self.force(g)
        return g, p

    # -- trajectory -----------------------------------------------------------
    def trajectory(self, gauge: GaugeField) -> HMCResult:
        """One complete HMC trajectory with Metropolis accept/reject.

        Mutates ``gauge`` in place when the proposal is accepted.
        """
        mom = self.sample_momenta(gauge)
        h_old = self.hamiltonian(gauge, mom)
        new_gauge, new_mom = self.leapfrog(gauge, mom)
        h_new = self.hamiltonian(new_gauge, new_mom)
        dh = h_new - h_old
        accepted = bool(self.rng.random() < np.exp(min(0.0, -dh)))
        if accepted:
            gauge.u = new_gauge.u
            gauge.reunitarize()
        return HMCResult(accepted=accepted, delta_h=float(dh), plaquette=gauge.plaquette())

    def run(self, gauge: GaugeField, n_traj: int) -> list[HMCResult]:
        """Run ``n_traj`` trajectories, returning their results."""
        return [self.trajectory(gauge) for _ in range(n_traj)]
