"""Time to solution — the paper's Table I category of achievement.

Connects the two halves of the reproduction: the *statistical* scaling
of the Feynman-Hellmann analysis (precision ~ 1/sqrt(N_samples),
calibrated on the synthetic a09m310 ensemble: 784 samples -> 0.88%) and
the *machine* throughput of the weak-scaled campaign (solves per hour at
the sustained rate).  The result is the wall time to reach a target g_A
precision on each system — the number that turns Sierra's 12x
machine-to-machine speedup into physics per day.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machines.registry import MachineSpec
from repro.perfmodel.solver import SolverPerfModel

__all__ = ["CampaignSpec", "TimeToSolution", "time_to_solution"]

#: Calibration of the FH analysis: relative g_A error at 784 samples
#: (the joint fit on Fig. 1's ensemble, examples/neutron_lifetime.py,
#: reads 0.86%).
_REFERENCE_SAMPLES = 784
_REFERENCE_PRECISION = 0.0088

#: Solves per statistical sample: 12 spin-colour columns for the
#: standard propagator plus 12 for the FH propagator.
_SOLVES_PER_SAMPLE = 24


@dataclass(frozen=True)
class CampaignSpec:
    """Shape of a g_A measurement campaign."""

    target_precision: float  # relative g_A error
    global_dims: tuple[int, int, int, int] = (48, 48, 48, 64)
    ls: int = 20
    cg_iterations_per_solve: int = 5000
    nodes_per_group: int = 4
    utilization: float = 0.95
    #: independent ensembles for the continuum/chiral/volume systematics
    #: (the published calculation uses ~15 and the statistical error must
    #: be reached on each)
    n_ensembles: int = 15

    def __post_init__(self) -> None:
        if not 0 < self.target_precision < 1:
            raise ValueError("target_precision must be a relative error in (0, 1)")
        if self.n_ensembles < 1:
            raise ValueError("need at least one ensemble")

    @property
    def samples_needed(self) -> float:
        """1/sqrt(N) statistics from the calibrated reference point
        (per ensemble)."""
        return _REFERENCE_SAMPLES * (_REFERENCE_PRECISION / self.target_precision) ** 2

    @property
    def solves_needed(self) -> float:
        return self.samples_needed * _SOLVES_PER_SAMPLE * self.n_ensembles


@dataclass(frozen=True)
class TimeToSolution:
    """The campaign estimate for one machine."""

    machine: str
    n_nodes: int
    n_groups: int
    solves_needed: float
    seconds_per_solve: float
    wall_seconds: float

    @property
    def wall_days(self) -> float:
        return self.wall_seconds / 86_400.0


def time_to_solution(
    machine: MachineSpec,
    n_nodes: int,
    spec: CampaignSpec,
    mpi_performance_factor: float = 1.0,
) -> TimeToSolution:
    """Wall time for a g_A campaign on ``n_nodes`` of a machine.

    The campaign weak-scales: ``n_nodes / nodes_per_group`` solves run
    concurrently at the per-group rate from the solver model, with the
    scheduler utilization applied.
    """
    groups = n_nodes // spec.nodes_per_group
    if groups < 1:
        raise ValueError(
            f"{n_nodes} nodes cannot host a {spec.nodes_per_group}-node group"
        )
    model = SolverPerfModel(
        machine,
        tuple(spec.global_dims),
        spec.ls,
        mpi_performance_factor=mpi_performance_factor,
    )
    point = model.predict(spec.nodes_per_group * machine.gpus_per_node)
    seconds_per_solve = point.time_per_iter_s * spec.cg_iterations_per_solve
    concurrent = groups * spec.utilization
    wall = spec.solves_needed * seconds_per_solve / concurrent
    return TimeToSolution(
        machine=machine.name,
        n_nodes=n_nodes,
        n_groups=groups,
        solves_needed=spec.solves_needed,
        seconds_per_solve=seconds_per_solve,
        wall_seconds=wall,
    )
