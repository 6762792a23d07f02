"""Communication-policy autotuning (the paper's QUDA extension).

"applying the autotuner to the stencil-communication policy is very
natural.  The end result is that we achieve not only performance
portability across GPU generations, but ... always use the optimum
communication strategy regardless of the machine topology and node count
we are deployed on" — Section V.

:meth:`CommPolicyTuner.tune` ranks every policy available on a
*modeled* machine through the solver performance model and caches the
winner in memory per (machine, lattice, ``Ls``, GPU count).  The
executed decomposition runtime (:mod:`repro.comm.distributed`) runs one
schedule, the fused blocking round, so there is no executed race to tune.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.policies import CommPolicy, available_policies
from repro.machines.registry import MachineSpec
from repro.perfmodel.solver import SolverPerfModel

__all__ = ["CommPolicyTuner", "CommTuneResult"]


@dataclass(frozen=True)
class CommTuneResult:
    """Outcome of one communication-policy tuning; ``source`` records
    where the timings came from (``"model"``: the performance model)."""

    best: CommPolicy
    times: dict[CommPolicy, float]
    source: str = "model"

    @property
    def speedup_vs_worst(self) -> float:
        return max(self.times.values()) / self.times[self.best]

    def ranking(self) -> list[tuple[CommPolicy, float]]:
        return sorted(self.times.items(), key=lambda kv: kv[1])


class CommPolicyTuner:
    """Caching tuner over the halo-exchange policy space."""

    def __init__(self) -> None:
        self._cache: dict[tuple, CommTuneResult] = {}

    @staticmethod
    def _key(machine: MachineSpec, dims: tuple, ls: int, n_gpus: int) -> tuple:
        return (machine.name, tuple(dims), ls, n_gpus)

    def tune(
        self,
        machine: MachineSpec,
        global_dims: tuple[int, int, int, int],
        ls: int,
        n_gpus: int,
    ) -> CommTuneResult:
        """Pick the fastest policy for a deployment point (cached)."""
        key = self._key(machine, global_dims, ls, n_gpus)
        if key in self._cache:
            return self._cache[key]
        model = SolverPerfModel(machine, tuple(global_dims), ls)
        times = {
            policy: model.iteration_time(n_gpus, policy)
            for policy in available_policies(machine)
        }
        best = min(times, key=times.get)
        result = CommTuneResult(best=best, times=times, source="model")
        self._cache[key] = result
        return result

    def __len__(self) -> int:
        return len(self._cache)
