"""Communication-policy autotuning (the paper's QUDA extension).

"applying the autotuner to the stencil-communication policy is very
natural.  The end result is that we achieve not only performance
portability across GPU generations, but ... always use the optimum
communication strategy regardless of the machine topology and node count
we are deployed on" — Section V.

Two tuning modes share one result schema:

* :meth:`CommPolicyTuner.tune` ranks every policy available on a
  *modeled* machine through the solver performance model (``source ==
  "model"``); and
* :meth:`CommPolicyTuner.tune_measured` races the *executable* subset
  wall-clock through the real decomposition runtime
  (:class:`repro.comm.distributed.DecompRuntime`), timing actual halo
  exchanges between worker ranks (``source == "measured"``).

Both cache the winner — per (machine, lattice, ``Ls``, GPU count) for
the model, per (lattice, ranks, rhs width) for measurements, the latter
optionally persisted through a :class:`~repro.autotune.kernel.KernelAutotuner`
tunecache so a fresh process never re-races.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.policies import CommPolicy, available_policies
from repro.machines.registry import MachineSpec
from repro.perfmodel.solver import SolverPerfModel

__all__ = ["CommPolicyTuner", "CommTuneResult"]


@dataclass(frozen=True)
class CommTuneResult:
    """Outcome of one communication-policy tuning.

    ``source`` records where the timings came from: ``"model"`` for the
    performance-model ranking, ``"measured"`` for a wall-clock race of
    the executed runtime.
    """

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

    def tune_measured(
        self,
        gauge,
        mass: float,
        *,
        ranks: int,
        n_rhs: int = 4,
        transports: tuple[str, ...] = ("threads",),
        tuner=None,
        timeout: float = 60.0,
        seed: int = 0,
    ) -> CommTuneResult:
        """Race executable policies wall-clock on the real runtime.

        One :class:`~repro.comm.distributed.DecompRuntime` is stood up
        per transport (``threads`` / ``shm``); the three halo schedules
        are raced on each against a random ``n_rhs``-wide spinor stack
        (warm-up plus best-of-k timed hoppings, QUDA's noise-suppression
        strategy).  Schedules a geometry cannot run (overlap needs local
        extent >= 2 along every partitioned direction) are skipped rather
        than failed.

        Pass ``tuner`` (a :class:`~repro.autotune.kernel.KernelAutotuner`)
        to persist the race through its tunecache; a throwaway tuner is
        used otherwise.  The tune key's aux carries the rank-grid shape,
        the batch width and the raced transport set, so a different
        decomposition or transport set re-races.  Results are keyed by
        the *modeled* policy each executed combination corresponds to,
        so measured and modeled rankings are directly comparable.
        """
        from repro.autotune.kernel import KernelAutotuner, TuneKey
        from repro.comm.decomp import slab_grid
        from repro.comm.distributed import DecompRuntime
        from repro.comm.exchange import feasible_policies
        from repro.utils.rng import make_rng

        geom = gauge.geometry
        key = ("measured", tuple(geom.dims), ranks, n_rhs, tuple(transports))
        if key in self._cache:
            return self._cache[key]
        if tuner is None:
            tuner = KernelAutotuner()
        grid_shape = "x".join(str(g) for g in slab_grid(geom.dims, ranks))
        tkey = TuneKey(
            kernel="halo_policy",
            volume=geom.volume,
            precision="complex128",
            aux=f"ranks{ranks}|rhs{n_rhs}|{'+'.join(transports)}|grid={grid_shape}",
        )
        rng = make_rng(seed)
        psi = rng.normal(size=(n_rhs,) + geom.dims + (4, 3)) + 1j * rng.normal(
            size=(n_rhs,) + geom.dims + (4, 3)
        )
        runtimes: list[DecompRuntime] = []
        try:
            candidates = {}
            for transport in transports:
                rt = DecompRuntime(
                    gauge,
                    mass,
                    ranks=ranks,
                    transport=transport,
                    policy="blocking",
                    max_rhs=n_rhs,
                    timeout=timeout,
                )
                runtimes.append(rt)
                for schedule in feasible_policies(rt.grid):

                    def thunk(rt=rt, schedule=schedule):
                        if rt.policy != schedule:
                            rt.set_policy(schedule)
                        rt.hopping(psi)

                    candidates[f"{transport}/{schedule}"] = thunk
            entry = tuner.tune_comm_policy(tkey, candidates)
        finally:
            for rt in runtimes:
                rt.close()

        def parse(name: str) -> CommPolicy:
            return CommPolicy.from_executed(*name.split("/"))

        times = {parse(name): t for name, t in entry.times.items()}
        result = CommTuneResult(best=parse(entry.backend), times=times, source="measured")
        self._cache[key] = result
        return result

    def __len__(self) -> int:
        return len(self._cache)
