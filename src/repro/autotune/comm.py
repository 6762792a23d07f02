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

Both cache the winner in memory — per (machine, lattice, ``Ls``, GPU
count) for the model, per (lattice, ranks, rhs width, transports) for
measurements.  :func:`race_policies` is the one executed race; the
decomposition benchmark (:mod:`repro.comm.bench`) reads its rows too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.comm.policies import CommPolicy, available_policies
from repro.machines.registry import MachineSpec
from repro.perfmodel.solver import SolverPerfModel

__all__ = ["CommPolicyTuner", "CommTuneResult", "race_policies"]


def race_policies(rt, psi, repeats: int = 3, policies=None) -> dict:
    """Race the halo schedules ``rt``'s grid can run on a stacked hopping.

    Per policy: ``seconds`` is the best of ``repeats`` timed hoppings
    after an untimed warm-up (workspace allocation — QUDA likewise
    discards the first launch), and ``halo_wait_s`` / ``interior_s`` the
    per-hopping halo wait and overlap window, each the max over ranks of
    the cumulative counters' growth between two ``halo_stats()`` reads
    around the timed calls.  Schedules the grid cannot run (overlap needs
    local extent >= 2 along every partitioned direction) are skipped.
    """
    from repro.comm.exchange import feasible_policies

    rows: dict = {}
    for policy in feasible_policies(rt.grid):
        if policies is not None and policy not in policies:
            continue
        rt.set_policy(policy)
        rt.hopping(psi)  # warm-up
        before = rt.halo_stats()
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            rt.hopping(psi)
            best = min(best, time.perf_counter() - t0)
        after = rt.halo_stats()

        def growth(key: str) -> float:
            return max(b[key] - a[key] for a, b in zip(before, after)) / repeats

        rows[policy] = {
            "seconds": best,
            "halo_wait_s": growth("wait_seconds"),
            "interior_s": growth("interior_seconds"),
        }
    return rows


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
        timeout: float = 60.0,
        seed: int = 0,
    ) -> CommTuneResult:
        """Race executable policies wall-clock on the real runtime (cached).

        One :class:`~repro.comm.distributed.DecompRuntime` is stood up
        per transport (``threads`` / ``shm``) and :func:`race_policies`
        runs the halo schedules its grid can run against a random
        ``n_rhs``-wide spinor stack.  Results are keyed by the *modeled*
        policy each executed combination corresponds to, so measured and
        modeled rankings are directly comparable.  The cache key carries
        the lattice, the rank count, the batch width and the raced
        transport set, so a different decomposition or transport set
        re-races.
        """
        from repro.comm.distributed import DecompRuntime
        from repro.utils.rng import make_rng

        geom = gauge.geometry
        key = ("measured", tuple(geom.dims), ranks, n_rhs, tuple(transports))
        if key in self._cache:
            return self._cache[key]
        rng = make_rng(seed)
        psi = rng.normal(size=(n_rhs,) + geom.dims + (4, 3)) + 1j * rng.normal(
            size=(n_rhs,) + geom.dims + (4, 3)
        )
        times: dict[CommPolicy, float] = {}
        for transport in transports:
            with DecompRuntime(
                gauge,
                mass,
                ranks=ranks,
                transport=transport,
                policy="blocking",
                max_rhs=n_rhs,
                timeout=timeout,
            ) as rt:
                rows = race_policies(rt, psi)
            for schedule, row in rows.items():
                times[CommPolicy.from_executed(transport, schedule)] = row["seconds"]
        best = min(times, key=times.get)
        result = CommTuneResult(best=best, times=times, source="measured")
        self._cache[key] = result
        return result

    def __len__(self) -> int:
        return len(self._cache)
