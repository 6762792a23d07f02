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
    the executed runtime.  Measured races over several dslash engines
    additionally report ``best_engine`` and the per-engine breakdown
    ``engine_times`` (``times`` then holds each policy's best over the
    raced engines).
    """

    best: CommPolicy
    times: dict[CommPolicy, float]
    source: str = "model"
    best_engine: str = "interpreted"
    engine_times: dict | None = None

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
        engines: tuple[str, ...] = ("interpreted",),
        tuner=None,
        timeout: float = 60.0,
        seed: int = 0,
    ) -> CommTuneResult:
        """Race executable policies wall-clock on the real runtime.

        One :class:`~repro.comm.distributed.DecompRuntime` is stood up
        per (transport, engine); the three halo schedules are raced on
        each against a random ``n_rhs``-wide spinor stack (warm-up plus
        best-of-k timed hoppings, QUDA's noise-suppression strategy).
        Schedules a geometry cannot run (overlap needs local extent >= 2
        along every partitioned direction) are skipped rather than
        failed.  ``engines`` widens the race across dslash engines
        (``"interpreted"``/``"compiled"``); candidate names are then
        ``transport/engine/schedule`` and the cached winner carries the
        engine choice.

        ``transports`` may include ``"mpi"``: those schedules are timed
        *inside* one launcher-started rank program per engine
        (:func:`repro.comm.mpilaunch.mpi_bench_halo`, so launcher
        startup never pollutes the timings) and merged into the same
        race via ``extra_times``.  Requesting ``"mpi"`` where the stack
        is absent raises :class:`~repro.comm.mpilaunch.MpiLaunchError` —
        callers degrade to skip-with-reason.  The in-process
        ``"loopback"`` transport (MPI fabric over an in-process
        communicator) races like ``threads``/``shm``.

        Pass ``tuner`` (a :class:`~repro.autotune.kernel.KernelAutotuner`)
        to persist the race through its tunecache; a throwaway tuner is
        used otherwise.  The tune key's aux carries the rank-grid shape,
        the batch width, the raced transport and engine sets and the
        environment fingerprint (numba and mpi4py availability, SoA
        layout version), so a winner raced with numba is never replayed
        without it — and vice versa — and a different decomposition or
        transport set re-races.  Results are keyed by the *modeled*
        policy each executed combination corresponds to, so measured and
        modeled rankings are directly comparable.
        """
        from repro.autotune.kernel import KernelAutotuner, TuneKey
        from repro.comm.decomp import slab_grid
        from repro.comm.distributed import DecompRuntime
        from repro.comm.exchange import feasible_policies
        from repro.dirac.kernels.registry import _env_aux
        from repro.utils.rng import make_rng

        geom = gauge.geometry
        engines = tuple(engines)
        key = ("measured", tuple(geom.dims), ranks, n_rhs, tuple(transports), engines)
        if key in self._cache:
            return self._cache[key]
        if tuner is None:
            tuner = KernelAutotuner()
        grid_shape = "x".join(str(g) for g in slab_grid(geom.dims, ranks))
        tkey = TuneKey(
            kernel="halo_policy",
            volume=geom.volume,
            precision="complex128",
            aux=(
                f"ranks{ranks}|rhs{n_rhs}|{'+'.join(transports)}"
                f"|grid={grid_shape}|engines={'+'.join(engines)}|{_env_aux()}"
            ),
        )
        rng = make_rng(seed)
        psi = rng.normal(size=(n_rhs,) + geom.dims + (4, 3)) + 1j * rng.normal(
            size=(n_rhs,) + geom.dims + (4, 3)
        )
        multi_engine = engines != ("interpreted",)
        local_transports = tuple(t for t in transports if t != "mpi")
        extra_times: dict[str, float] = {}
        if "mpi" in transports and tuner.comm_choice(tkey) is None:
            from repro.comm.mpilaunch import mpi_bench_halo

            for engine in engines:
                bench = mpi_bench_halo(
                    gauge,
                    mass,
                    ranks=ranks,
                    n_rhs=n_rhs,
                    repeats=tuner.launches,
                    engine=engine,
                    timeout=max(timeout, 300.0),
                )
                for schedule, t in bench["times"].items():
                    name = (
                        f"mpi/{engine}/{schedule}"
                        if multi_engine
                        else f"mpi/{schedule}"
                    )
                    extra_times[name] = float(t)
        runtimes: list[DecompRuntime] = []
        try:
            candidates = {}
            for transport in local_transports:
                for engine in engines:
                    rt = DecompRuntime(
                        gauge,
                        mass,
                        ranks=ranks,
                        transport=transport,
                        policy="blocking",
                        engine=engine,
                        max_rhs=n_rhs,
                        timeout=timeout,
                    )
                    runtimes.append(rt)
                    for schedule in feasible_policies(rt.grid):

                        def thunk(rt=rt, schedule=schedule):
                            if rt.policy != schedule:
                                rt.set_policy(schedule)
                            rt.hopping(psi)

                        # legacy two-part names when only the default
                        # engine races, so cached entries stay stable
                        name = (
                            f"{transport}/{engine}/{schedule}"
                            if multi_engine
                            else f"{transport}/{schedule}"
                        )
                        candidates[name] = thunk
            entry = tuner.tune_comm_policy(
                tkey, candidates, extra_times=extra_times or None
            )
        finally:
            for rt in runtimes:
                rt.close()

        def parse(name: str) -> tuple[CommPolicy, str]:
            parts = name.split("/")
            if len(parts) == 3:
                return CommPolicy.from_executed(parts[0], parts[2]), parts[1]
            return CommPolicy.from_executed(parts[0], parts[1]), "interpreted"

        engine_times: dict[str, dict[CommPolicy, float]] = {}
        for name, t in entry.times.items():
            policy, engine = parse(name)
            engine_times.setdefault(engine, {})[policy] = t
        times: dict[CommPolicy, float] = {}
        for per_policy in engine_times.values():
            for policy, t in per_policy.items():
                times[policy] = min(t, times.get(policy, t))
        best, best_engine = parse(entry.backend)
        result = CommTuneResult(
            best=best,
            times=times,
            source="measured",
            best_engine=best_engine,
            engine_times=engine_times,
        )
        self._cache[key] = result
        return result

    def __len__(self) -> int:
        return len(self._cache)
