"""``repro-bench-decomp``: wall-clock benchmark of the decomposition runtime.

Times the process-parallel dslash and the batched even-odd CGNE
propagator solve against the single-process PR-2 baseline, races the
executed halo policies, and emits a JSON report (``BENCH_decomp.json``
when driven through ``benchmarks/bench_decomp_halo.py``).

The headline number mirrors the paper's per-node solver speedup claim at
reproduction scale: a 12-RHS even-odd CGNE solve at 8^3x16 must run at
least 1.5x faster through the rank-parallel runtime than through the
serial batched solver, bit-for-bit reproducing its answer.

``bench_engines`` adds per-engine rows (interpreted vs compiled SoA,
per policy, per RHS width) with halo-wait accounting and the fraction
of the halo wait the overlap schedule hides; ``bench_cg_engine_race``
races the compiled SoA engine against the interpreted fused engine on
the 12-RHS CG acceptance point (numba-enabled hosts only).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

__all__ = [
    "host_metadata",
    "bench_halo",
    "bench_engines",
    "bench_transport_halo",
    "bench_cg_headline",
    "bench_cg_engine_race",
    "run",
    "main",
]

#: (label, dims) halo-timing ladder; asymmetric volume exercises every
#: direction distinctly.
HALO_VOLUMES: tuple[tuple[str, tuple[int, int, int, int]], ...] = (
    ("4x6x2x8", (4, 6, 2, 8)),
    ("8x8x8x16", (8, 8, 8, 16)),
)

#: the acceptance volume for the CG headline
CG_VOLUME = (8, 8, 8, 16)
N_RHS = 12
REPEATS = 3


def host_metadata() -> dict:
    """Machine facts every benchmark JSON should carry for comparability."""
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _race_policies(rt, psi, repeats: int, policies=None) -> dict:
    """Race the halo schedules ``rt``'s grid can run on a stacked hopping.

    Per policy: ``seconds`` is the best of ``repeats`` timed hoppings
    after a warm-up (workspace allocation, einsum path resolution), and
    ``halo_wait_s`` / ``interior_s`` the per-hopping halo wait and
    overlap window, each the max over ranks of the cumulative counters'
    growth between two ``halo_stats()`` reads around the timed calls.
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


def bench_halo(
    gauge,
    mass: float,
    *,
    ranks: tuple[int, ...],
    n_rhs: int = 4,
    repeats: int = REPEATS,
    transports: tuple[str, ...] = ("threads", "processes"),
    policies: tuple[str, ...] | None = None,
    timeout: float = 120.0,
) -> dict:
    """Per-(ranks, transport, policy) stacked-hopping timings."""
    from repro.comm.distributed import DecompRuntime
    from repro.utils.rng import make_rng

    geom = gauge.geometry
    rng = make_rng(77)
    shape = (n_rhs,) + geom.dims + (4, 3)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    out: dict = {}
    for nr in ranks:
        per_rank: dict = {}
        for transport in transports:
            with DecompRuntime(
                gauge,
                mass,
                ranks=nr,
                transport=transport,
                policy="blocking",
                max_rhs=n_rhs,
                timeout=timeout,
            ) as rt:
                rows = _race_policies(rt, psi, repeats, policies)
            per_rank[transport] = {p: row["seconds"] for p, row in rows.items()}
        out[str(nr)] = per_rank
    return out


def bench_engines(
    gauge,
    mass: float,
    *,
    ranks: int,
    n_rhs_list: tuple[int, ...] = (1, N_RHS),
    repeats: int = REPEATS,
    engines: tuple[str, ...] | None = None,
    transport: str = "threads",
    timeout: float = 300.0,
) -> dict:
    """Per-(engine, n_rhs, policy) hopping rows with halo-wait accounting.

    Each row carries the best-of-k wall time plus the per-hopping halo
    wait and (overlap schedule only) the interior-compute window, both
    taken as the max over ranks of the workers' cumulative counters.
    The ``overlap_efficiency`` summary is the fraction of the blocking
    schedule's halo wait that the overlap schedule hides:
    ``1 - wait_overlap / wait_blocking``.

    Without numba the compiled tier executes its interpreted per-site
    fallback bodies — correct but not a performance row — so compiled
    rows default to numba-enabled hosts only; dropped coverage is
    recorded under ``"skipped"`` rather than silently omitted.
    """
    from repro.comm.distributed import ENGINES, DecompRuntime
    from repro.comm.exchange import EXECUTED_POLICIES
    from repro.dirac.kernels import NUMBA_AVAILABLE
    from repro.utils.rng import make_rng

    if engines is None:
        engines = ENGINES if NUMBA_AVAILABLE else ("interpreted",)
    geom = gauge.geometry
    rng = make_rng(77)
    rows: list[dict] = []
    skipped: list[str] = []
    if "compiled" not in engines:
        skipped.append(
            "compiled engine rows (numba unavailable: the interpreted "
            "fallback bodies are not a performance tier)"
        )
    waits: dict = {}
    for engine in engines:
        for n_rhs in n_rhs_list:
            shape = (n_rhs,) + geom.dims + (4, 3)
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            with DecompRuntime(
                gauge,
                mass,
                ranks=ranks,
                transport=transport,
                policy="blocking",
                engine=engine,
                max_rhs=n_rhs,
                timeout=timeout,
            ) as rt:
                raced = _race_policies(rt, psi, repeats)
            for policy in EXECUTED_POLICIES:
                if policy not in raced:
                    skipped.append(f"{engine}/{policy}/rhs{n_rhs} (local extent < 2)")
                    continue
                waits[(engine, n_rhs, policy)] = raced[policy]["halo_wait_s"]
                rows.append(
                    {"engine": engine, "ranks": ranks, "n_rhs": n_rhs,
                     "policy": policy, **raced[policy]}
                )

    efficiency: dict = {}
    for engine in engines:
        for n_rhs in n_rhs_list:
            wb = waits.get((engine, n_rhs, "blocking"))
            wo = waits.get((engine, n_rhs, "overlap"))
            if wb and wo is not None and wb > 0:
                efficiency.setdefault(engine, {})[str(n_rhs)] = 1.0 - wo / wb
    return {
        "volume": "x".join(map(str, geom.dims)),
        "ranks": ranks,
        "transport": transport,
        "rows": rows,
        "overlap_efficiency": efficiency,
        "skipped": skipped,
    }


def bench_transport_halo(
    gauge,
    mass: float,
    *,
    ranks: int,
    n_rhs: int = 4,
    repeats: int = REPEATS,
    transports: tuple[str, ...] | None = None,
    engine: str = "interpreted",
    timeout: float = 300.0,
) -> dict:
    """Per-transport halo rows: measured wait + overlap efficiency.

    One entry per transport (``threads``/``shm``/``loopback``/``mpi``):
    ``{"policies": {policy: {"seconds", "halo_wait_s"}},
    "overlap_efficiency"}``.  A transport that cannot run here (the MPI
    stack absent, a launch failure) degrades to ``{"skipped": reason}``
    instead of failing the benchmark.  The MPI entry additionally
    carries the measured link parameters (ping-pong latency/bandwidth,
    face bytes and messages per halo round) and a ``model_check``
    cross-validating the measured blocking halo wait against the
    latency+bandwidth prediction for the same traffic — the executed
    counterpart of :class:`repro.comm.model.CommCostModel`.
    """
    from repro.comm.distributed import DecompRuntime
    from repro.comm.transports import TRANSPORTS, transport_available
    from repro.utils.rng import make_rng

    geom = gauge.geometry
    rng = make_rng(77)
    shape = (n_rhs,) + geom.dims + (4, 3)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out: dict = {
        "volume": "x".join(map(str, geom.dims)),
        "ranks": ranks,
        "engine": engine,
        "transports": {},
    }

    def efficiency(waits: dict) -> float | None:
        wb, wo = waits.get("blocking"), waits.get("overlap")
        return 1.0 - wo / wb if wb and wo is not None and wb > 0 else None

    for transport in transports or TRANSPORTS:
        ok, reason = transport_available(transport, n_ranks=ranks)
        if not ok:
            out["transports"][transport] = {"skipped": reason}
            continue
        if transport == "mpi":
            from repro.comm.mpilaunch import MpiLaunchError, mpi_bench_halo

            try:
                bench = mpi_bench_halo(
                    gauge, mass, ranks=ranks, n_rhs=n_rhs, repeats=repeats,
                    engine=engine, timeout=max(timeout, 600.0),
                )
            except MpiLaunchError as e:
                out["transports"][transport] = {"skipped": str(e)}
                continue
            policies = {
                p: {"seconds": bench["times"][p], "halo_wait_s": bench["halo_wait_s"][p]}
                for p in bench["times"]
            }
            waits = {p: r["halo_wait_s"] for p, r in policies.items()}
            entry: dict = {
                "policies": policies,
                "overlap_efficiency": efficiency(waits),
                "latency_s": bench["latency_s"],
                "bandwidth_gbs": bench["bandwidth_gbs"],
                "bytes_per_round": bench["bytes_per_round"],
                "messages_per_round": bench["messages_per_round"],
            }
            # latency+bandwidth prediction for the measured traffic,
            # from the same job's ping-pong link parameters
            if bench["bandwidth_gbs"] > 0 and "blocking" in waits:
                predicted = (
                    bench["messages_per_round"] * bench["latency_s"]
                    + bench["bytes_per_round"] / (bench["bandwidth_gbs"] * 1e9)
                )
                measured = waits["blocking"]
                entry["model_check"] = {
                    "predicted_s": predicted,
                    "measured_s": measured,
                    "ratio": measured / predicted if predicted > 0 else None,
                }
            out["transports"][transport] = entry
            continue
        with DecompRuntime(
            gauge, mass, ranks=ranks, transport=transport,
            policy="blocking", engine=engine, max_rhs=n_rhs, timeout=timeout,
        ) as rt:
            raced = _race_policies(rt, psi, repeats)
        policies = {
            p: {"seconds": row["seconds"], "halo_wait_s": row["halo_wait_s"]}
            for p, row in raced.items()
        }
        waits = {p: r["halo_wait_s"] for p, r in policies.items()}
        out["transports"][transport] = {
            "policies": policies,
            "overlap_efficiency": efficiency(waits),
        }
    return out


def bench_cg_headline(
    *,
    ranks: int = 4,
    n_rhs: int = N_RHS,
    tol: float = 1e-8,
    max_iter: int = 600,
    mass: float = 0.12,
    policy: str = "blocking",
    timeout: float = 300.0,
) -> dict:
    """Serial vs rank-parallel batched 12-RHS even-odd CGNE at 8^3x16.

    Returns the acceptance record: wall times, speedup, iteration
    counts, and whether the distributed answer matches the serial one.
    """
    from repro.comm.distributed import DistributedCG, DistributedEvenOddOperator
    from repro.dirac.evenodd_wilson import EvenOddWilson
    from repro.dirac.wilson import WilsonOperator
    from repro.lattice import GaugeField, Geometry
    from repro.solvers.cg import ConjugateGradient, solve_normal_equations_batched
    from repro.utils.rng import make_rng

    geom = Geometry(*CG_VOLUME)
    gauge = GaugeField.random(geom, make_rng(21), scale=0.35)
    rng = make_rng(9)
    shape = (n_rhs,) + geom.dims + (4, 3)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    eo = EvenOddWilson(WilsonOperator(gauge, mass, backend="halfspinor"))

    def serial_solve(rhs, iters):
        prepared = eo.prepare_rhs(rhs)
        res = solve_normal_equations_batched(
            eo.schur_apply,
            eo.schur_dagger_apply,
            prepared,
            ConjugateGradient(tol=tol, max_iter=iters),
        )
        return res, eo.reconstruct(res.x, rhs)

    serial_solve(b[:1], 8)  # warm-up: workspace allocation
    t0 = time.perf_counter()
    serial, x_serial = serial_solve(b, max_iter)
    t_serial = time.perf_counter() - t0

    with DistributedEvenOddOperator(
        gauge,
        mass,
        ranks=ranks,
        backend="halfspinor",
        policy=policy,
        timeout=timeout,
    ) as op:
        solver = DistributedCG(op, tol=tol, max_iter=max_iter)
        solver.solve_batched(b[:1])  # warm-up
        t0 = time.perf_counter()
        dist = solver.solve_batched(b)
        t_dist = time.perf_counter() - t0

    return {
        "volume": "x".join(map(str, CG_VOLUME)),
        "n_rhs": n_rhs,
        "ranks": ranks,
        "policy": policy,
        "serial_s": t_serial,
        "distributed_s": t_dist,
        "speedup": t_serial / t_dist,
        "iterations_serial": int(serial.iterations),
        "iterations_distributed": int(dist.iterations),
        "converged": bool(dist.converged.all()),
        "allclose_vs_serial": bool(
            np.allclose(dist.x, x_serial, rtol=1e-5, atol=1e-8)
        ),
    }


def bench_cg_engine_race(
    *,
    ranks: int = 4,
    n_rhs: int = N_RHS,
    tol: float = 1e-8,
    max_iter: int = 600,
    mass: float = 0.12,
    timeout: float = 600.0,
) -> dict:
    """Batched 12-RHS distributed CGNE: compiled SoA engine (overlap
    schedule) vs the interpreted fused engine (blocking) at the
    acceptance volume.  Only meaningful where numba imports — the
    caller gates on :data:`~repro.dirac.kernels.NUMBA_AVAILABLE`."""
    from repro.comm.distributed import DistributedCG, DistributedEvenOddOperator
    from repro.lattice import GaugeField, Geometry
    from repro.utils.rng import make_rng

    geom = Geometry(*CG_VOLUME)
    gauge = GaugeField.random(geom, make_rng(21), scale=0.35)
    rng = make_rng(9)
    shape = (n_rhs,) + geom.dims + (4, 3)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    out: dict = {
        "volume": "x".join(map(str, CG_VOLUME)),
        "n_rhs": n_rhs,
        "ranks": ranks,
    }
    answers = {}
    for engine, policy in (("interpreted", "blocking"), ("compiled", "overlap")):
        with DistributedEvenOddOperator(
            gauge, mass, ranks=ranks, engine=engine, policy=policy,
            timeout=timeout,
        ) as op:
            solver = DistributedCG(op, tol=tol, max_iter=max_iter)
            solver.solve_batched(b[:1])  # warm-up
            t0 = time.perf_counter()
            res = solver.solve_batched(b)
            out[engine] = {
                "seconds": time.perf_counter() - t0,
                "policy": policy,
                "iterations": int(res.iterations),
                "converged": bool(res.converged.all()),
            }
            answers[engine] = res.x
    out["speedup"] = out["interpreted"]["seconds"] / out["compiled"]["seconds"]
    out["allclose"] = bool(
        np.allclose(answers["interpreted"], answers["compiled"],
                    rtol=1e-5, atol=1e-8)
    )
    return out


def run(
    *,
    ranks: tuple[int, ...] = (2, 4),
    n_rhs: int = 4,
    repeats: int = REPEATS,
    transports: tuple[str, ...] = ("threads", "processes"),
    policies: tuple[str, ...] | None = None,
    cg_ranks: int | None = 4,
    mass: float = 0.12,
) -> dict:
    """Full decomposition benchmark: halo ladder, measured policy race,
    and (unless ``cg_ranks`` is None) the CG acceptance headline."""
    from repro.autotune.comm import CommPolicyTuner
    from repro.lattice import GaugeField, Geometry
    from repro.utils.rng import make_rng

    results: dict = {
        "host": host_metadata(),
        "n_rhs": n_rhs,
        "repeats": repeats,
        "halo": {},
    }
    for label, dims in HALO_VOLUMES:
        geom = Geometry(*dims)
        gauge = GaugeField.random(geom, make_rng(55), scale=0.35)
        feasible = tuple(r for r in ranks if dims[0] % r == 0)
        results["halo"][label] = bench_halo(
            gauge,
            mass,
            ranks=feasible,
            n_rhs=n_rhs,
            repeats=repeats,
            transports=transports,
            policies=policies,
        )

    # measured policy race on the acceptance volume, through the tuner
    geom = Geometry(*CG_VOLUME)
    gauge = GaugeField.random(geom, make_rng(55), scale=0.35)
    race_ranks = max(r for r in ranks if CG_VOLUME[0] % r == 0)
    res = CommPolicyTuner().tune_measured(
        gauge, mass, ranks=race_ranks, n_rhs=n_rhs, transports=transports
    )
    results["measured_policy_race"] = {
        "volume": "x".join(map(str, CG_VOLUME)),
        "ranks": race_ranks,
        "source": res.source,
        "best": res.best.name,
        "best_engine": res.best_engine,
        "ranking": [[p.name, t] for p, t in res.ranking()],
        "speedup_vs_worst": res.speedup_vs_worst,
    }

    # per-engine rows (interpreted vs compiled, per policy, per nrhs)
    # with the overlap-hiding fraction, on the acceptance volume
    results["engine_rows"] = bench_engines(
        gauge, mass, ranks=race_ranks, n_rhs_list=(1, N_RHS), repeats=repeats
    )

    # per-transport halo rows (threads/shm/loopback/mpi) on the small
    # ladder volume; transports the host cannot run degrade to a
    # skip-with-reason entry rather than failing the benchmark
    label, dims = HALO_VOLUMES[0]
    geom = Geometry(*dims)
    results["transport_halo"] = bench_transport_halo(
        GaugeField.random(geom, make_rng(55), scale=0.35),
        mass,
        ranks=max(r for r in ranks if dims[0] % r == 0),
        n_rhs=n_rhs,
        repeats=repeats,
    )

    if cg_ranks is not None:
        results["cg_headline"] = bench_cg_headline(ranks=cg_ranks, mass=mass)
        from repro.dirac.kernels import NUMBA_AVAILABLE

        if NUMBA_AVAILABLE:
            results["cg_engine_race"] = bench_cg_engine_race(
                ranks=cg_ranks, mass=mass
            )
        else:
            results["cg_engine_race"] = {
                "skipped": "numba unavailable: the compiled engine would "
                "race its interpreted fallback bodies"
            }
    return results


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-bench-decomp``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench-decomp",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--ranks",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=(2, 4),
        help="comma-separated rank counts for the halo ladder (default 2,4)",
    )
    parser.add_argument(
        "--policy",
        choices=["blocking", "pairwise", "overlap"],
        default=None,
        help="restrict the halo ladder to one executed policy",
    )
    parser.add_argument(
        "--transports",
        type=lambda s: tuple(s.split(",")),
        default=("threads", "processes"),
        help="comma-separated transports (default threads,processes)",
    )
    parser.add_argument("--n-rhs", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument(
        "--cg-ranks",
        type=int,
        default=4,
        help="rank count for the CG acceptance headline",
    )
    parser.add_argument(
        "--no-cg",
        action="store_true",
        help="skip the (slow) CG headline solve",
    )
    parser.add_argument("--output", default=None, help="write JSON here")
    args = parser.parse_args(argv)

    results = run(
        ranks=args.ranks,
        n_rhs=args.n_rhs,
        repeats=args.repeats,
        transports=args.transports,
        policies=(args.policy,) if args.policy else None,
        cg_ranks=None if args.no_cg else args.cg_ranks,
    )
    text = json.dumps(results, indent=1, sort_keys=True)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
