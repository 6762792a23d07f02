"""Wall-clock timing of the dslash kernels, per volume.

Runs both hopping-term kernels (the production ``halfspinor`` kernel and
its ``reference`` oracle) behind a Wilson operator on a ladder of local
volumes and emits ``BENCH_dslash.json`` (next to this file) with
per-kernel timings and model GFlop/s, plus the multi-RHS amortization
factor of the batched path — the perf trajectory future PRs compare
against.

Usage::

    PYTHONPATH=src python benchmarks/bench_dslash_backends.py

or through pytest (registers a report section and asserts the
half-spinor kernel beats the reference stencil)::

    PYTHONPATH=src python -m pytest benchmarks/bench_dslash_backends.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.comm.bench import host_metadata
from repro.dirac import WilsonOperator
from repro.dirac.kernels import ReferenceKernel
from repro.lattice import GaugeField, Geometry
from repro.perfmodel.roofline import host_roofline
from repro.utils.rng import make_rng

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dslash.json"

#: (label, dims) ladder — tiny volume for overhead visibility, the paper
#: benchmark volume for the headline number.
VOLUMES: tuple[tuple[str, tuple[int, int, int, int]], ...] = (
    ("4x4x4x8", (4, 4, 4, 8)),
    ("8x8x8x16", (8, 8, 8, 16)),
)

N_RHS = 12  # one propagator's worth of spin-colour sources
REPEATS = 5


def _best_of(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up: workspace allocation, einsum path resolution
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(
    volumes=VOLUMES,
    repeats: int = REPEATS,
    ranks: int = 1,
    policy: str = "blocking",
) -> dict:
    """Time the kernels; ``ranks > 1`` additionally times the stacked
    hopping through the decomposition runtime under ``policy``."""
    roofline = host_roofline()
    results: dict = {
        "host": host_metadata(),
        "n_rhs": N_RHS,
        "repeats": repeats,
        "ranks": ranks,
        "policy": policy,
        "roofline": {
            "peak_gflops": roofline.peak_gflops,
            "peak_bw_gbs": roofline.peak_bw_gbs,
            "label": roofline.label,
        },
        "volumes": {},
    }
    for label, dims in volumes:
        geom = Geometry(*dims)
        gauge = GaugeField.random(geom, make_rng(55), scale=0.35)
        rng = make_rng(56)
        shape = geom.dims + (4, 3)
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stack = rng.normal(size=(N_RHS,) + shape) + 1j * rng.normal(
            size=(N_RHS,) + shape
        )

        w = WilsonOperator(gauge, mass=0.1)
        kernels = {
            "halfspinor": w.kernel,
            "reference": ReferenceKernel(w.u, w.u_dag, w.geometry),
        }
        per_kernel: dict = {}
        for name, kernel in kernels.items():
            w.kernel = kernel
            t = _best_of(lambda: w.hopping(psi), repeats)
            flops = w.flops_per_apply(psi.shape)
            # Same traffic model as the dslash span: read the fermion and
            # both link copies, write the output field.
            nbytes = 2 * psi.nbytes + w.u.nbytes + w.u_dag.nbytes
            ai = flops / nbytes
            gflops = flops / t / 1e9
            per_kernel[name] = {
                "time_s": t,
                "gflops": gflops,
                "arithmetic_intensity": ai,
                "fraction_of_roofline": gflops / roofline.predict_gflops(ai),
            }

        # Multi-RHS amortization on the production kernel: one stacked
        # application vs N_RHS single ones.
        w.kernel = kernels["halfspinor"]
        t_stacked = _best_of(lambda: w.hopping(stack), repeats)
        t_single = per_kernel["halfspinor"]["time_s"]
        ref = per_kernel["reference"]["time_s"]
        half = per_kernel["halfspinor"]["time_s"]
        entry = {
            "backends": per_kernel,
            "speedup_halfspinor_vs_reference": ref / half,
            "batched": {
                "backend": w.kernel.name,
                "time_s_stacked": t_stacked,
                "gflops": w.flops_per_apply(stack.shape) / t_stacked / 1e9,
                "amortization_vs_single": (N_RHS * t_single) / t_stacked,
            },
        }
        if ranks > 1 and dims[0] % ranks == 0:
            from repro.comm.distributed import DecompRuntime

            with DecompRuntime(
                gauge, 0.1, ranks=ranks, policy=policy, max_rhs=N_RHS
            ) as rt:
                t_dist = _best_of(lambda: rt.hopping(stack), repeats)
            entry["distributed"] = {
                "ranks": ranks,
                "policy": policy,
                "time_s_stacked": t_dist,
                "speedup_vs_serial_stacked": t_stacked / t_dist,
            }
        results["volumes"][label] = entry
    return results


def write_report(path: Path = OUTPUT) -> dict:
    results = run()
    path.write_text(json.dumps(results, indent=1, sort_keys=True))
    return results


def test_halfspinor_beats_reference(report):
    results = write_report()
    lines = []
    for label, vol in results["volumes"].items():
        for name, entry in sorted(vol["backends"].items()):
            lines.append(
                f"{label:>10s}  {name:<18s} {entry['time_s'] * 1e3:8.2f} ms "
                f"{entry['gflops']:7.2f} GF/s "
                f"({100 * entry['fraction_of_roofline']:5.1f}% of roofline)"
            )
        bat = vol["batched"]
        lines.append(
            f"{label:>10s}  batched x{results['n_rhs']:<8d} "
            f"{bat['time_s_stacked'] * 1e3:8.2f} ms {bat['gflops']:7.2f} GF/s "
            f"(amortization {bat['amortization_vs_single']:.2f}x)"
        )
        lines.append(
            f"{label:>10s}  halfspinor vs reference: "
            f"{vol['speedup_halfspinor_vs_reference']:.2f}x"
        )
    report("Dslash kernels (wrote BENCH_dslash.json)", "\n".join(lines))
    assert results["volumes"]["8x8x8x16"]["speedup_halfspinor_vs_reference"] >= 1.5


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ranks",
        type=int,
        default=1,
        help="also time the stacked hopping through this many worker ranks",
    )
    parser.add_argument(
        "--policy",
        choices=["blocking", "pairwise", "overlap"],
        default="blocking",
        help="executed halo policy for the distributed timing",
    )
    args = parser.parse_args()
    out = run(ranks=args.ranks, policy=args.policy)
    OUTPUT.write_text(json.dumps(out, indent=1, sort_keys=True))
    print(json.dumps(out, indent=1, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
