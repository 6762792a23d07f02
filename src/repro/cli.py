"""``repro-report``: print the paper's tables and headline numbers.

A one-command sanity view of the reproduction: Tables I-III from the
registries, the Fig. 3 strong-scaling anchors from the performance
model, the scheduling claims from the simulator, and Eq. (1).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.lifetime import neutron_lifetime
from repro.machines import MACHINES, PERFORMANCE_ATTRIBUTES, SOFTWARE_STACK
from repro.perfmodel import SolverPerfModel
from repro.jobmgr.mpijm import startup_time
from repro.utils.tables import format_table
from repro.version import __version__
from repro.workflow import machine_to_machine_speedup

__all__ = ["main"]


def _table1() -> str:
    return format_table(
        ["Attribute", "Value"],
        PERFORMANCE_ATTRIBUTES.items(),
        title="Table I: performance attributes",
    )


def _table2() -> str:
    headers = [
        "Attribute", "nodes", "GPUs/node", "CPU", "GPU",
        "FP32 TFLOPS/node", "GPU bw GB/s", "CPU-GPU bw", "Interconnect",
        "GCC", "MPI", "CUDA",
    ]
    rows = [m.table_row() for m in MACHINES.values()]
    return format_table(headers, rows, title="Table II: systems")


def _table3() -> str:
    return format_table(
        ["Name", "commit", "repository", "reproduced by"],
        [(p.name, p.commit, p.repository, p.reproduced_by) for p in SOFTWARE_STACK],
        title="Table III: application software",
    )


def _headlines() -> str:
    lines = ["Headline model numbers:"]
    for name in ("titan", "ray", "sierra"):
        m = MACHINES[name]
        model = SolverPerfModel(m, (48, 48, 48, 64), 20)
        p = model.predict(max(m.gpus_per_node, 4 * m.gpus_per_node))
        lines.append(
            f"  {m.name:7s} 48^3x64x20 low-node point: "
            f"{p.bw_per_gpu_gbs:5.0f} GB/s/GPU, {p.pct_peak(m.gpu.fp32_tflops):4.1f}% of peak"
        )
    lines.append(
        f"  mpi_jm startup, 4224 Sierra nodes: {startup_time(4224, 128) / 60:.1f} min"
    )
    for name in ("sierra", "summit"):
        lines.append(
            f"  {MACHINES[name].name} speedup over Titan campaign: "
            f"{machine_to_machine_speedup(name):.1f}x"
        )
    tau = neutron_lifetime(1.271, 0.013)
    lines.append(f"  Eq. (1): {tau}")
    return "\n".join(lines)


def _memory() -> str:
    from repro.perfmodel import minimum_gpus, solve_footprint

    rows = []
    for label, dims, ls, gpn in (
        ("48^3x64 Ls=20", (48, 48, 48, 64), 20, 4),
        ("64^3x96 Ls=12", (64, 64, 64, 96), 12, 6),
        ("96^3x144 Ls=20", (96, 96, 96, 144), 20, 6),
    ):
        m = minimum_gpus(dims, ls, gpus_per_node=gpn)
        fp = solve_footprint(dims, ls, m)
        rows.append((label, m, f"{fp.total_gib:.1f}"))
    return format_table(
        ["problem", "min V100 GPUs", "GiB/GPU at floor"],
        rows,
        title="Memory floor of the mixed-precision DWF solve (Section V)",
    )


def _kernels() -> str:
    """Dslash kernels: halfspinor vs its reference oracle, GF/s vs roofline
    (``BENCH_dslash.json``, refreshed by ``benchmarks/bench_dslash_backends.py``)."""
    import json
    from pathlib import Path

    bench = Path(__file__).resolve().parents[2] / "BENCH_dslash.json"
    if not bench.exists():
        return (
            "dslash kernels: no BENCH_dslash.json found — run\n"
            "  PYTHONPATH=src python benchmarks/bench_dslash_backends.py"
        )
    data = json.loads(bench.read_text())
    rows = []
    notes = []
    for label, vol in sorted(data["volumes"].items()):
        for name, e in sorted(vol["backends"].items()):
            rows.append(
                (label, name, f"{e['gflops']:.3f}", f"{100 * e['fraction_of_roofline']:.1f}%")
            )
        notes.append(
            f"{label}: halfspinor {vol['speedup_halfspinor_vs_reference']:.2f}x "
            "over reference"
        )
    rl = data.get("roofline", {})
    notes.append(
        f"artifact: BENCH_dslash.json "
        f"(roofline {rl.get('peak_gflops', 0):.0f} GF/s "
        f"/ {rl.get('peak_bw_gbs', 0):.0f} GB/s)"
    )
    table = format_table(
        ["volume", "kernel", "GF/s", "% roofline"],
        rows,
        title="Dslash kernels: sustained GF/s vs host roofline",
    )
    return table + "\n" + "\n".join(notes)


def _comm() -> str:
    """The modeled comm-policy ranking, and the one executed schedule timed."""
    import time

    from repro.autotune.comm import CommPolicyTuner
    from repro.comm.distributed import DecompRuntime
    from repro.lattice import GaugeField, Geometry
    from repro.utils.rng import make_rng

    modeled = CommPolicyTuner().tune(MACHINES["sierra"], (48, 48, 48, 64), 20, 64)
    model_rows = [
        (p.name, f"{t * 1e3:.3f}", "<- best" if p == modeled.best else "")
        for p, t in modeled.ranking()
    ]
    model_table = format_table(
        ["policy", "ms/iteration (modeled)", ""],
        model_rows,
        title="Comm policies, modeled: Sierra 48^3x64x20 on 64 GPUs",
    )

    geom = Geometry(4, 6, 2, 8)
    gauge = GaugeField.random(geom, make_rng(55), scale=0.35)
    rng = make_rng(0)
    shape = (2,) + geom.dims + (4, 3)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    repeats = 3
    with DecompRuntime(gauge, 0.1, ranks=2, max_rhs=2) as rt:
        rt.hopping(psi)  # warm-up: workspace allocation
        before = rt.halo_stats()
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            rt.hopping(psi)
            best = min(best, time.perf_counter() - t0)
        after = rt.halo_stats()
    wait = max(b["wait_seconds"] - a["wait_seconds"] for a, b in zip(before, after)) / repeats
    measured = (
        "Comm policies, measured: 4x6x2x8 on 2 worker ranks (threads)\n"
        "the one executed schedule, a blocking round per hopping (zero-copy/fused): "
        f"{best * 1e3:.2f} ms/hopping, halo wait {wait * 1e3:.2f} ms (source=measured)"
    )
    note = (
        f"modeled winner: {modeled.best.name} "
        f"({modeled.speedup_vs_worst:.2f}x vs worst, source={modeled.source})"
    )
    return model_table + "\n" + note + "\n\n" + measured


def _perf() -> str:
    """Measured kernel GF/s vs the roofline model (tentpole of PR 5).

    Records the seeded 4^3x8 reference measurement under tracing, then
    reports per-kernel sustained GF/s next to the micro-measured host
    roofline's prediction at each kernel's arithmetic intensity — the
    measured-over-model analogue of the paper's percent-of-peak
    (Section VI).
    """
    import tempfile

    from repro.obs import DEFAULT_BAND, aggregate, crossvalidate, load_spans
    from repro.obs.cli import record_pipeline
    from repro.perfmodel import host_roofline

    with tempfile.TemporaryDirectory(prefix="repro-perf-") as td:
        record_pipeline(td, dims=(4, 4, 4, 8))
        spans = load_spans(td)
    stats = aggregate(spans)
    roofline = host_roofline()
    checks = {c.name: c for c in crossvalidate(stats, roofline)}
    rows = []
    for st in stats.values():
        c = checks.get(st.name)
        rows.append(
            (
                st.name,
                st.calls,
                f"{st.seconds * 1e3:.1f}",
                f"{st.gflops:.3f}" if st.flops else "-",
                f"{st.gbs:.3f}" if st.nbytes else "-",
                f"{c.model_gflops:.1f}" if c else "-",
                f"{c.pct_of_model:.2f}%" if c else "-",
            )
        )
    table = format_table(
        ["span", "calls", "ms", "GF/s", "GB/s", "model GF/s", "% of model"],
        rows,
        title="Measured vs modeled performance (seeded 4^3x8 pipeline)",
    )
    lo, hi = DEFAULT_BAND
    in_band = sum(c.in_band for c in checks.values())
    note = (
        f"roofline ({roofline.label}): {roofline.peak_gflops:.0f} GF/s peak, "
        f"{roofline.peak_bw_gbs:.0f} GB/s bandwidth; "
        f"band [{lo * 100:.1f}%, {hi * 100:.0f}%] of model: "
        f"{in_band}/{len(checks)} kernels in band"
    )
    return table + "\n" + note


def _campaign() -> str:
    """Executed-vs-modeled scheduling cross-validation (Section V)."""
    from repro.runtime.report import campaign_section

    return campaign_section()


def _service() -> str:
    """Campaign-as-a-service load-test headline (BENCH_service.json)."""
    import json
    from pathlib import Path

    bench = Path(__file__).resolve().parents[2] / "BENCH_service.json"
    if not bench.exists():
        return (
            "campaign service: no BENCH_service.json found — run\n"
            "  PYTHONPATH=src python benchmarks/bench_service.py"
        )
    data = json.loads(bench.read_text())
    h = data["headline"]
    lat = data["latency_s"]
    rows = [
        ["campaigns served", str(h["campaigns"])],
        ["unique specs", str(h["unique_specs"])],
        ["tenants", str(h["tenants"])],
        ["task cache hit rate", f"{h['cache_hit_rate'] * 100:.1f}%"],
        ["campaign-level dedup", str(h["dedup_attached"])],
        ["p50 / p95 / p99 latency", (
            f"{lat['p50'] * 1000:.0f} / {lat['p95'] * 1000:.0f} / "
            f"{lat['p99'] * 1000:.0f} ms"
        )],
        ["tenant fairness (Jain)", f"{h['jain_fairness']:.3f}"],
        ["throughput", f"{h['campaigns_per_s']:.1f} campaigns/s"],
        ["bitwise parity", "verified" if h["bitwise_equal"] else "FAILED"],
    ]
    table = format_table(
        ["metric", "value"],
        rows,
        title="Campaign service load test (BENCH_service.json)",
    )
    return table + f"\nworkload: {data.get('workload', '')}"


def _tts() -> str:
    from repro.perfmodel import CampaignSpec, time_to_solution
    from repro.workflow.speedup import TITAN_CAMPAIGN_NODES

    rows = []
    for label, prec in (("1%", 0.01), ("0.2%", 0.002)):
        spec = CampaignSpec(target_precision=prec)
        cells = [label]
        for name, nodes, mpi in (
            ("titan", TITAN_CAMPAIGN_NODES, 1.0),
            ("sierra", 3388, 0.93),
            ("summit", 4600, 1.0),
        ):
            tts = time_to_solution(MACHINES[name], nodes, spec, mpi)
            cells.append(f"{tts.wall_days:.1f}")
        rows.append(cells)
    return format_table(
        ["g_A goal", "Titan days", "Sierra days", "Summit days"],
        rows,
        title="Time to solution (Table I category of achievement)",
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-report``."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Print the SC18 reproduction's tables and headline numbers.",
    )
    parser.add_argument(
        "--section",
        choices=[
            "all", "table1", "table2", "table3", "headlines",
            "memory", "kernels", "comm", "perf",
            "campaign", "service", "tts",
        ],
        default="all",
    )
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    sections = {
        "table1": _table1,
        "table2": _table2,
        "table3": _table3,
        "headlines": _headlines,
        "memory": _memory,
        "kernels": _kernels,
        "comm": _comm,
        "perf": _perf,
        "campaign": _campaign,
        "service": _service,
        "tts": _tts,
    }
    chosen = sections.values() if args.section == "all" else [sections[args.section]]
    print("\n\n".join(fn() for fn in chosen))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
