#!/usr/bin/env python
"""Scaling study: Figs. 3-6 and Section VII from the performance model
and simulator.

Prints the strong-scaling comparison across three GPU generations, the
Summit large-lattice curve with its efficiency cliff, the kernel and
communication-policy autotuning of Sections IV-V, a condensed Sierra
weak-scaling table, the Summit METAQ weak scaling, and the Section VII
sustained-performance headlines.

Run:  python examples/scaling_study.py
"""

from __future__ import annotations

from repro.autotune import CommPolicyTuner, KernelAutotuner, TuneKey
from repro.machines import GPU_K20X, GPU_P100, GPU_V100, get_machine
from repro.perfmodel import GPUKernelModel, SolverPerfModel, solver_performance, strong_scaling
from repro.utils.tables import format_table
from repro.workflow import machine_to_machine_speedup, sustained_application_pflops
from repro.workflow.weakscaling import run_weak_scaling


def strong_scaling_table() -> None:
    counts = [16, 32, 64, 128]
    rows = []
    for name in ("titan", "ray", "sierra"):
        m = get_machine(name)
        for p in strong_scaling(m, (48, 48, 48, 64), 20, gpu_counts=counts):
            rows.append(
                (
                    m.name,
                    p.n_gpus,
                    f"{p.tflops_total:.1f}",
                    f"{p.pct_peak(m.gpu.fp32_tflops):.1f}",
                    f"{p.bw_per_gpu_gbs:.0f}",
                    p.policy,
                )
            )
    print(
        format_table(
            ["machine", "GPUs", "TFlops", "% peak", "GB/s/GPU", "comm policy"],
            rows,
            title="Fig. 3: strong scaling, 48^3 x 64 x 20",
        )
    )


def summit_cliff_table() -> None:
    summit = get_machine("summit")
    model = SolverPerfModel(summit, (96, 96, 96, 144), 20)
    rows = []
    for n in (384, 768, 1536, 2304, 4608, 6912, 9216):
        p = model.predict(n)
        rows.append((n, f"{p.pflops_total:.2f}", f"{p.tflops_per_gpu:.3f}"))
    print()
    print(
        format_table(
            ["GPUs", "PFlops", "TF/GPU"],
            rows,
            title="Fig. 4: Summit, single 96^3 x 144 x 20 solve "
            "(note the efficiency cliff past ~2000 GPUs)",
        )
    )


def kernel_tuning_table() -> None:
    tuner = KernelAutotuner(rng=31, noise=0.03)
    rows = []
    for gpu in (GPU_K20X, GPU_P100, GPU_V100):
        for kernel, ws in (
            ("dslash_interior", 0.85), ("dslash_halo", 0.75), ("m5inv", 0.55),
            ("blas_axpy", 0.10), ("reduction", 0.20),
        ):
            model = GPUKernelModel(gpu, bytes_moved=5e7, flops=9.5e7, working_set_per_thread=ws)
            key = TuneKey(kernel, 442368, "half", gpu.name)
            speedup = tuner.speedup_vs_default(key, model)
            rows.append((gpu.name, kernel, f"{speedup:.3f}x", tuner.tune(key, model).block_size))
    print()
    print(
        format_table(
            ["GPU", "kernel", "tuned/default", "tuned block"],
            rows,
            title="Section V: QUDA-style kernel autotuning, gain over the default launch",
        )
    )


def comm_tuning_table() -> None:
    tuner = CommPolicyTuner()
    rows = []
    for name in ("titan", "ray", "sierra", "summit"):
        m = get_machine(name)
        res = tuner.tune(m, (48, 48, 48, 64), 20, 16 * m.gpus_per_node)
        rows.append((m.name, res.best.name, f"{res.speedup_vs_worst:.2f}x"))
    print()
    print(
        format_table(
            ["machine", "tuned policy (16 nodes)", "best/worst"],
            rows,
            title="communication-policy autotuning",
        )
    )


def weak_scaling_table() -> None:
    sierra = get_machine("sierra")
    rows = []
    for n_groups in (50, 200, 845):
        for mode in ("spectrum", "mvapich2"):
            if mode == "spectrum" and n_groups > 400:
                continue
            p = run_weak_scaling(sierra, n_groups, mode, rng=5)
            rows.append((mode, n_groups, p.n_gpus, f"{p.sustained_pflops:.2f}"))
    print()
    print(
        format_table(
            ["mode", "groups", "GPUs", "sustained PFlops"],
            rows,
            title="Fig. 5 (condensed): Sierra weak scaling",
        )
    )


def summit_weak_scaling_table() -> None:
    summit = get_machine("summit")
    rows = []
    for n_groups in (12, 24, 48, 96, 144, 216, 288):
        p = run_weak_scaling(summit, n_groups, "metaq", global_dims=(64, 64, 64, 96), ls=12, rng=13)
        rows.append((n_groups, p.n_gpus, f"{p.sustained_pflops:.2f}", f"{p.gpu_utilization:.3f}"))
    print()
    print(
        format_table(
            ["groups", "GPUs", "PFlops", "GPU util"],
            rows,
            title="Fig. 6: Summit weak scaling with METAQ, 24-GPU groups, 64^3 x 96 x 12",
        )
    )


def sustained_performance_table() -> None:
    sierra = get_machine("sierra")
    small = solver_performance(sierra, (48, 48, 48, 64), 20, 16)
    at_scale = sustained_application_pflops(sierra, 3388, mpi_performance_factor=0.93)
    tuned = sustained_application_pflops(sierra, 3388, mpi_performance_factor=1.0)
    pct_scale = at_scale * 1e3 / (3388 * 60) * 1.675 * 100
    pct_tuned = tuned * 1e3 / (3388 * 60) * 1.675 * 100
    print()
    print(
        format_table(
            ["quantity", "paper", "model"],
            [
                ("sustained % of peak, minimal nodes", "20%",
                 f"{small.pct_peak(sierra.gpu.fp32_tflops):.1f}%"),
                ("sustained PFlops, 3388 Sierra nodes", "~20 PF", f"{at_scale:.1f} PF"),
                ("sustained % of peak at scale (MVAPICH2)", "15%", f"{pct_scale:.1f}%"),
                ("... with MVAPICH2 fully tuned", "20%", f"{pct_tuned:.1f}%"),
                ("Sierra speedup over Titan program", "~12x",
                 f"{machine_to_machine_speedup('sierra'):.1f}x"),
                ("Summit speedup over Titan program", "~15x",
                 f"{machine_to_machine_speedup('summit'):.1f}x"),
            ],
            title="Section VII: sustained application performance",
        )
    )


def main() -> None:
    strong_scaling_table()
    summit_cliff_table()
    kernel_tuning_table()
    comm_tuning_table()
    weak_scaling_table()
    summit_weak_scaling_table()
    sustained_performance_table()


if __name__ == "__main__":
    main()
