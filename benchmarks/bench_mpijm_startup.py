"""Section V claim: mpi_jm brings 4224 Sierra nodes up in 3-5 minutes.

"On Sierra, we were able to bring a 4224 node job up and running in 3-5
minutes ...  In less than one minute, all lumps were connected and
within five minutes, nearly all nodes were performing real work."
"""

from __future__ import annotations

from repro.machines.mpi import MPI_IMPLEMENTATIONS
from repro.jobmgr import startup_time
from repro.utils.tables import format_table

NODE_COUNTS = [128, 512, 1024, 2048, 4224]


def test_mpijm_partitioned_startup(benchmark, report):
    mpi = MPI_IMPLEMENTATIONS["mvapich2"]

    def sweep():
        return {n: startup_time(n, lump_size=128, mpi=mpi) for n in NODE_COUNTS}

    times = benchmark(sweep)

    rows = [(n, f"{t:.0f}", f"{t/60:.1f}") for n, t in times.items()]
    table = format_table(
        ["nodes", "startup (s)", "startup (min)"],
        rows,
        title="mpi_jm partitioned startup (lumps of 128, MVAPICH2)",
    )
    report("mpi_jm startup (Section V)", table)

    # The headline claim.
    t4224 = times[4224]
    assert 180.0 <= t4224 <= 300.0
    # Bounded-size lumps: startup grows sub-linearly with node count.
    assert times[4224] < 4.0 * times[512]
