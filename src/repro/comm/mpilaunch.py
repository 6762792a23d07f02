"""Driver side of the MPI transport: launch rank programs, collect results.

The executed thread/shm transports live inside one process tree the
driver owns; MPI ranks are started by an external launcher instead.
This module bridges the two worlds: an operation on global arrays is
serialized to a job ``.npz``, the machine's launcher
(:mod:`repro.machines.launcher`) starts
``python -m repro.comm.mpi_worker`` on ``n`` ranks, and the result
``.npz`` rank 0 wrote is loaded back.  :func:`run_mpi_job` is the whole
bridge — :mod:`repro.comm.transports` writes the field-op and solve jobs
next to the in-process runtime they mirror — and one private function
launches the worker, so :meth:`Launcher.build_command
<repro.machines.launcher.Launcher.build_command>` stays the only place a
launcher's own argv is built.

Capability detection is two-staged and never imports mpi4py into the
driver: :func:`mpi_transport_available` answers (usable, reason) from
``importlib.util.find_spec`` plus a PATH probe of the launcher, so every
caller can degrade to skip-with-reason on hosts without an MPI stack.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.comm.mpifabric import MPI4PY_AVAILABLE
from repro.machines.launcher import launcher_for

__all__ = [
    "MpiLaunchError",
    "mpi_transport_available",
    "run_mpi_job",
    "mpi_bench_halo",
    "mpi_selftest",
]


class MpiLaunchError(RuntimeError):
    """An MPI rank program failed to launch or exited nonzero."""


def mpi_transport_available(
    n_ranks: int = 2, machine=None
) -> tuple[bool, str]:
    """Whether the executed MPI transport can run here, else why not."""
    if not MPI4PY_AVAILABLE:
        return False, "mpi4py is not installed"
    launcher = launcher_for(machine)
    ok, reason = launcher.available()
    if not ok:
        return False, reason
    if launcher.program is None and n_ranks > 1:
        return False, f"no MPI launcher on PATH for {n_ranks} ranks"
    return True, ""


def _launch_worker(
    n_ranks: int, machine, args: list[str], timeout: float
) -> subprocess.CompletedProcess:
    """Run ``python -m repro.comm.mpi_worker <args>`` on ``n_ranks`` ranks
    under the machine's launcher, with the repro package importable."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    parts = [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    cmd = launcher_for(machine).build_command(
        n_ranks, [sys.executable, "-m", "repro.comm.mpi_worker", *args]
    )
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)


def run_mpi_job(job: dict, *, n_ranks: int, machine=None, timeout: float = 600.0) -> dict:
    """Run one :mod:`repro.comm.mpi_worker` job; return the result arrays.

    ``job`` maps field names to arrays/scalars (see the worker module's
    job schema).  Raises :class:`MpiLaunchError` with the stderr tail on
    any launch or worker failure.
    """
    ok, reason = mpi_transport_available(n_ranks, machine)
    if not ok:
        raise MpiLaunchError(f"mpi transport unavailable: {reason}")
    with tempfile.TemporaryDirectory(prefix="repro-mpi-") as tmp:
        job_path = os.path.join(tmp, "job.npz")
        out_path = os.path.join(tmp, "out.npz")
        np.savez(job_path, **job)
        try:
            proc = _launch_worker(
                n_ranks, machine, ["--job", job_path, "--out", out_path], timeout
            )
        except subprocess.TimeoutExpired as e:
            raise MpiLaunchError(
                f"mpi job timed out after {timeout}s: {' '.join(e.cmd)}"
            ) from e
        if proc.returncode != 0 or not os.path.exists(out_path):
            tail = "\n".join((proc.stderr or "").splitlines()[-25:])
            raise MpiLaunchError(
                f"mpi job failed (exit {proc.returncode}): {' '.join(proc.args)}\n{tail}"
            )
        with np.load(out_path) as data:
            return {k: np.array(data[k]) for k in data.files}


def mpi_bench_halo(
    gauge,
    mass: float,
    *,
    ranks: int,
    n_rhs: int = 4,
    repeats: int = 3,
    policies: tuple[str, ...] | None = None,
    engine: str = "interpreted",
    timeout: float = 600.0,
) -> dict:
    """Measured per-schedule halo costs + ping-pong link parameters.

    Returns ``{"times": {policy: seconds}, "halo_wait_s": {policy: s},
    "bytes_per_round", "messages_per_round", "latency_s",
    "bandwidth_gbs", "n_ranks"}`` from one worker launch (the schedules
    race *inside* the job, so launcher startup never pollutes the
    timings).
    """
    job = {
        "op": "bench", "u": gauge.u, "mass": float(mass), "engine": engine,
        "n_rhs": int(n_rhs), "repeats": int(repeats), "max_rhs": int(n_rhs),
    }
    if policies is not None:
        job["policies"] = np.array(list(policies))
    out = run_mpi_job(job, n_ranks=ranks, timeout=timeout)
    names = [str(p) for p in out["bench_policies"]]
    return {
        "times": dict(zip(names, out["bench_seconds"].astype(float))),
        "halo_wait_s": dict(zip(names, out["bench_halo_wait_s"].astype(float))),
        "bytes_per_round": float(out["bench_bytes_per_round"]),
        "messages_per_round": float(out["bench_messages_per_round"]),
        "latency_s": float(out["pingpong_latency_s"]),
        "bandwidth_gbs": float(out["pingpong_bandwidth_gbs"]),
        "n_ranks": int(out["n_ranks"]),
    }


def mpi_selftest(n_ranks: int = 2, timeout: float = 300.0) -> bool:
    """Run the worker's built-in parity check under the launcher."""
    ok, _ = mpi_transport_available(n_ranks)
    if not ok:
        return False
    try:
        proc = _launch_worker(n_ranks, None, ["--selftest"], timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0 and "MPI-SELFTEST-OK" in proc.stdout
