"""Direct probes of single layers, run in the traced pass only.

Each probe calls a layer's public entry point at a workload's shape and
returns rates no counter publishes.  Times are medians of repeated
calls after one warm-up call.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from pathlib import Path

import numpy as np
from workloads import GA, PROP

# Host caches (lscpu on the reference host): L2 4 MiB per core, L3 260 MiB
# shared with the neighbours.  The triad arrays are 3 x 64 MiB: 48x L2, but
# smaller than L3, so the "bandwidth" ceiling is an L3/DRAM mix - stated,
# not hidden (README, "Known limits").
ROOFLINE_MATMUL_N = 512
ROOFLINE_TRIAD_MIB = 64


def _median_time(fn, min_reps: int = 3, min_seconds: float = 0.25) -> float:
    fn()
    ts: list[float] = []
    while len(ts) < min_reps or sum(ts) < min_seconds:
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def _hopping_probe(dims: tuple[int, ...], n_rhs: int) -> dict[str, float]:
    from repro.dirac.flops import wilson_dslash_flops_per_site
    from repro.dirac.wilson import WilsonOperator
    from repro.lattice.gauge import GaugeField
    from repro.lattice.geometry import Geometry

    geom = Geometry(*dims)
    op = WilsonOperator(GaugeField.random(geom, 0, scale=0.3), mass=0.3)
    rng = np.random.default_rng(1)
    shape = (n_rhs,) + tuple(dims) + (4, 3)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    t = _median_time(lambda: op.hopping(psi))
    flops = n_rhs * geom.volume * wilson_dslash_flops_per_site()
    # one stencil pass as the operator's own span accounts it: field in and
    # out once per RHS, both link copies once per application (computed
    # from array sizes; cache misses are not counted)
    nbytes = 2 * psi.nbytes + op.u.nbytes + op.u_dag.nbytes
    return {"s": t, "us_per_site_rhs": 1e6 * t / (geom.volume * n_rhs),
            "gflops": flops / t / 1e9, "ai": flops / nbytes}


def _shape_name(dims, n_rhs: int) -> str:
    return f"{dims[0]}x{dims[3]}_n{n_rhs}"  # 4^3x8, 1 RHS -> "4x8_n1"


def kernel_probe(own: str) -> dict[str, float]:
    """Hopping rates at the workloads' shapes (ga_direct's single-RHS
    lattice; prop12_dist_r2's lattice with 1 and with its 12 RHS);
    ``own`` picks the row whose GF/s, arithmetic intensity and roofline
    fraction are reported."""
    from repro.perfmodel.roofline import measure_host_roofline

    shapes = {"ga_n1": (GA["dims"], 1), "prop_n1": (PROP["dims"], 1),
              "prop_n12": (PROP["dims"], PROP["n_rhs"])}
    rows = {k: _hopping_probe(*v) for k, v in shapes.items()}
    roof = measure_host_roofline(ROOFLINE_MATMUL_N, ROOFLINE_TRIAD_MIB)
    mine = rows[own]
    out = {f"dirac.hopping_us_per_site_rhs.{_shape_name(*shapes[k])}": r["us_per_site_rhs"]
           for k, r in rows.items()}
    out.update({
        "dirac.batch_amortization_12": rows["prop_n1"]["s"] / (rows["prop_n12"]["s"] / PROP["n_rhs"]),
        "dirac.hopping_gflops": mine["gflops"],
        "dirac.ai_computed": mine["ai"],
        "dirac.roofline_frac": mine["gflops"] / roof.predict_gflops(mine["ai"]),
    })
    return out


def io_probe(work: Path) -> dict[str, float]:
    """Write (fsync + rename) and checksum-verified read of one
    propagator-sized container (4^3x8: 1.2 MB)."""
    from repro.io.container import FieldFile

    rng = np.random.default_rng(2)
    shape = (4, 4, 4, 8, 4, 4, 3, 3)
    ff = FieldFile({"probe": True})
    ff.add("prop", rng.normal(size=shape) + 1j * rng.normal(size=shape))
    path = Path(work) / "io-probe.lq"
    t_write = _median_time(lambda: ff.save(path), min_reps=10)
    nbytes = path.stat().st_size
    t_read = _median_time(lambda: FieldFile.load(path), min_reps=10)
    path.unlink()
    return {"io.write_mbps": nbytes / t_write / 1e6, "io.read_verify_mbps": nbytes / t_read / 1e6}


def http_probe(work: Path, n: int = 50) -> dict[str, float]:
    """Round trip of ``GET /healthz`` over loopback, idle server."""
    from repro.service import ServerThread, ServiceClient, ServiceConfig

    async def ping(port: int) -> list[float]:
        client = ServiceClient(port=port)
        ts = []
        for _ in range(n):
            t0 = time.perf_counter()
            await client.healthz()
            ts.append(time.perf_counter() - t0)
        return ts

    with ServerThread(Path(work) / "http-probe", ServiceConfig(workers=1)) as srv:
        ts = asyncio.run(ping(srv.port))
    return {"service.http_rtt_p50_s": statistics.median(ts)}
