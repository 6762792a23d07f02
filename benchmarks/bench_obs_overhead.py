"""Overhead budget of the observability layer on the dslash hot loop.

The tracer must be zero-cost when disabled — tier-1 timings and the
backend autotuner's measurements may not shift because PR 5 added spans
to the stencil.  This benchmark times three variants of the hopping
term on the 8^3x16 benchmark volume:

* ``raw`` — the kernel called directly, bypassing the instrumented
  :meth:`repro.dirac.WilsonOperator.hopping` wrapper entirely;
* ``disabled`` — the instrumented wrapper with tracing off (the
  default state; one global load and a no-op context manager);
* ``enabled`` — the wrapper with tracing on, shards going to a
  temporary directory (informational; this one may legitimately cost).

The asserted budget: the ``disabled`` path within 5% of ``raw``.
Writes ``BENCH_obs.json`` next to the other BENCH files.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.dirac import WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng

try:  # under pytest ``benchmarks`` is a package; as a script this file's folder is on sys.path
    from benchmarks.conftest import host_metadata
except ImportError:
    from conftest import host_metadata

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

DIMS = (8, 8, 8, 16)
N_RHS = 4
REPEATS = 9
#: Asserted ceiling on (disabled - raw) / raw.
OVERHEAD_BUDGET = 0.05


def _best_of(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up: workspace allocation, einsum path resolution
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(repeats: int = REPEATS) -> dict:
    geom = Geometry(*DIMS)
    gauge = GaugeField.random(geom, make_rng(55), scale=0.35)
    rng = make_rng(56)
    shape = (N_RHS,) + geom.dims + (4, 3)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    op = WilsonOperator(gauge, mass=0.1)
    phi = stack.reshape((-1,) + geom.dims + (4, 3))

    assert not obs.enabled()
    t_raw = _best_of(lambda: op.kernel.hopping(phi), repeats)
    t_disabled = _best_of(lambda: op.hopping(stack), repeats)

    with tempfile.TemporaryDirectory(prefix="bench-obs-") as td:
        obs.enable(td)
        try:
            t_enabled = _best_of(lambda: op.hopping(stack), repeats)
            spans = obs.current().spans_written
        finally:
            obs.disable()

    return {
        "host": host_metadata(),
        "volume": "x".join(str(d) for d in DIMS),
        "n_rhs": N_RHS,
        "repeats": repeats,
        "budget": OVERHEAD_BUDGET,
        "raw_ms": t_raw * 1e3,
        "disabled_ms": t_disabled * 1e3,
        "enabled_ms": t_enabled * 1e3,
        "overhead_disabled": t_disabled / t_raw - 1.0,
        "overhead_enabled": t_enabled / t_raw - 1.0,
        "spans_written_enabled": spans,
    }


def write_report(path: Path = OUTPUT) -> dict:
    results = run()
    path.write_text(json.dumps(results, indent=1, sort_keys=True))
    return results


def test_disabled_tracer_within_budget(report):
    results = write_report()
    report(
        "Observability overhead on the dslash hot loop (wrote BENCH_obs.json)",
        "\n".join(
            [
                f"raw kernel        {results['raw_ms']:8.2f} ms",
                f"instrumented off  {results['disabled_ms']:8.2f} ms "
                f"({100 * results['overhead_disabled']:+.2f}%)",
                f"instrumented on   {results['enabled_ms']:8.2f} ms "
                f"({100 * results['overhead_enabled']:+.2f}%)",
                f"budget: disabled within {100 * results['budget']:.0f}% of raw",
            ]
        ),
    )
    assert results["overhead_disabled"] < OVERHEAD_BUDGET


if __name__ == "__main__":
    out = write_report()
    print(json.dumps(out, indent=1, sort_keys=True))
    over = out["overhead_disabled"]
    assert over < OVERHEAD_BUDGET, (
        f"disabled-tracer overhead {over:.1%} exceeds the {OVERHEAD_BUDGET:.0%} budget"
    )
    print(f"\nwrote {OUTPUT}; disabled-tracer overhead {over:+.2%} "
          f"(budget {OVERHEAD_BUDGET:.0%})")
