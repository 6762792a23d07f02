"""Decomposition-runtime benchmark: halo exchange and the CG headline.

Emits ``BENCH_decomp.json`` (repo root) with host metadata, per-(ranks,
transport, policy) stacked-dslash timings, per-transport (threads / shm)
halo-wait rows with the overlap-hiding fraction, the measured
comm-policy ranking, and the acceptance headline: the batched 12-RHS
even-odd CGNE solve at 8^3x16 through >=4 ranks vs the single-process
PR-2 baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_decomp_halo.py

or through pytest (registers a report section and asserts the >=1.5x
headline plus bitwise-equivalent answers)::

    PYTHONPATH=src python -m pytest benchmarks/bench_decomp_halo.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.comm.bench import run

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_decomp.json"


def write_report(path: Path = OUTPUT) -> dict:
    results = run(ranks=(2, 4), cg_ranks=4)
    path.write_text(json.dumps(results, indent=1, sort_keys=True))
    return results


def _render(results: dict) -> str:
    lines = []
    for label, per_rank in results["halo"].items():
        for nr, per_transport in per_rank.items():
            for transport, per_policy in per_transport.items():
                for policy, t in per_policy.items():
                    lines.append(
                        f"{label:>10s}  ranks={nr} {transport:<10s} "
                        f"{policy:<9s} {t * 1e3:8.2f} ms"
                    )
    th = results.get("transport_halo", {})
    for transport, entry in th.get("transports", {}).items():
        for policy, row in entry["policies"].items():
            lines.append(
                f"{th['volume']:>10s}  ranks={th['ranks']} {transport:<9s} "
                f"{policy:<9s} {row['seconds'] * 1e3:8.2f} ms  "
                f"(halo wait {row['halo_wait_s'] * 1e3:.2f} ms)"
            )
        if entry.get("overlap_efficiency") is not None:
            lines.append(
                f"{th['volume']:>10s}  {transport:<9s} overlap hides "
                f"{entry['overlap_efficiency']:.0%} of the halo wait"
            )
    race = results["measured_policy_race"]
    lines.append(
        f"measured race @ {race['volume']} ranks={race['ranks']}: "
        f"best={race['best']} "
        f"({race['speedup_vs_worst']:.2f}x vs worst)"
    )
    cg = results.get("cg_headline")
    if cg:
        lines.append(
            f"CG headline @ {cg['volume']} x{cg['n_rhs']} ranks={cg['ranks']}: "
            f"serial {cg['serial_s']:.1f}s vs distributed {cg['distributed_s']:.1f}s "
            f"= {cg['speedup']:.2f}x (allclose={cg['allclose_vs_serial']})"
        )
    return "\n".join(lines)


def test_decomp_headline_speedup(report):
    results = write_report()
    report("Decomposition runtime race (wrote BENCH_decomp.json)", _render(results))
    cg = results["cg_headline"]
    assert cg["allclose_vs_serial"]
    assert cg["iterations_serial"] == cg["iterations_distributed"]
    assert cg["speedup"] >= 1.5
    assert results["host"]["cpu_count"] >= 1
    # per-transport halo rows: every executed transport reports measured
    # waits and the measured fraction of them the overlap schedule hides
    th = results["transport_halo"]["transports"]
    for transport in ("threads", "shm"):
        assert "policies" in th[transport], th[transport]
        assert all("halo_wait_s" in r for r in th[transport]["policies"].values())
        assert th[transport]["overlap_efficiency"] is not None, th[transport]


if __name__ == "__main__":
    out = write_report()
    print(json.dumps(out, indent=1, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
