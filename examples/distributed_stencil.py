#!/usr/bin/env python
"""The distributed stencil pipeline, executed with real data.

Section IV's four steps — pack halos, communicate, compute the interior,
complete the boundary — run on one worker thread per rank holding real
field data, through the same halo exchanger every transport uses.  The
distributed Wilson application is verified against the single-rank
operator, the measured wire traffic against the analytic halo model
(spin-projected faces: 12 reals per site), and the shrinking interior
fraction shows exactly why strong scaling hits a wall (nothing left to
hide communication behind).

Run:  python examples/distributed_stencil.py
"""

from __future__ import annotations

import numpy as np

from repro.comm import DistributedWilsonOperator, halo_message_bytes
from repro.dirac import WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng
from repro.utils.tables import format_table


def main() -> None:
    geom = Geometry(8, 8, 4, 8)
    gauge = GaugeField.random(geom, make_rng(5), scale=0.4)
    rng = make_rng(6)
    psi = rng.normal(size=geom.dims + (4, 3)) + 1j * rng.normal(size=geom.dims + (4, 3))
    ref = WilsonOperator(gauge, mass=0.2).apply(psi)
    print(f"lattice {geom}; applying the Wilson stencil across rank grids:\n")

    rows = []
    for grid in ((1, 1, 1, 2), (2, 1, 1, 2), (2, 2, 1, 2), (2, 2, 2, 2), (4, 2, 1, 2)):
        with DistributedWilsonOperator(gauge, 0.2, grid=grid) as op:
            dev = np.abs(op.apply(psi) - ref).max()
            stats = op.runtime.halo_stats()
            ranks = op.grid
        messages = sum(s["messages"] for s in stats)
        wire = sum(s["bytes_sent"] for s in stats)
        model = sum(
            2 * ranks.n_ranks * halo_message_bytes(ranks.decomp, mu, ls=1, bytes_per_real=8.0)
            for mu in ranks.partitioned
        )
        rows.append(
            (
                "x".join(map(str, grid)),
                ranks.n_ranks,
                f"{dev:.1e}",
                messages,
                f"{wire/1024:.0f} KiB",
                "yes" if wire == model else "NO",
                f"{ranks.interior_fraction():.2f}",
            )
        )
    print(
        format_table(
            ["rank grid", "ranks", "max dev vs 1 rank", "messages", "wire traffic",
             "matches model", "interior fraction"],
            rows,
            title="distributed Wilson dslash (pack -> exchange -> interior -> boundary)",
        )
    )
    print()
    print("Every decomposition reproduces the single-rank stencil exactly, the")
    print("exchanger's traffic equals the halo-geometry model, and the interior")
    print("fraction — the work available to overlap communication with —")
    print("collapses as the local volume shrinks: the strong-scaling wall of Fig. 4.")


if __name__ == "__main__":
    main()
