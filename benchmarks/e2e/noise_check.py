"""Is the benchmark steady enough on this host to resolve its own bounds?

Runs the full untraced benchmark three times back to back on the same
code and seed, prints for every ``workload/metric`` the three values
and their largest relative deviation from their median, and exits
non-zero if any deviation exceeds half that metric's bound in
BENCHMARK.json.  If it fails: lengthen the run (more units) before
widening a bound, and do not drop a workload.

    python3 benchmarks/e2e/noise_check.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
PASSES = 3


def one_pass(seed: int) -> dict[str, float]:
    values = {}
    for w in SPEC["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for k, m in result["metrics"].items():
            values[f"{w['name']}/{k}"] = m["value"]
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=2026)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    passes = []
    for i in range(PASSES):
        passes.append(one_pass(args.seed))
        print(f"# pass {i + 1}/{PASSES} done", flush=True)
    worst = 0
    print(f"{'workload/metric':34s} {'pass 1':>10s} {'pass 2':>10s} {'pass 3':>10s} "
          f"{'max dev':>8s} {'limit':>7s}")
    for key in passes[0]:
        vals = [p[key] for p in passes]
        med = statistics.median(vals)
        dev = max(abs(v - med) for v in vals) / med
        limit = bounds[key.split("/")[1]] / 2
        flag = "" if dev <= limit else "  <-- too noisy"
        worst += dev > limit
        print(f"{key:34s} " + " ".join(f"{v:10.4f}" for v in vals)
              + f" {dev:8.2%} {limit:7.2%}{flag}")
    print("PASS" if not worst else f"FAIL: {worst} of {len(passes[0])} pairs exceed half their bound")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
