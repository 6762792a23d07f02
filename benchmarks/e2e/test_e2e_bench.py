"""Smoke tests of the end-to-end benchmark harness itself.

Not collected by tier-1 (``testpaths = ["tests"]``); run explicitly::

    python3 -m pytest benchmarks/e2e/test_e2e_bench.py -q        # ~8 min

Every run is ``--units 1``: one warm-up and one timed unit (the traced
pass: one plain and one traced unit).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# one exact counter per layer that publishes one
EXACT = {
    "ga_direct": ["solvers.iterations", "solvers.solve_calls", "dirac.hopping_calls"],
    "prop12_dist_r2": ["solvers.iterations", "comm.halo_messages", "comm.halo_bytes"],
    "campaign_w2": ["solvers.iterations", "io.artifacts", "runtime.ledger_records"],
    "service_dup3": ["service.cas_hits", "service.dedup_attached", "io.artifacts"],
}


def bench(*argv: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--units", "1", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def repo_state() -> str:
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_pass_reports_every_end_to_end_metric(workload):
    before = repo_state()
    code, result, err = bench("--workload", workload)
    assert code == 0 and result["correct"] and result["failed"] == 0, err
    assert result["attempted"] >= 2
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert repo_state() == before  # nothing written into the tree


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_every_layer_metric_and_exact_counters_repeat(workload):
    code, first, err = bench("--workload", workload, "--trace", "1")
    # the child reports shims still installed after the traced pass as a failure
    assert code == 0 and first["correct"], err
    for m in SPEC["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    _, second, _ = bench("--workload", workload, "--trace", "1")
    for name in EXACT[workload]:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", ["ga_direct", "campaign_w2"])
def test_corrupted_output_counts_as_a_failure(workload):
    code, result, err = bench("--workload", workload, "--corrupt-unit", "0")
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 1
    assert "not bit-equal" in err


def test_shims_are_fully_removed():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        from repro.dirac.wilson import WilsonOperator
        from repro.io.container import FieldFile
        from shims import Recorder, installed

        before = (WilsonOperator.__dict__["hopping"], FieldFile.__dict__["load"])
        with Recorder():
            assert len(installed()) == 15
            assert WilsonOperator.__dict__["hopping"] is not before[0]
        assert installed() == []
        assert (WilsonOperator.__dict__["hopping"], FieldFile.__dict__["load"]) == before
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    dest = tmp_path / "benchmarks" / "e2e"
    dest.mkdir(parents=True)
    for f in HERE.iterdir():
        if f.is_file():
            (dest / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload", "ga_direct",
                           "--seed", "1", "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
