"""Smoke tests: the fast examples must run end to end.

The slow, solver-heavy examples (quickstart, traditional_vs_fh,
ensemble_campaign, feynman_hellmann_lattice, mixed_precision_solver) are
exercised by the equivalent unit tests of their building blocks; the
quick ones are executed for real here so the published entry points
cannot rot.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, timeout: int = 420) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestFastExamples:
    def test_neutron_lifetime(self):
        out = _run("neutron_lifetime.py")
        assert "FH analysis" in out
        assert "tau_n" in out
        assert "Fig. 1" in out and "Section III" in out

    def test_distributed_stencil(self):
        out = _run("distributed_stencil.py")
        assert "matches model" in out
        assert "NO" not in out.split("matches model")[-1][:400]

    def test_scaling_study(self):
        out = _run("scaling_study.py")
        assert "Fig. 3" in out and "Fig. 4" in out and "Fig. 5" in out
        assert "Fig. 6" in out and "Section VII" in out
        assert "kernel autotuning" in out

    def test_job_manager_demo(self):
        out = _run("job_manager_demo.py")
        assert "METAQ" in out and "mpi_jm" in out
        assert "3-5 minutes" in out
        assert "Fig. 2" in out and "Fig. 7" in out

    def test_examples_exist_and_are_executable_python(self):
        expected = {
            "quickstart.py",
            "neutron_lifetime.py",
            "scaling_study.py",
            "job_manager_demo.py",
            "feynman_hellmann_lattice.py",
            "mixed_precision_solver.py",
            "traditional_vs_fh.py",
            "ensemble_campaign.py",
            "distributed_stencil.py",
        }
        found = {p.name for p in EXAMPLES.glob("*.py")}
        assert expected <= found
        for name in expected:
            src = (EXAMPLES / name).read_text()
            assert "def main()" in src
            compile(src, name, "exec")  # syntax-check the slow ones too
