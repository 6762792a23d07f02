"""A spawned child carries only its task.

Every campaign worker and every shared-memory rank starts through
:func:`repro.utils.spawn.start_process`.  Each test runs a script with no
``if __name__ == "__main__"`` guard in a fresh interpreter whose
``sitecustomize`` logs every module each process imports, so what the
driver and its children load is read from the real processes: the
script's body runs once, a module only the script imports stays in the
driver, and a campaign worker loads no driver module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Appends "import <pid> <module>" for every module a process imports.
_SITECUSTOMIZE = """
import os, sys

class _ImportLog:
    def find_spec(self, name, path=None, target=None):
        with open(os.environ["SPAWN_TEST_LOG"], "a") as f:
            f.write(f"import {os.getpid()} {name}\\n")

sys.meta_path.insert(0, _ImportLog())
"""

_MARKER = """
import os
with open(os.environ["SPAWN_TEST_LOG"], "a") as f:
    f.write(f"marker {os.getpid()}\\n")
"""

_BODY = """
import json, os, sys
import spawn_marker  # imported by this script and nothing else
with open(os.environ["SPAWN_TEST_LOG"], "a") as f:
    f.write(f"body {os.getpid()}\\n")
"""

_RUNS = {
    "campaign": (
        "repro.runtime.worker",
        "from repro.runtime import CampaignConfig, CampaignRuntime, build_sleep_campaign\n"
        "graph, spec = build_sleep_campaign(n_long=2, n_short=2, long_s=0.05, short_s=0.01)\n"
        "cfg = CampaignConfig(workers=2, pool='process')\n"
        "res = CampaignRuntime(sys.argv[1], cfg, spec).run(graph)\n"
        "print(json.dumps({'ok': res.all_done}))\n",
    ),
    "hopping": (
        "repro.comm.distributed",
        "import numpy as np\n"
        "from repro.comm.distributed import DecompRuntime\n"
        "from repro.dirac.wilson import WilsonOperator\n"
        "from repro.lattice import GaugeField, Geometry\n"
        "gauge = GaugeField.random(Geometry(4, 4, 4, 8), 7, scale=0.3)\n"
        "psi = np.random.default_rng(1).standard_normal((4, 4, 4, 8, 4, 3)) + 0j\n"
        "with DecompRuntime(gauge, 0.3, ranks=2, transport='processes') as rt:\n"
        "    got = rt.hopping(psi)\n"
        "print(json.dumps({'ok': bool(np.array_equal(got, WilsonOperator(gauge, 0.3).hopping(psi)))}))\n",
    ),
}

#: What only the campaign driver runs; a worker must never import it.
_DRIVER_MODULES = {
    f"repro.runtime.{m}" for m in ("campaign", "loop", "core", "ledger", "telemetry", "policies")
}


def _run_unguarded(tmp_path: Path, run: str):
    """Run the unguarded script; ``(driver pid, child pids, records)``."""
    target, code = _RUNS[run]
    log = tmp_path / "log"
    (tmp_path / "sitecustomize.py").write_text(_SITECUSTOMIZE)
    (tmp_path / "spawn_marker.py").write_text(_MARKER)
    script = tmp_path / "unguarded.py"
    script.write_text(_BODY + code)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(tmp_path), str(SRC)]),
        "SPAWN_TEST_LOG": str(log),
    }
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "work")],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["ok"], proc.stderr[-3000:]
    records = [line.split() for line in log.read_text().splitlines()]
    bodies = [pid for kind, pid, *_ in records if kind == "body"]
    assert len(bodies) == 1, f"the script's body ran {len(bodies)} times"
    children = {
        pid for kind, pid, *name in records
        if kind == "import" and name == [target] and pid != bodies[0]
    }
    assert len(children) == 2, f"expected two children importing {target}, got {children}"
    return bodies[0], children, records


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_an_unguarded_script_runs_once_and_its_children_never_import_it(tmp_path, run):
    """A script that starts a process pool (or shm ranks) at module level
    runs its body once, its children finish their work, and a module only
    the script imports is loaded in the driver alone."""
    driver, children, records = _run_unguarded(tmp_path, run)
    markers = {pid for kind, pid, *_ in records if kind == "marker"}
    assert markers == {driver}


def test_a_process_worker_loads_no_driver_module(tmp_path):
    """A campaign worker imports the worker loop and the executors, never
    the driver's scheduling, ledger or telemetry modules."""
    _, workers, records = _run_unguarded(tmp_path, "campaign")
    loaded = {
        name for kind, pid, *rest in records if kind == "import" and pid in workers
        for name in rest
    }
    assert "repro.runtime.exec_tasks" in loaded
    assert not loaded & _DRIVER_MODULES, sorted(loaded & _DRIVER_MODULES)
