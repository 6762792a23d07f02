"""Process-worker lifecycle: warm at the first task, gone at the sentinel,
gone when the driver is.

Each test drives a campaign pool from a fresh interpreter, so what the
driver has imported and what its workers do after it is gone are the
real thing, not artefacts of the test process.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

# Boots two process workers, runs one sleep task on each so both are past
# their imports, and prints the worker pids.
_BOOT_POOL = """
import json, sys
from repro.runtime.worker import ProcessWorkerPool
pool = ProcessWorkerPool(2, sys.argv[1])
pool.start()
for w in range(2):
    pool.dispatch(w, {"task": f"t{w}", "attempt": 1, "kind": "sleep",
                      "params": {"seconds": 0.01}})
done = [pool.poll_result(60.0) for _ in range(2)]
assert all(r and r["ok"] for r in done), done
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_process_campaign_driver_stays_lean_and_workers_exit_cleanly(tmp_path):
    """A ``pool="process"`` campaign never loads the physics or the comm
    stack into its driver (the workers import them at boot, and building a
    distributed spec checks its transport without them), every worker
    leaves with exit code 0 at the sentinel, and two idle workers shut
    down well within a second."""
    code = _BOOT_POOL + (
        "import time\n"
        "from repro.runtime import (CampaignConfig, CampaignRuntime, build_ga_campaign,\n"
        "                           build_sleep_campaign)\n"
        "build_ga_campaign(solver_mode='distributed', dist_transport='shm')  # admit a spec\n"
        "graph, spec = build_sleep_campaign(n_long=2, n_short=2, long_s=0.05, short_s=0.01)\n"
        "cfg = CampaignConfig(workers=2, pool='process')\n"
        "res = CampaignRuntime(sys.argv[1] + '/campaign', cfg, spec).run(graph)\n"
        "t0 = time.monotonic()\n"
        "pool.shutdown()\n"
        "print(json.dumps({\n"
        "    'all_done': res.all_done,\n"
        "    'heavy': [m for m in ('repro.lattice', 'repro.dirac', 'repro.solvers',\n"
        "                          'repro.contractions', 'repro.comm') if m in sys.modules],\n"
        "    'shutdown_s': time.monotonic() - t0,\n"
        "    'exitcodes': [p.exitcode for p in pool._workers.values()],\n"
        "}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["all_done"]
    assert out["heavy"] == [], f"the campaign driver imported {out['heavy']}"
    assert out["exitcodes"] == [0, 0]
    assert out["shutdown_s"] < 1.0


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_their_driver_is_killed(tmp_path):
    """SIGKILL a driver holding a process pool: its workers notice the
    parent is gone and exit within seconds instead of waiting forever on
    a queue whose writer end they hold themselves."""
    code = _BOOT_POOL + (
        "print(json.dumps([p.pid for p in pool._workers.values()]), flush=True)\n"
        "import time\n"
        "time.sleep(600)\n"
    )
    driver = subprocess.Popen(
        [sys.executable, "-c", code, str(tmp_path)], stdout=subprocess.PIPE, text=True
    )
    pids: list[int] = []
    try:
        pids = json.loads(driver.stdout.readline())
        assert len(pids) == 2 and all(_running(p) for p in pids)
        driver.send_signal(signal.SIGKILL)
        driver.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(_running(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [p for p in pids if _running(p)], "workers outlived their driver"
    finally:
        driver.kill()
        driver.wait(timeout=10)
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
