"""One halo schedule: the schedule knobs that went are refused before any
rank or worker starts, and ``halo_stats()`` keeps the row the end-to-end
benchmark (``benchmarks/e2e/workloads.py``) reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.distributed import DecompRuntime
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng

MASS = 0.12

#: every key ``workloads.py`` reads from a ``halo_stats()`` row
ROW_KEYS = {"rounds", "messages", "bytes_sent", "wait_seconds", "interior_seconds"}


def _gauge(dims=(4, 4, 4, 8)) -> GaugeField:
    return GaugeField.random(Geometry(*dims), make_rng(21), scale=0.35)


@pytest.fixture
def launches(monkeypatch) -> list:
    """The runtime's launchers, replaced by a record of their calls."""
    started: list = []
    for name in ("_thread", "_spawn"):
        monkeypatch.setattr(DecompRuntime, name, lambda self, u, name=name: started.append(name))
    return started


@pytest.mark.parametrize("transport", ["threads", "shm"])
@pytest.mark.parametrize("policy", ["pairwise", "overlap"])
def test_deleted_schedules_are_refused_before_any_rank(launches, transport, policy):
    with pytest.raises(ValueError, match="the only one is 'blocking'"):
        DecompRuntime(_gauge(), MASS, ranks=2, transport=transport, policy=policy)
    assert launches == []


def test_a_distributed_task_naming_a_schedule_is_refused(launches, tmp_path):
    """The executor takes ``dist_ranks`` and ``dist_transport`` only, and
    the campaign builder has no schedule keyword at all."""
    from repro.io.container import FieldFile
    from repro.runtime.builder import build_ga_campaign
    from repro.runtime.checkpoint import CheckpointManager
    from repro.runtime.exec_tasks import ArtifactStore, ExecContext, execute_task

    gauge = _gauge()
    store = ArtifactStore(tmp_path / "artifacts")
    links = FieldFile({"dims": list(gauge.geometry.dims)})
    links.add("links", gauge.u)
    store.save("gaugefix", "links", links)
    ctx = ExecContext("prop", 1, store, CheckpointManager(tmp_path / "checkpoints"))
    params = {
        "gauge": "gaugefix:links", "mass": 0.35, "tol": 1e-4,
        "solver_mode": "distributed", "dist_policy": "pairwise",
    }
    with pytest.raises(ValueError, match="dist_policy"):
        execute_task("propagator", params, ctx)
    assert launches == []
    with pytest.raises(TypeError, match="dist_policy"):
        build_ga_campaign(solver_mode="distributed", dist_policy="pairwise")


def test_halo_stats_rows_carry_the_benchmark_keys():
    gauge = _gauge()
    rng = np.random.default_rng(5)
    shape = (2,) + gauge.geometry.dims + (4, 3)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    with DecompRuntime(
        gauge, MASS, ranks=2, policy="blocking", engine="interpreted", max_rhs=2
    ) as rt:
        rt.hopping(psi)
        rows = rt.halo_stats()
    assert len(rows) == 2
    for row in rows:
        assert set(row) == ROW_KEYS
        assert row["interior_seconds"] == 0.0
        assert (row["rounds"], row["messages"]) == (1, 2)
