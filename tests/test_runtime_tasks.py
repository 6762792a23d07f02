"""Units of the campaign runtime: graph, ledger, telemetry, faults."""

from __future__ import annotations

import json

import pytest

from repro.runtime import (
    CampaignConfig,
    CampaignTask,
    FaultPlan,
    FaultSpec,
    TaskGraph,
    TaskLedger,
    TaskStatus,
    replay_ledger,
    summarize,
)
from repro.runtime.builder import build_from_spec, build_ga_campaign
from repro.runtime.core import TaskMachine, WorkerSlots


def _diamond() -> TaskGraph:
    return TaskGraph(
        [
            CampaignTask(task_id="a", kind="sleep"),
            CampaignTask(task_id="b", kind="sleep", deps=("a",)),
            CampaignTask(task_id="c", kind="sleep", deps=("a",)),
            CampaignTask(task_id="d", kind="sleep", deps=("b", "c")),
        ]
    )


class TestTaskGraph:
    def test_topo_order_respects_deps(self):
        g = _diamond()
        order = g.topo_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_ready_unlocks_with_done(self):
        g = _diamond()
        assert g.ready(set()) == ["a"]
        assert g.ready({"a"}) == ["b", "c"]
        assert g.ready({"a", "b"}) == ["c"]
        assert g.ready({"a", "b", "c"}) == ["d"]

    def test_transitive_consumers(self):
        g = _diamond()
        assert g.transitive_consumers("a") == {"b", "c", "d"}
        assert g.transitive_consumers("b") == {"d"}
        assert g.transitive_consumers("d") == set()

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaskGraph(
                [
                    CampaignTask(task_id="a", kind="sleep"),
                    CampaignTask(task_id="a", kind="sleep"),
                ]
            )

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError, match="unknown dependency"):
            TaskGraph([CampaignTask(task_id="a", kind="sleep", deps=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph(
                [
                    CampaignTask(task_id="a", kind="sleep", deps=("b",)),
                    CampaignTask(task_id="b", kind="sleep", deps=("a",)),
                ]
            )

    def test_fingerprint_stable_and_sensitive(self):
        g1, _ = build_ga_campaign()
        g2, _ = build_ga_campaign()
        g3, _ = build_ga_campaign(seed=8)
        assert g1.fingerprint() == g2.fingerprint()
        assert g1.fingerprint() != g3.fingerprint()

    def test_params_must_be_json(self):
        with pytest.raises(TypeError):
            CampaignTask(task_id="a", kind="sleep", params={"x": object()})

    def test_task_json_roundtrip(self):
        t = CampaignTask(
            task_id="p", kind="propagator", params={"mass": 0.1},
            deps=("g",), est_seconds=3.0, cpu_only=False, priority=5,
        )
        # Roundtrip needs the dep to exist only at graph level, not here.
        assert CampaignTask.from_json(t.to_json()) == t


class TestBuilder:
    def test_ga_campaign_shape(self):
        g, spec = build_ga_campaign(masses=(0.2, 0.4))
        ids = set(g.topo_order())
        assert {"gauge", "gaugefix", "smear", "assemble"} <= ids
        assert {"prop_m0", "prop_m1", "seq_m0", "seq_m1"} <= ids
        assert {"corr_m0", "corr_m1", "corr_m0m1"} <= ids
        # Lighter mass -> longer estimated solve.
        assert g["prop_m0"].est_seconds > g["prop_m1"].est_seconds
        assert g["corr_m0"].cpu_only and not g["prop_m0"].cpu_only

    def test_spec_rebuilds_identical_graph(self):
        g, spec = build_ga_campaign(masses=(0.3,), seed=13)
        g2, _ = build_from_spec(json.loads(json.dumps(spec)))
        assert g.fingerprint() == g2.fingerprint()

    def test_unknown_builder_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign builder"):
            build_from_spec({"builder": "nope"})

    def test_spec_transports_are_the_executed_ones(self):
        """The builder spells the transport names out so that admitting a
        spec never imports the comm stack; they are the executed ones."""
        from repro.comm.transports import TRANSPORTS
        from repro.runtime.builder import DIST_TRANSPORTS

        assert DIST_TRANSPORTS == TRANSPORTS


class TestLedger:
    def test_replay_reduces_lifecycle(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with TaskLedger(path) as led:
            led.record("campaign_start", policy="metaq", fingerprint="abc")
            led.record("submit", task="a")
            led.record("submit", task="b")
            led.record("start", task="a", worker=0, attempt=1)
            led.record("done", task="a", artifacts={"out": "a:out"})
            led.record("start", task="b", worker=1, attempt=1)
            led.record("fail", task="b", attempt=1, reason="boom")
            led.record("retry", task="b", attempt=1, backoff_s=0.1)
        st = replay_ledger(path)
        assert st.campaign["policy"] == "metaq"
        assert st.status == {"a": TaskStatus.DONE, "b": TaskStatus.PENDING}
        assert st.artifacts["a"] == {"out": "a:out"}
        assert not st.finished

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with TaskLedger(path) as led:
            led.record("submit", task="a")
            led.record("done", task="a", artifacts={})
        with path.open("a") as f:
            f.write('{"ev": "done", "task": "b", "arti')  # the crash
        st = replay_ledger(path)
        assert st.status["a"] == TaskStatus.DONE
        assert "b" not in st.status

    def test_quarantine_and_skip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with TaskLedger(path) as led:
            led.record("quarantine", task="p", reason="poison")
            led.record("skip", task="q", blocked_by="p")
        st = replay_ledger(path)
        assert st.quarantined_tasks() == {"p"}
        assert st.status["q"] == TaskStatus.SKIPPED

    def test_missing_ledger_is_empty_state(self, tmp_path):
        st = replay_ledger(tmp_path / "absent.jsonl")
        assert st.events == 0 and not st.campaign


class TestTelemetry:
    def test_summarize_computes_utilization(self, tmp_path):
        with TaskLedger(tmp_path / "ledger.jsonl") as led:
            led.record("campaign_start", policy="metaq", workers=2)
            led.record("start", task="a", worker=0, attempt=1)
            led.record("done", task="a", artifacts={})
            led.record("start", task="b", worker=1, attempt=1)
            led.record("fail", task="b", attempt=1, reason="boom")
            led.record("retry", task="b", attempt=1, backoff_s=0.1)
            led.record("campaign_finish")
        s = summarize(tmp_path)
        assert s.n_workers == 2
        assert s.tasks_done == 1 and s.tasks_failed == 1 and s.retries == 1
        assert len(s.spans) == 2
        assert 0.0 <= s.idle_fraction <= 1.0

    def test_reported_facts_precede_done(self, tmp_path):
        """A worker's facts ride its result report into the ledger, just
        before the ``done`` they precede; a stale report's facts are
        dropped with it."""
        cfg = CampaignConfig(workers=2, pool="thread")
        facts = [{"ev": "checkpoint_saved", "task": "a", "n": n} for n in (1, 2)]
        report = {"task": "a", "campaign": None, "ok": True, "artifacts": {}, "facts": facts}
        with TaskLedger(tmp_path / "ledger.jsonl") as led:
            machine = TaskMachine(_diamond(), led.record, cfg)
            slots = WorkerSlots(cfg, "thread", led.record)
            machine.open()
            slots.assign(0, machine, "a", now=0.0)
            assert slots.result({**report, "worker": 1}, now=1.0) is None  # stale
            assert slots.result({**report, "worker": 0}, now=1.0) == (machine, "a")
            machine.finish()
        lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
        evs = [json.loads(line)["ev"] for line in lines]
        assert evs[-4:] == ["checkpoint_saved", "checkpoint_saved", "done", "campaign_finish"]
        assert summarize(tmp_path).checkpoints == 2


class TestFaults:
    def test_parse_cli_form(self):
        tid, spec = FaultSpec.parse("kill_worker:prop_m0:2")
        assert tid == "prop_m0"
        assert spec.kind == "kill_worker" and spec.at_checkpoint == 2

    def test_parse_defaults_checkpoint_one(self):
        _, spec = FaultSpec.parse("stall:smear")
        assert spec.at_checkpoint == 1

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_armed_window(self):
        spec = FaultSpec(kind="raise", times=2)
        assert spec.armed(1) and spec.armed(2) and not spec.armed(3)

    def test_plan_json_roundtrip(self):
        plan = FaultPlan({"a": FaultSpec(kind="stall", stall_s=1.5)})
        back = FaultPlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert back.get("a") == plan.get("a")
        assert back.get("missing") is None


class TestExecutors:
    def test_smear_sources_equals_twelve_single_column_smearings(self, tmp_path):
        """The executor smears all 12 point sources in one pass with the
        column index as a spectator axis; every column carries the bits
        of its own ``GaussianSmearing.apply`` call."""
        import numpy as np

        from repro.contractions import GaussianSmearing, point_source
        from repro.io.container import FieldFile
        from repro.lattice import GaugeField, Geometry
        from repro.runtime.checkpoint import CheckpointManager
        from repro.runtime.exec_tasks import ArtifactStore, ExecContext, execute_task
        from repro.utils.rng import make_rng

        geom = Geometry(4, 4, 2, 4)
        gauge = GaugeField.random(geom, make_rng(11), scale=0.35)
        store = ArtifactStore(tmp_path / "artifacts")
        links = FieldFile({"dims": list(geom.dims)})
        links.add("links", gauge.u)
        store.save("gaugefix", "links", links)
        ctx = ExecContext("smear", 1, store, CheckpointManager(tmp_path / "checkpoints"))
        site = (1, 0, 1, 2)
        refs = execute_task(
            "smear_sources", {"gauge": "gaugefix:links", "site": list(site), "n_iter": 5}, ctx
        )
        got = store.load(refs["sources"])["sources"]

        smear = GaussianSmearing(gauge, alpha=0.25, n_iter=5)
        want = np.stack(
            [smear.apply(point_source(geom, site, s, c)) for s in range(4) for c in range(3)]
        )
        assert got.shape == want.shape == (12,) + geom.dims + (4, 3)
        assert np.array_equal(got, want)


    def test_three_schedules_of_one_system_report_one_flop_formula(self, tmp_path):
        """``percolumn``, ``batched`` and ``distributed`` solve the same
        red-black system on the benchmark's spec (4^3 x 8, mass 0.35, tol
        1e-4): ``solve_done`` charges each the same model flops per
        operator application and iteration, and ``true_relres`` — the
        full operator's residual — stays within 10 tol."""
        import numpy as np

        from repro.dirac.flops import cg_blas_flops_per_site, wilson_dslash_flops_per_site
        from repro.io.container import FieldFile
        from repro.lattice import GaugeField, Geometry
        from repro.runtime.checkpoint import CheckpointManager
        from repro.runtime.exec_tasks import ArtifactStore, ExecContext, execute_task
        from repro.utils.rng import make_rng

        geom = Geometry(4, 4, 4, 8)
        gauge = GaugeField.random(geom, make_rng(2026), scale=0.3)
        store = ArtifactStore(tmp_path / "artifacts")
        links = FieldFile({"dims": list(geom.dims)})
        links.add("links", gauge.u)
        store.save("gaugefix", "links", links)
        tol = 1e-4
        half = geom.volume // 2
        per_matvec = 4 * half * wilson_dslash_flops_per_site()
        per_iter = cg_blas_flops_per_site() * half

        done, props = {}, {}
        for mode in ("percolumn", "batched", "distributed"):
            events = []
            ctx = ExecContext(
                f"prop_{mode}", 1, store, CheckpointManager(tmp_path / "checkpoints"),
                emit=lambda ev, **kw: events.append((ev, kw)),
            )
            refs = execute_task(
                "propagator",
                {"gauge": "gaugefix:links", "mass": 0.35, "tol": tol, "solver_mode": mode},
                ctx,
            )
            (done[mode],) = [kw for ev, kw in events if ev == "solve_done"]
            props[mode] = store.load(refs["prop"])["data"]

        for mode, ev in done.items():
            assert ev["flops"] == ev["matvecs"] * per_matvec + (ev["matvecs"] - 12) * per_iter, mode
            assert 0.0 < ev["true_relres"] <= 10 * tol, mode
        # one linear system: the schedule moves no bit of a column, and
        # the rank program's reducer only the rounding of its dot products
        assert np.array_equal(props["percolumn"], props["batched"])
        assert done["batched"]["iterations"] == done["distributed"]["iterations"]
        assert done["batched"]["matvecs"] == done["distributed"]["matvecs"]
        scale = np.abs(props["batched"]).max()
        assert np.allclose(props["distributed"], props["batched"], rtol=0, atol=1e-12 * scale)


def test_importing_the_runtime_leaves_the_physics_packages_out():
    """The driver imports ``repro.runtime`` and the worker module without
    the physics: the lattice and Dirac stacks load when a worker boots
    (``worker_main`` imports the executors), the communication stack
    inside the one executor mode that needs it."""
    import subprocess
    import sys

    code = (
        "import sys, repro.runtime, repro.runtime.worker\n"
        "heavy = [m for m in ('repro.comm', 'repro.dirac', 'repro.lattice') if m in sys.modules]\n"
        "sys.exit(', '.join(heavy) or 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, f"imported at start-up: {proc.stderr[-2000:]}"
