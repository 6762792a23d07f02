"""Deterministic fault injection against real solves (process pool).

The acceptance tests of the executed runtime: a campaign hit by a
scripted worker kill, a corrupted checkpoint, or a wedged task must
complete anyway — and because every executor is deterministic and the
CG checkpoint resume is bit-exact, the final assembled correlators must
be *bitwise identical* to an undisturbed run.
"""

from __future__ import annotations

import json

import pytest

from repro.runtime import (
    CampaignConfig,
    CampaignRuntime,
    FaultPlan,
    FaultSpec,
    build_ga_campaign,
    build_sleep_campaign,
)
from repro.runtime.telemetry import load_events

# One light campaign: single mass, no sequential solve, checkpoint often
# enough that a mid-solve kill has state to resume from.
CAMPAIGN = dict(masses=(0.5,), tol=1e-7, checkpoint_every=10, include_seq=False)
# The same campaign with low-mode deflation: the eigenbasis task gates
# the solve, every checkpoint is a DeflatedCGState pinned to the basis
# fingerprint, and resume must restore both bit-exactly.
DEFLATED = dict(CAMPAIGN, n_eigen=8, n_krylov=40)


def _campaign(workdir, pool="process", faults=None, resume=False,
              abort_on_worker_death=False, workers=2, spec_kwargs=CAMPAIGN):
    graph, spec = build_ga_campaign(**spec_kwargs)
    rt = CampaignRuntime(
        workdir,
        CampaignConfig(
            workers=workers, policy="metaq", pool=pool,
            backoff_base_s=0.05, task_timeout_s=120.0,
            abort_on_worker_death=abort_on_worker_death,
        ),
        spec=spec,
    )
    res = rt.run(graph, faults=faults, resume=resume)
    return rt, res


def _final_bytes(rt):
    return rt.store.path("assemble:correlators").read_bytes()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Fault-free run (thread pool: cheap, same deterministic bytes)."""
    wd = tmp_path_factory.mktemp("ref")
    rt, res = _campaign(wd, pool="thread")
    assert res.all_done
    return _final_bytes(rt)


class TestWorkerKill:
    def test_kill_mid_solve_resumes_from_checkpoint(self, tmp_path, reference):
        faults = FaultPlan({"prop_m0": FaultSpec(kind="kill_worker",
                                                 at_checkpoint=2)})
        rt, res = _campaign(tmp_path, faults=faults)
        assert res.all_done
        assert res.worker_deaths == 1
        assert res.retries == 1
        assert _final_bytes(rt) == reference

        # The retry really did resume mid-solve rather than recompute:
        events = load_events(tmp_path)
        restored = [e for e in events if e["ev"] == "checkpoint_restored"]
        assert restored, "retry did not load the checkpoint"

    def test_allocation_loss_then_ledger_resume_bitwise(self, tmp_path,
                                                        reference):
        """The headline property: kill -> abort -> resume -> same bytes."""
        faults = FaultPlan({"prop_m0": FaultSpec(kind="kill_worker",
                                                 at_checkpoint=2)})
        rt, res = _campaign(tmp_path, faults=faults,
                            abort_on_worker_death=True)
        assert res.interrupted
        assert not res.all_done

        rt2, res2 = _campaign(tmp_path, resume=True)
        assert res2.all_done
        assert res2.tasks_reused >= 1
        assert _final_bytes(rt2) == reference


@pytest.fixture(scope="module")
def deflated_reference(tmp_path_factory):
    """Fault-free deflated run (thread pool, same deterministic bytes)."""
    wd = tmp_path_factory.mktemp("defl-ref")
    rt, res = _campaign(wd, pool="thread", spec_kwargs=DEFLATED)
    assert res.all_done
    return _final_bytes(rt)


class TestDeflatedSolves:
    """The fault-tolerance contract survives deflation: checkpoints wrap
    DeflatedCGState, resume validates the eigenbasis fingerprint, and
    the interrupted campaign still lands bitwise on the reference."""

    def test_kill_mid_deflated_solve_resumes_from_checkpoint(
            self, tmp_path, deflated_reference):
        faults = FaultPlan({"prop_m0": FaultSpec(kind="kill_worker",
                                                 at_checkpoint=2)})
        rt, res = _campaign(tmp_path, faults=faults, spec_kwargs=DEFLATED)
        assert res.all_done
        assert res.worker_deaths == 1
        assert _final_bytes(rt) == deflated_reference
        events = load_events(tmp_path)
        restored = [e for e in events if e["ev"] == "checkpoint_restored"]
        assert restored, "retry did not load the deflated checkpoint"
        solves = [e for e in events if e["ev"] == "solve_done"]
        assert solves and all(e.get("deflated") for e in solves)

    def test_allocation_loss_then_resume_deflated_bitwise(
            self, tmp_path, deflated_reference):
        faults = FaultPlan({"prop_m0": FaultSpec(kind="kill_worker",
                                                 at_checkpoint=2)})
        rt, res = _campaign(tmp_path, faults=faults,
                            abort_on_worker_death=True,
                            spec_kwargs=DEFLATED)
        assert res.interrupted

        rt2, res2 = _campaign(tmp_path, resume=True, spec_kwargs=DEFLATED)
        assert res2.all_done
        assert res2.tasks_reused >= 1
        assert _final_bytes(rt2) == deflated_reference


class TestCorruptCheckpoint:
    def test_corrupt_checkpoint_detected_and_recomputed(self, tmp_path,
                                                        reference):
        faults = FaultPlan(
            {"prop_m0": FaultSpec(kind="corrupt_checkpoint", at_checkpoint=2)}
        )
        rt, res = _campaign(tmp_path, faults=faults)
        assert res.all_done
        assert res.worker_deaths == 1
        assert _final_bytes(rt) == reference
        # The damaged file was quarantined aside, not silently loaded.
        corpses = list((tmp_path / "checkpoints").glob("*.corrupt"))
        assert corpses, "corrupt checkpoint was not set aside"
        events = load_events(tmp_path)
        assert not [e for e in events if e["ev"] == "checkpoint_restored"]


class TestTimeout:
    def test_stalled_task_killed_and_retried(self, tmp_path):
        graph, spec = build_sleep_campaign(n_long=2, n_short=2,
                                           long_s=0.05, short_s=0.02)
        rt = CampaignRuntime(
            tmp_path,
            CampaignConfig(workers=2, policy="metaq", pool="process",
                           backoff_base_s=0.05, task_timeout_s=1.5),
            spec=spec,
        )
        faults = FaultPlan({"long0": FaultSpec(kind="stall", stall_s=30.0)})
        res = rt.run(graph, faults=faults)
        assert res.all_done
        assert res.timeouts == 1
        assert res.retries >= 1


class TestLedgerOnDisk:
    def test_ledger_is_valid_jsonl_after_faults(self, tmp_path):
        graph, spec = build_sleep_campaign(n_long=2, n_short=2,
                                           long_s=0.03, short_s=0.01)
        rt = CampaignRuntime(
            tmp_path,
            CampaignConfig(workers=2, policy="metaq", pool="process",
                           backoff_base_s=0.05),
            spec=spec,
        )
        faults = FaultPlan({"short0": FaultSpec(kind="raise")})
        res = rt.run(graph, faults=faults)
        assert res.all_done
        lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
        events = [json.loads(ln) for ln in lines if ln.strip()]
        kinds = {e["ev"] for e in events}
        assert {"campaign_start", "submit", "start", "done", "fail",
                "retry", "campaign_finish"} <= kinds


class TestDistributedSolverMode:
    def test_distributed_campaign_matches_percolumn(self, tmp_path):
        """``--solver-mode distributed`` routes the 12-source solve
        through the rank-parallel runtime (compiled SoA engine where
        numba imports) and lands the same propagator to solver
        tolerance; telemetry records the mode."""
        import numpy as np

        rt_ref, res_ref = _campaign(tmp_path / "percolumn", pool="thread")
        assert res_ref.all_done
        rt_dist, res_dist = _campaign(
            tmp_path / "dist",
            pool="thread",
            spec_kwargs=dict(CAMPAIGN, solver_mode="distributed"),
        )
        assert res_dist.all_done

        ref = rt_ref.store.load("prop_m0:prop")["data"]
        dist = rt_dist.store.load("prop_m0:prop")["data"]
        assert np.allclose(dist, ref, rtol=1e-4, atol=1e-7)

        events = load_events(tmp_path / "dist")
        solves = [e for e in events if e["ev"] == "solve_done"
                  and e["task"] == "prop_m0"]
        assert solves and solves[0]["solver_mode"] == "distributed"
        assert solves[0]["iterations"] > 0 and solves[0]["flops"] > 0


class TestColumnStackCheckpoints:
    """``percolumn`` solves run as lock-step column stacks of the
    red-black preconditioned system (6 packed columns at 4^3 x 8): the
    checkpoint holds the finished columns plus the stacked CG state of
    the stack in flight, and nothing else is ever loaded."""

    def test_kill_inside_second_stack_resumes_at_that_stack(self, tmp_path,
                                                            reference):
        # a stack takes 22 iterations here: at checkpoint_every=5 that is
        # 4 mid-solve checkpoints and its boundary, so the 7th save is
        # the second stack's 2nd (checkpointing never perturbs the bytes)
        faults = FaultPlan({"prop_m0": FaultSpec(kind="kill_worker",
                                                 at_checkpoint=7)})
        rt, res = _campaign(tmp_path, pool="thread", faults=faults, workers=1,
                            spec_kwargs=dict(CAMPAIGN, checkpoint_every=5))
        assert res.all_done
        assert res.worker_deaths == 1
        assert _final_bytes(rt) == reference

        events = load_events(tmp_path)
        restored = [e for e in events if e["ev"] == "checkpoint_restored"]
        assert len(restored) == 1
        # resumed mid-solve in the second stack, first stack's columns kept
        assert restored[0]["column"] == 6
        assert restored[0]["iteration"] == 10

    def test_solve_done_iterations_is_the_per_column_sum(self, tmp_path):
        """Telemetry keeps counting what twelve one-column solves would
        (not stacked iterations), fault or no fault, for both solve
        kinds."""
        import numpy as np

        from repro.contractions import (
            Propagator, SchurColumnStacks, sequential_propagator)
        from repro.dirac.wilson import WilsonOperator
        from repro.lattice import GaugeField, Geometry
        from repro.solvers import ConjugateGradient, solve_normal_equations

        kwargs = dict(CAMPAIGN, include_seq=True)
        rt, res = _campaign(tmp_path / "plain", pool="thread", workers=1,
                            spec_kwargs=kwargs)
        assert res.all_done
        counted = {e["task"]: e["iterations"]
                   for e in load_events(tmp_path / "plain")
                   if e["ev"] == "solve_done"}

        links = rt.store.load("gaugefix:links")
        dims = tuple(links.metadata["dims"])
        gauge = GaugeField(Geometry(*dims),
                           links["links"].reshape((4,) + dims + (3, 3)))
        wilson = WilsonOperator(gauge, mass=0.5)
        solver = ConjugateGradient(tol=CAMPAIGN["tol"], max_iter=4000)
        sources = rt.store.load("smear:sources")["sources"]
        # twelve one-column solves of the red-black system the task runs
        system = SchurColumnStacks(wilson, sources)
        eo = system.eo
        assert counted["prop_m0"] == sum(
            solve_normal_equations(eo.schur_apply, eo.schur_dagger_apply, b,
                                   solver).iterations
            for b in system.rhs
        )
        stats: dict = {}
        prop = rt.store.load("prop_m0:prop")
        seq = sequential_propagator(
            wilson, Propagator(prop["data"], tuple(prop.metadata["source"])),
            dims[3] // 2, solver=solver, stats=stats)
        assert counted["seq_m0"] == stats["iterations"]
        assert np.array_equal(seq.data, rt.store.load("seq_m0:prop")["data"])

        # a resumed stack reports the same sum: columns that froze before
        # the checkpoint keep their own count
        faults = FaultPlan({"prop_m0": FaultSpec(kind="kill_worker",
                                                 at_checkpoint=4)})
        _campaign(tmp_path / "killed", pool="thread", faults=faults,
                  workers=1, spec_kwargs=kwargs)
        recounted = {e["task"]: e["iterations"]
                     for e in load_events(tmp_path / "killed")
                     if e["ev"] == "solve_done"}
        assert recounted == counted

    @pytest.mark.parametrize("planted", [
        "one_column_kind", "other_width", "off_boundary_column",
        "other_lattice_data", "other_lattice_state",
        "parent_full_lattice_stack", "packed_off_boundary_column",
        "full_lattice_state_in_packed_stack",
    ])
    def test_foreign_checkpoint_is_ignored_whole(self, tmp_path, reference,
                                                 planted):
        """A checkpoint this task could not have written — the
        one-column ``prop_ckpt`` of earlier versions, another stack
        width, a column that is no stack boundary, arrays of another
        lattice, and since the solve is red-black preconditioned the
        full-lattice stacks of the version before (its finished columns
        solved another linear system) — is never half-loaded: the task
        recomputes."""
        import numpy as np

        from repro.io.container import FieldFile

        shape = (4, 4, 4, 8, 4, 4, 3, 3)
        md = {"kind": "prop_stack_ckpt", "column": 3, "width": 3,
              "totals": {"iterations": 170, "matvecs": 174, "flops": 0.0},
              "state": None}
        arrays = {"data": np.ones(shape, dtype=np.complex128)}
        if planted == "one_column_kind":
            md = {"kind": "prop_ckpt", "column": 3, "iterations": 170,
                  "matvecs": 174, "flops": 0.0, "has_state": False,
                  "state_scalars": {}}
        elif planted == "other_width":
            md["width"], md["column"] = 4, 4
        elif planted == "off_boundary_column":
            md["column"] = 4
        elif planted == "other_lattice_data":
            arrays["data"] = np.ones((2, 2, 2, 4, 4, 4, 3, 3), dtype=complex)
        elif planted == "other_lattice_state":
            md["state"] = {"iteration": 10, "flops": 0.0}
            wrong = (3, 2, 2, 2, 4, 4, 3)
            for name in ("state_x", "state_r", "state_p"):
                arrays[name] = np.ones(wrong, dtype=np.complex128)
            arrays["state_rsq"] = arrays["state_bnorm"] = np.ones(3)
            arrays["state_history"] = np.ones((10, 3))
            arrays["state_column_iterations"] = np.full(3, 10)
        else:
            # what this version writes is keyed by the stack's shape
            packed = [6, 4, 4, 4, 4, 4, 3]
            width, column, state, named = {
                "parent_full_lattice_stack": (3, 3, (3, 4, 4, 4, 8, 4, 3), None),
                "packed_off_boundary_column": (6, 3, None, packed),
                "full_lattice_state_in_packed_stack": (6, 6, (6, 4, 4, 4, 8, 4, 3), packed),
            }[planted]
            md["column"] = column
            if named is None:
                md["width"] = width  # the parent's key; it names no stack
            else:
                del md["width"]
                md["stack"] = named
            if state is not None:
                md["state"] = {"iteration": 10, "flops": 0.0}
                for name in ("state_x", "state_r", "state_p"):
                    arrays[name] = np.ones(state, dtype=np.complex128)
                arrays["state_rsq"] = arrays["state_bnorm"] = np.ones(width)
                arrays["state_history"] = np.ones((10, width))
                arrays["state_column_iterations"] = np.full(width, 10)
        ff = FieldFile(md)
        for name, arr in arrays.items():
            ff.add(name, arr)
        (tmp_path / "checkpoints").mkdir(parents=True)
        ff.save(tmp_path / "checkpoints" / "prop_m0.ckpt.lq")

        rt, res = _campaign(tmp_path, pool="thread", workers=1)
        assert res.all_done
        assert _final_bytes(rt) == reference
        events = load_events(tmp_path)
        assert not [e for e in events if e["ev"] == "checkpoint_restored"]
