"""Tracer mechanics: spans, shards, nesting, inheritance, zero-cost off.

The trace *content* (flop accounting, roofline cross-validation) is
covered in ``test_obs_perf.py``; here we pin down the machinery the
instrumented hot paths rely on.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.tracer import NULL_SPAN


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    obs.disable()
    yield
    obs.disable()


def test_disabled_by_default_returns_null_singleton():
    assert not obs.enabled()
    sp = obs.span("anything", flops=1.0)
    assert sp is NULL_SPAN
    # The null span absorbs the full span API without effect.
    with sp:
        sp.add_flops(10)
        sp.add_bytes(10)
        sp.set(a=1)


def test_enable_records_spans_and_disable_stops(tmp_path):
    tracer = obs.enable(tmp_path)
    with obs.span("work", cat="kernel", flops=100.0, nbytes=50.0, tag="x"):
        pass
    assert tracer.spans_written == 1
    obs.disable()
    with obs.span("after"):
        pass
    spans = obs.load_spans(tmp_path)
    assert len(spans) == 1
    (rec,) = spans
    assert rec["name"] == "work"
    assert rec["cat"] == "kernel"
    assert rec["flops"] == 100.0
    assert rec["bytes"] == 50.0
    assert rec["args"]["tag"] == "x"
    assert rec["dur"] >= 0.0
    assert rec["pid"] == os.getpid()


def test_nesting_depth_and_midspan_attribution(tmp_path):
    obs.enable(tmp_path)
    with obs.span("outer", cat="solver") as outer:
        with obs.span("inner"):
            pass
        outer.add_flops(7.0)
        outer.set(iterations=3)
    obs.disable()
    by_name = {s["name"]: s for s in obs.load_spans(tmp_path)}
    assert by_name["outer"]["depth"] == 0
    assert by_name["inner"]["depth"] == 1
    assert by_name["outer"]["flops"] == 7.0
    assert by_name["outer"]["args"]["iterations"] == 3
    # Children complete (and are written) before their parent.
    assert by_name["inner"]["t0"] >= by_name["outer"]["t0"]


def test_exception_still_writes_span_with_ok_false(tmp_path):
    obs.enable(tmp_path)
    with pytest.raises(ValueError):
        with obs.span("doomed"):
            raise ValueError("boom")
    obs.disable()
    (rec,) = obs.load_spans(tmp_path)
    assert rec["name"] == "doomed"
    assert rec["args"]["ok"] is False


def test_one_shard_per_thread(tmp_path):
    obs.enable(tmp_path)

    def emit(n):
        for i in range(n):
            with obs.span("threaded", idx=i):
                pass

    threads = [threading.Thread(target=emit, args=(5,)) for _ in range(3)]
    for t in threads:
        t.start()
    emit(5)
    for t in threads:
        t.join()
    obs.disable()
    shards = obs.shard_paths(tmp_path)
    # One file per (process, thread) writer: main + 3 threads.
    assert len(shards) == 4
    assert len(obs.load_spans(tmp_path)) == 20


def test_enable_exports_env_for_spawned_workers(tmp_path):
    obs.enable(tmp_path)
    assert os.environ[obs.ENV_TRACE_DIR] == str(tmp_path)
    obs.disable()
    assert obs.ENV_TRACE_DIR not in os.environ


def test_env_autoenable_round_trip(tmp_path, monkeypatch):
    """A fresh process (simulated via the module hook) inherits tracing."""
    from repro.obs import tracer as tr

    monkeypatch.setenv(obs.ENV_TRACE_DIR, str(tmp_path))
    tr._maybe_enable_from_env()
    assert obs.enabled()
    assert obs.current().trace_dir == tmp_path
    obs.disable()


def test_wilson_hopping_emits_attributed_kernel_span(tmp_path, gauge_tiny):
    from repro.dirac import WilsonOperator
    from repro.dirac.flops import wilson_dslash_flops_per_site

    op = WilsonOperator(gauge_tiny, mass=0.1)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=gauge_tiny.geometry.dims + (4, 3)) + 0j

    out_silent = op.hopping(psi)  # tracing off: no shards anywhere
    obs.enable(tmp_path)
    out_traced = op.hopping(psi)
    obs.disable()

    # Tracing must never perturb the numbers.
    np.testing.assert_array_equal(out_silent, out_traced)
    (rec,) = obs.load_spans(tmp_path)
    assert rec["name"] == f"dslash.{op.backend}"
    assert rec["flops"] == gauge_tiny.geometry.volume * wilson_dslash_flops_per_site()
    assert rec["bytes"] > 0


def test_packed_hopping_is_the_kernels_and_a_half_volume_span(tmp_path, gauge_tiny):
    """``WilsonOperator.hopping(xp, parity=p)`` is the active kernel's
    packed hop behind the same span: one ``dslash.*`` record per call,
    charged half the sites' flops and link bytes."""
    from repro.dirac import WilsonOperator
    from repro.dirac.flops import wilson_dslash_flops_per_site

    op = WilsonOperator(gauge_tiny, mass=0.1)
    kernel, geom = op.kernel, gauge_tiny.geometry
    rng = np.random.default_rng(8)
    psi = rng.normal(size=(3,) + geom.dims + (4, 3)) + 0j
    for parity in (0, 1):
        xp = kernel.pack(psi, parity)
        want = kernel.hopping(xp, parity=parity)
        obs.enable(tmp_path / str(parity))
        got = op.hopping(xp, parity=parity)
        full = op.hopping(psi)
        obs.disable()
        assert np.array_equal(got, want)
        # the packed hop is the full one restricted to the other parity
        assert np.array_equal(got, kernel.pack(full, 1 - parity))
        half, whole = obs.load_spans(tmp_path / str(parity))
        assert half["name"] == whole["name"] == f"dslash.{op.backend}"
        assert half["flops"] == 3 * (geom.volume // 2) * wilson_dslash_flops_per_site()
        assert 2 * half["flops"] == whole["flops"]
        assert 2 * half["bytes"] == whole["bytes"]
    with pytest.raises(ValueError, match="field tail"):
        op.hopping(psi, parity=0)  # a full-lattice field is not a packed one


def test_spans_say_which_precision_ran(tmp_path, gauge_tiny):
    """``dslash.*`` charges the field in and out plus the link planes in
    the dtype the kernel answered in (complex64 planes are half the double
    ones); ``rucg.*`` names the dtype its inner loop ran in."""
    from repro.dirac import WilsonOperator
    from repro.dirac.evenodd_wilson import EvenOddWilson
    from repro.solvers import PRECISIONS, ReliableUpdateCG

    op = WilsonOperator(gauge_tiny, mass=0.3, backend="halfspinor")
    rng = np.random.default_rng(9)
    psi = rng.normal(size=(1,) + gauge_tiny.geometry.dims + (4, 3)) + 0j
    links = op.u.nbytes + op.u_dag.nbytes
    obs.enable(tmp_path / "hop")
    op.hopping(psi)
    op.hopping(psi.astype(np.complex64))
    op.hopping(op.kernel.pack(psi.astype(np.complex64), 0), parity=0)
    obs.disable()
    assert [s["bytes"] for s in obs.load_spans(tmp_path / "hop")] == [
        2 * psi.nbytes + links, psi.nbytes + links // 2, psi.nbytes // 2 + links // 4
    ]

    eo = EvenOddWilson(op)
    rhs = eo.schur_dagger_apply(eo.prepare_rhs(psi))
    for name, dtype in (("single", "complex64"), ("half", "complex128")):
        obs.enable(tmp_path / name)
        res = ReliableUpdateCG(PRECISIONS[name], tol=1e-6).solve_batched(eo.schur_normal_apply, rhs)
        obs.disable()
        (sp,) = [s for s in obs.load_spans(tmp_path / name) if s["name"] == "rucg.solve_batched"]
        assert res.inner == sp["args"]["inner"] == dtype
        assert sp["args"]["reliable_updates"] == res.reliable_updates >= 1


def test_cg_solver_span_carries_flops_and_outcome(tmp_path):
    from repro.solvers.cg import ConjugateGradient

    a = np.diag(np.linspace(1.0, 2.0, 8)).astype(np.complex128)
    b = np.ones(8, dtype=np.complex128)
    solver = ConjugateGradient(tol=1e-12, flops_per_matvec=100.0)
    obs.enable(tmp_path)
    res = solver.solve(lambda v: a @ v, b)
    obs.disable()
    assert res.converged
    spans = [s for s in obs.load_spans(tmp_path) if s["name"] == "cg.solve"]
    assert len(spans) == 1
    assert spans[0]["cat"] == "solver"
    assert spans[0]["flops"] == res.flops
    assert spans[0]["args"]["iterations"] == res.iterations
    assert spans[0]["args"]["converged"] is True


def test_traced_solve_bitwise_equals_untraced(tmp_path):
    """Instrumentation must not change a single bit of the solve."""
    from repro.solvers.cg import ConjugateGradient

    rng = np.random.default_rng(3)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    a = m @ m.conj().T + 12.0 * np.eye(12)
    b = rng.normal(size=12) + 1j * rng.normal(size=12)
    solver = ConjugateGradient(tol=1e-10)
    x_off = solver.solve(lambda v: a @ v, b).x
    obs.enable(tmp_path)
    x_on = solver.solve(lambda v: a @ v, b).x
    obs.disable()
    np.testing.assert_array_equal(x_off, x_on)


def test_chrome_export_is_valid_trace_event_json(tmp_path):
    obs.enable(tmp_path / "shards")
    with obs.span("outer", cat="solver", flops=10.0):
        with obs.span("inner", flops=5.0, nbytes=2.0):
            pass
    obs.disable()
    spans = obs.load_spans(tmp_path / "shards")
    out = obs.write_chrome(spans, tmp_path / "trace.json")
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in xs} == {"outer", "inner"}
    assert any(e["name"] == "process_name" for e in metas)
    assert any(e["name"] == "thread_name" for e in metas)
    for e in xs:
        assert e["ts"] >= 0.0 and e["dur"] >= 0.0  # rebased microseconds
        assert {"flops", "bytes"} <= set(e["args"])
