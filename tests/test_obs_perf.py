"""Flop/byte accounting, roofline cross-validation, and the CLI surface.

Acceptance-criteria coverage for PR 5: ``repro-trace`` on the seeded
4^3x8 solve produces a valid Chrome trace, and the perf report puts the
measured per-kernel GF/s inside the stated band of the roofline model.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.perf import DEFAULT_BAND, aggregate, crossvalidate
from repro.perfmodel import Roofline, machine_roofline


@pytest.fixture(autouse=True)
def _tracing_off():
    obs.disable()
    yield
    obs.disable()


def _span(name, cat="kernel", t0=0.0, dur=1.0, flops=0.0, nbytes=0.0):
    return {"name": name, "cat": cat, "t0": t0, "dur": dur,
            "flops": flops, "bytes": nbytes, "pid": 1, "tid": 1, "depth": 0}


class TestAggregate:
    def test_totals_per_name(self):
        spans = [
            _span("dslash", dur=0.5, flops=1e9, nbytes=2e9),
            _span("dslash", dur=0.5, flops=1e9, nbytes=2e9),
            _span("cg", cat="solver", dur=2.0, flops=4e9),
        ]
        stats = aggregate(spans)
        d = stats["dslash"]
        assert d.calls == 2
        assert d.seconds == 1.0
        assert d.gflops == pytest.approx(2.0)
        assert d.gbs == pytest.approx(4.0)
        assert d.arithmetic_intensity == pytest.approx(0.5)
        assert stats["cg"].gflops == pytest.approx(2.0)
        # Ordered by aggregated time, largest first.
        assert list(stats) == ["cg", "dslash"]

    def test_category_filter(self):
        spans = [_span("a"), _span("b", cat="solver")]
        assert set(aggregate(spans, cats=("solver",))) == {"b"}


class TestCrossvalidate:
    def test_fraction_against_synthetic_roofline(self):
        # AI = 0.5 flop/B on a 100 GF/s / 10 GB/s roofline: model = 5 GF/s.
        spans = [_span("dslash", dur=1.0, flops=1e9, nbytes=2e9)]
        roof = Roofline(peak_gflops=100.0, peak_bw_gbs=10.0)
        (chk,) = crossvalidate(aggregate(spans), roof)
        assert chk.model_gflops == pytest.approx(5.0)
        assert chk.fraction == pytest.approx(1.0 / 5.0)
        assert chk.pct_of_model == pytest.approx(20.0)
        assert chk.in_band  # 20% is inside (0.1%, 120%)

    def test_out_of_band_flagged(self):
        # Same AI = 0.5 (model 5 GF/s) but a measured rate of 1e-3 GF/s:
        # fraction 2e-4, below the 0.1% floor of the band.
        spans = [_span("slow", dur=1.0, flops=1e6, nbytes=2e6)]
        roof = Roofline(peak_gflops=100.0, peak_bw_gbs=10.0)
        (chk,) = crossvalidate(aggregate(spans), roof)
        assert not chk.in_band

    def test_solver_and_byteless_spans_skipped(self):
        spans = [
            _span("cg", cat="solver", flops=1e9),       # wrong category
            _span("noah", cat="kernel", flops=1e9),     # no byte attribution
        ]
        assert crossvalidate(aggregate(spans), Roofline(100.0, 10.0)) == []


class TestRoofline:
    def test_predict_is_min_of_ceilings(self):
        roof = Roofline(peak_gflops=100.0, peak_bw_gbs=10.0)
        assert roof.ridge_intensity == pytest.approx(10.0)
        assert roof.predict_gflops(1.0) == pytest.approx(10.0)
        assert roof.predict_gflops(50.0) == pytest.approx(100.0)
        assert roof.predict_gflops(0.0) == 0.0
        assert roof.bound(1.0) == "memory"
        assert roof.bound(50.0) == "compute"
        assert roof.pct_of_model(5.0, 1.0) == pytest.approx(50.0)

    def test_machine_roofline_from_table2(self):
        roof = machine_roofline("sierra")
        # V100: 15.7 FP32 TFLOPS; effective bw is cache-amplified STREAM.
        assert roof.peak_gflops == pytest.approx(15.7e3, rel=0.05)
        assert roof.peak_bw_gbs > 900.0
        assert roof.label.lower() == "sierra"

    def test_measured_host_roofline_is_positive_and_cached(self):
        from repro.perfmodel import host_roofline

        roof = host_roofline()
        assert roof.peak_gflops > 0.1
        assert roof.peak_bw_gbs > 0.1
        assert host_roofline() is roof  # cached per process


class TestSeededSolveAcceptance:
    """The PR's acceptance path, via the same API the CLIs use."""

    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        from repro.obs.cli import record_pipeline

        td = tmp_path_factory.mktemp("trace")
        n = record_pipeline(td, dims=(4, 4, 4, 8))
        assert n > 0
        return td

    def test_chrome_trace_is_valid(self, trace_dir, tmp_path):
        spans = obs.load_spans(trace_dir)
        assert spans, "seeded solve must produce spans"
        out = obs.write_chrome(spans, tmp_path / "trace.json")
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert any(n.startswith("dslash.") for n in names)
        assert any(n.startswith("cg.solve") for n in names)  # cg.solve / cg.solve_batched

    def test_measured_gflops_within_band_of_model(self, trace_dir):
        stats = aggregate(obs.load_spans(trace_dir))
        dslash = [s for s in stats.values() if s.name.startswith("dslash.")]
        assert dslash and all(s.gflops > 0 for s in dslash)
        # A synthetic-but-realistic host roofline keeps this check
        # deterministic; the CLI uses the micro-measured one.
        roof = Roofline(peak_gflops=50.0, peak_bw_gbs=15.0)
        checks = crossvalidate(stats, roof, band=DEFAULT_BAND)
        assert checks, "kernel spans must carry byte attribution"
        for chk in checks:
            assert chk.model_gflops > 0
            assert chk.fraction > 0

    def test_trace_cli_record_convert_summary(self, tmp_path, capsys):
        from repro.obs import cli as trace_cli

        wd = tmp_path / "wd"
        assert trace_cli.main(["record", "--workdir", str(wd),
                               "--dims", "2", "2", "2", "4"]) == 0
        assert trace_cli.main(["convert", "--workdir", str(wd)]) == 0
        assert (wd / "trace.json").exists()
        json.loads((wd / "trace.json").read_text())
        assert trace_cli.main(["summary", "--workdir", str(wd),
                               "--machine", "sierra"]) == 0
        out = capsys.readouterr().out
        assert "% of model" in out
        assert "band" in out

    def test_trace_cli_empty_workdir_errors(self, tmp_path):
        from repro.obs import cli as trace_cli

        assert trace_cli.main(["convert", "--workdir", str(tmp_path)]) == 1
        assert trace_cli.main(["summary", "--workdir", str(tmp_path)]) == 1


def test_report_perf_section(capsys):
    from repro.cli import main

    assert main(["--section", "perf"]) == 0
    out = capsys.readouterr().out
    assert "Measured vs modeled performance" in out
    assert "% of model" in out
    assert "band [0.1%, 120%]" in out
    assert "dslash." in out
