"""Application workflow accounting, speedups, and field I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import WorkloadSpec
from repro.io import FieldFile, ParallelIOModel, gauge_bytes, propagator_bytes
from repro.machines import get_machine
from repro.workflow import (
    ApplicationBudget,
    ApplicationWorkflow,
    PAPER_BUDGET,
    machine_to_machine_speedup,
    sustained_application_pflops,
)


class TestBudget:
    def test_paper_budget_sums_to_one(self):
        assert PAPER_BUDGET.propagators == 0.965
        assert PAPER_BUDGET.contractions == 0.03
        assert PAPER_BUDGET.io == 0.005

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            ApplicationBudget(0.9, 0.05, 0.01)

    def test_interleaving_removes_contraction_cost(self):
        serial = PAPER_BUDGET.serial_slowdown()
        inter = PAPER_BUDGET.interleaved_slowdown()
        assert inter < serial
        # only the 0.5% I/O remains on top of the solves
        assert inter == pytest.approx(0.97 / 0.965, rel=1e-6)

    def test_effective_sustained_fraction(self):
        # solver at 20% -> application at ~19.9% with co-scheduling
        out = PAPER_BUDGET.effective_sustained_fraction(0.20)
        assert out == pytest.approx(0.199, abs=0.002)
        assert PAPER_BUDGET.effective_sustained_fraction(0.20, co_scheduled=False) < out


class TestApplicationWorkflow:
    @pytest.fixture(scope="class")
    def workflow(self):
        sierra = get_machine("sierra")
        return ApplicationWorkflow(
            sierra, n_nodes=16, spec=WorkloadSpec(n_propagators=24, cg_iterations=1000)
        )

    def test_co_scheduling_amortizes_contractions(self, workflow):
        rep = workflow.run(co_schedule=True)
        assert rep.contractions_amortized
        assert rep.n_contractions == 24

    def test_serial_baseline_pays_contraction_cost(self, workflow):
        rep = workflow.run(co_schedule=False)
        assert rep.contraction_overhead_fraction > 0.01

    def test_sustained_performance_positive(self, workflow):
        rep = workflow.run(co_schedule=True)
        assert rep.sustained_pflops > 0
        assert 0.5 < rep.gpu_utilization <= 1.0


class TestSpeedups:
    def test_sierra_speedup_near_twelve(self):
        assert machine_to_machine_speedup("sierra") == pytest.approx(12.0, abs=2.0)

    def test_summit_speedup_near_fifteen(self):
        assert machine_to_machine_speedup("summit") == pytest.approx(15.0, abs=3.0)

    def test_summit_faster_than_sierra(self):
        assert machine_to_machine_speedup("summit") > machine_to_machine_speedup("sierra")

    def test_sierra_full_scale_sustained_matches_paper(self):
        """~20 PFlops sustained = ~15-20% of peak on 3388 nodes."""
        sierra = get_machine("sierra")
        pf = sustained_application_pflops(sierra, 3388, mpi_performance_factor=0.93)
        assert pf == pytest.approx(20.0, rel=0.2)
        pct = pf * 1e3 / (3388 * 60) * 1.675 * 100
        assert 14.0 < pct < 21.0

    def test_minimum_nodes_validated(self):
        with pytest.raises(ValueError):
            sustained_application_pflops(get_machine("sierra"), 2)


class TestFieldFile:
    def test_roundtrip_arrays_and_metadata(self, tmp_path):
        ff = FieldFile({"beta": 5.9, "ensemble": "a09m310"})
        rng = np.random.default_rng(0)
        links = rng.normal(size=(4, 2, 2, 2, 2, 3, 3)) + 1j * rng.normal(size=(4, 2, 2, 2, 2, 3, 3))
        corr = rng.normal(size=16)
        ff.add("links", links)
        ff.add("corr", corr)
        path = tmp_path / "cfg.lq"
        nbytes = ff.save(path)
        assert nbytes > links.nbytes
        back = FieldFile.load(path)
        assert back.metadata["ensemble"] == "a09m310"
        np.testing.assert_array_equal(back["links"], links)
        np.testing.assert_array_equal(back["corr"], corr)
        assert back.names() == ["corr", "links"]

    def test_duplicate_name_rejected(self):
        ff = FieldFile()
        ff.add("x", np.ones(3))
        with pytest.raises(ValueError):
            ff.add("x", np.ones(3))

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            FieldFile().add("a/b", np.ones(2))

    def test_corruption_detected(self, tmp_path):
        ff = FieldFile()
        ff.add("x", np.arange(100, dtype=np.float64))
        path = tmp_path / "c.lq"
        ff.save(path)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            FieldFile.load(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "junk.lq"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            FieldFile.load(path)

    def test_truncation_detected(self, tmp_path):
        """A torn/partial file (crashed writer, full disk) must not load."""
        ff = FieldFile()
        ff.add("x", np.arange(200, dtype=np.float64))
        path = tmp_path / "t.lq"
        ff.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(ValueError, match="truncated"):
            FieldFile.load(path)

    def test_header_corruption_detected(self, tmp_path):
        ff = FieldFile({"tag": "x"})
        ff.add("x", np.ones(4))
        path = tmp_path / "h.lq"
        ff.save(path)
        raw = bytearray(path.read_bytes())
        raw[24] ^= 0xFF  # flip a byte inside the JSON header
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="header checksum"):
            FieldFile.load(path)

    def test_save_is_atomic_replace(self, tmp_path):
        """A failed save must leave the previous file intact."""
        path = tmp_path / "a.lq"
        ff = FieldFile({"v": 1})
        ff.add("x", np.arange(8, dtype=np.float64))
        ff.save(path)
        before = path.read_bytes()

        class Boom(RuntimeError):
            pass

        bad = FieldFile({"v": 2})
        arr = np.arange(8, dtype=np.float64)
        bad.add("x", arr)

        # Sabotage serialization partway: tobytes succeeds but the temp
        # write dies. Easiest hook: make the header unserializable after
        # add() has already validated the arrays.
        bad.metadata["boom"] = Boom  # json.dumps raises TypeError
        with pytest.raises(TypeError):
            bad.save(path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob(".*.tmp.*")), "temp file left behind"

    def test_file_bytes_are_pinned(self, tmp_path):
        """``save`` checksums and writes each array's own buffer; the
        file is byte-for-byte what the copying writer produced (digest
        taken from it), for a strided view, a Fortran-ordered array and
        a zero-size array too."""
        import hashlib

        big = np.arange(120, dtype=np.float64).reshape(6, 5, 4) * (1.0 + 0.5j)
        ff = FieldFile({"kind": "digest", "n": 3})
        ff.add("strided", big[::2, :, 1::2])
        ff.add("transposed", big.real.T)
        ff.add("empty", np.zeros((0, 3), dtype=np.complex128))
        ff.add("ints", np.arange(7, dtype=np.int32))
        path = tmp_path / "pinned.lq"
        assert ff.save(path) == 1964
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "765ab43dbb690362cf64e537f91746237dc91dcea151828db83813f359e99e38"
        )
        back = FieldFile.load(path)
        np.testing.assert_array_equal(back["strided"], big[::2, :, 1::2])
        np.testing.assert_array_equal(back["transposed"], big.real.T)
        assert back["empty"].shape == (0, 3)

    def test_v1_files_still_load(self, tmp_path):
        """Format v1 (REPROLQ1, no header CRC) remains readable."""
        import json as _json

        arr = np.arange(6, dtype=np.float64)
        blob = arr.tobytes()
        import zlib

        header = _json.dumps(
            {
                "metadata": {"legacy": True},
                "arrays": [
                    {
                        "name": "x",
                        "dtype": "float64",
                        "shape": [6],
                        "offset": 0,
                        "nbytes": len(blob),
                        "crc32": zlib.crc32(blob) & 0xFFFFFFFF,
                    }
                ],
            }
        ).encode()
        path = tmp_path / "v1.lq"
        path.write_bytes(
            b"REPROLQ1" + len(header).to_bytes(8, "little") + header + blob
        )
        back = FieldFile.load(path)
        assert back.metadata["legacy"] is True
        np.testing.assert_array_equal(back["x"], arr)


class TestParallelIOModel:
    def test_sizes(self):
        assert gauge_bytes((48, 48, 48, 64)) == 48**3 * 64 * 4 * 9 * 16
        assert propagator_bytes((48, 48, 48, 64)) == 48**3 * 64 * 144 * 2 * 8

    def test_io_fraction_near_half_percent(self):
        """The paper's budget: I/O ~0.5% of application time for the
        production lattice and solve times."""
        io = ParallelIOModel()
        frac = io.campaign_io_fraction(
            (48, 48, 48, 64), n_propagators=1000, solve_seconds_per_propagator=600
        )
        assert 0.002 < frac < 0.02

    def test_write_time_monotone_in_size(self):
        io = ParallelIOModel()
        assert io.write_time(1e9) < io.write_time(1e10)

    def test_more_nodes_faster_until_fs_limit(self):
        io = ParallelIOModel()
        assert io.write_time(1e10, n_nodes=8) < io.write_time(1e10, n_nodes=1)

    def test_validation(self):
        io = ParallelIOModel()
        with pytest.raises(ValueError):
            io.write_time(-1.0)
        with pytest.raises(ValueError):
            io.campaign_io_fraction((4, 4, 4, 8), 0, 100.0)
