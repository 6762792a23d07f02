"""The repro-report command-line tool."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_all_sections(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out
        assert "Headline" in out

    def test_single_section(self, capsys):
        assert main(["--section", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Sierra" in out and "Table I:" not in out

    def test_headlines_contain_anchors(self, capsys):
        main(["--section", "headlines"])
        out = capsys.readouterr().out
        assert "GB/s/GPU" in out
        assert "tau_n" in out
        assert "mpi_jm startup" in out

    def test_memory_section(self, capsys):
        assert main(["--section", "memory"]) == 0
        out = capsys.readouterr().out
        assert "min V100 GPUs" in out

    def test_kernels_section(self, capsys):
        """The kernel tiers are the production stencil and its oracle."""
        assert main(["--section", "kernels"]) == 0
        out = capsys.readouterr().out
        assert "Dslash kernels" in out
        assert "halfspinor" in out and "reference" in out
        assert "numba" not in out and "SoA" not in out

    def test_comm_section_reports_both_rankings(self, capsys):
        assert main(["--section", "comm"]) == 0
        out = capsys.readouterr().out
        assert "Comm policies, modeled" in out
        assert "Comm policies, measured" in out
        assert "source=model" in out
        assert "source=measured" in out
        assert "<- best" in out

    def test_tts_section(self, capsys):
        assert main(["--section", "tts"]) == 0
        out = capsys.readouterr().out
        assert "Time to solution" in out and "Sierra days" in out

    def test_campaign_section_crossvalidates(self, capsys):
        assert main(["--section", "campaign"]) == 0
        out = capsys.readouterr().out
        assert "Executed vs modeled scheduling" in out
        assert "rankings agree" in out

    def test_bad_section_rejected(self):
        with pytest.raises(SystemExit):
            main(["--section", "nope"])


class TestCampaignCli:
    """The repro-campaign tool on a small thread-pool campaign."""

    def test_run_status_report_roundtrip(self, tmp_path, capsys):
        from repro.runtime.cli import main as cmain

        wd = str(tmp_path / "camp")
        rc = cmain(
            [
                "run", "--workdir", wd, "--workers", "2", "--pool", "thread",
                "--masses", "0.5", "--no-seq", "--checkpoint-every", "20",
                "--fault", "raise:corr_m0",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "campaign finished" in out
        assert "retries 1" in out  # the injected raise healed via retry

        assert cmain(["status", "--workdir", wd]) == 0
        out = capsys.readouterr().out
        assert "finished" in out and "done" in out

        assert cmain(["report", "--workdir", wd]) == 0
        out = capsys.readouterr().out
        assert "Task outcomes" in out and "Worker utilization" in out

        assert cmain(["report", "--workdir", wd, "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["finished"] is True
        assert payload["telemetry"]["tasks_done"] == 6

        # Nothing pending: resume is a polite no-op.
        assert cmain(["resume", "--workdir", wd]) == 0
        assert "already finished" in capsys.readouterr().out

    def test_status_without_ledger_fails(self, tmp_path, capsys):
        from repro.runtime.cli import main as cmain

        assert cmain(["status", "--workdir", str(tmp_path / "void")]) == 1
