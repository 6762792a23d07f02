"""The repro-report command-line tool."""

from __future__ import annotations

import datetime
import os
import platform
import re
import subprocess

import numpy as np
import pytest

from repro.cli import main
from repro.version import __version__


class TestCli:
    def test_all_sections(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out
        assert "Headline" in out

    def test_first_line_says_where_the_numbers_come_from(self, capsys, monkeypatch):
        """Host fingerprint, code revision and date, before any number."""
        assert main(["--section", "table1"]) == 0
        first, second = capsys.readouterr().out.splitlines()[:2]
        assert first.startswith("provenance: ")
        for fact in (
            platform.platform(),
            f"{os.cpu_count()} CPUs",
            f"Python {platform.python_version()}",
            f"NumPy {np.__version__}",
            f"repro {__version__}",
        ):
            assert fact in first
        assert re.search(r"\((git [0-9a-f]{4,}|not a checkout)\)", first)
        stamp = datetime.datetime.fromisoformat(first.rsplit("; ", 1)[1])
        assert abs(datetime.datetime.now(datetime.timezone.utc) - stamp).total_seconds() < 60
        assert second.startswith("Table I")

        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", no_git)
        assert main(["--section", "table1"]) == 0
        assert "(not a checkout)" in capsys.readouterr().out.splitlines()[0]

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
