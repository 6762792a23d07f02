"""Benchmark harness plumbing.

Benchmarks regenerate the paper's tables and figures as text.  Because
pytest captures stdout, each benchmark registers its rendered tables with
the :func:`report` fixture; a terminal-summary hook prints everything at
the end of the run, so ``pytest benchmarks/ --benchmark-only | tee
bench_output.txt`` contains the full reproduction report.
:func:`host_metadata` is the machine stamp of the benchmark JSON files.
"""

from __future__ import annotations

import os
import platform

import numpy as np
import pytest

_SECTIONS: list[tuple[str, str]] = []


def host_metadata() -> dict:
    """Machine facts every benchmark JSON should carry for comparability."""
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


@pytest.fixture
def report():
    """Register a named report section: ``report(title, text)``."""

    def _add(title: str, text: str) -> None:
        _SECTIONS.append((title, text))

    return _add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SECTIONS:
        return
    tr = terminalreporter
    tr.section("paper reproduction report")
    for title, text in _SECTIONS:
        tr.write_line("")
        tr.write_line(f"===== {title} =====")
        for line in text.splitlines():
            tr.write_line(line)
