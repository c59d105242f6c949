"""Benchmark-suite plumbing.

Benches time their runs via pytest-benchmark; a bench may register a
table with the ``report`` fixture, which prints it in the terminal
summary (after the timing table), so it survives pytest's output
capture.
"""

from __future__ import annotations

import pytest

_REPORTS: list[tuple[str, str]] = []


@pytest.fixture
def report():
    """Register a (title, table) pair for the terminal summary."""

    def _add(title: str, text: str) -> None:
        _REPORTS.append((title, text))

    return _add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for title, text in _REPORTS:
        terminalreporter.write_sep("=", title)
        terminalreporter.write_line(text)
