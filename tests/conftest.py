"""Shared fixtures and the acceptance-criteria summary."""
import os

import pytest

from lsentropy import cli, load_karate


@pytest.fixture(scope="session")
def karate():
    return load_karate()


@pytest.fixture()
def jobs_as_requested(monkeypatch):
    """``--jobs N`` runs N processes, whatever the host's CPU count."""
    job_count = cli._job_count
    monkeypatch.setattr(cli, "_job_count", lambda requested: requested or job_count(None))


@pytest.fixture()
def forkless_on(monkeypatch):
    """``forkless_on(cpus)``: this process may use ``cpus`` CPUs, and
    ``os.fork`` raises, so a command that would start a process fails."""

    def fork():
        raise AssertionError("os.fork called")

    def on(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "fork", fork)

    return on


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance test, plus soft notes."""
    lines = {}
    notes = {}
    for status, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if name not in lines or word == "FAIL":
                lines[name] = word
            for key, value in getattr(report, "user_properties", ()):
                if key == "soft_note":
                    notes[name] = value
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(lines):
        terminalreporter.write_line(f"{lines[name]} {name}")
        if name in notes:
            terminalreporter.write_line(f"     note: {notes[name]}")
