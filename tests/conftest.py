"""Shared test plumbing.

The acceptance tests record one PASS/FAIL line per criterion; those lines are
echoed in the terminal summary so they are visible even when pytest captures
stdout.
"""
import pytest

from verisynth import experiments

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Callable recording 'criterion N: PASS/FAIL — detail' summary lines."""

    def record(number: int, passed: bool, detail: str) -> None:
        line = f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} — {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


@pytest.fixture
def split_blocks(monkeypatch):
    """Give every thread a block of its own, however little work it holds, on
    a machine of 8 CPUs: the threaded path runs on any machine."""
    monkeypatch.setattr(experiments, "MIN_BLOCK_NOISE", 1)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
