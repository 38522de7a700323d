"""Shared pytest plumbing: the acceptance verdict board, and the import path
that subprocesses started by tests inherit.

Acceptance tests record one line per criterion through the `criterion`
fixture; the terminal-summary hook replays them after the run so the
verdicts are visible even when pytest captures stdout.
"""

import os
from pathlib import Path

import pytest

import fpblock

# Tests that run `python -m fpblock.cli` or `python -c "import fpblock"` in a
# subprocess must import this same package, also when pytest found it through
# the `pythonpath` setting rather than an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(fpblock.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
)

_criterion_lines: list[str] = []


@pytest.fixture(scope="session")
def criterion():
    def record(number: int, passed: bool, detail: str) -> bool:
        verdict = "PASS" if passed else "FAIL"
        line = f"CRITERION {number:2d}: {verdict}  {detail}"
        _criterion_lines.append(line)
        print(line)
        return passed

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
