"""Session-wide checks for the test suite."""

import os
import sys
from pathlib import Path

import pytest


def _children() -> list[int]:
    """Pids of this process's children, where Linux lists them."""
    pids = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*"):
        try:
            pids += map(int, (task / "children").read_text().split())
        except OSError:
            pass
    return pids


def pytest_sessionfinish(session, exitstatus):
    """Fail the session if the test process still has a child process.

    A Monte Carlo worker that a run did not reap, or any other process a
    test started and left, would otherwise outlive the suite unnoticed.
    """
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = _children() + ([pid] if pid else [])
    print(f"\nerror: the test process still has child processes {left}",
          file=sys.stderr)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
