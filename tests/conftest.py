"""Checks that hold after every test.

Imported first, so ``import tamseg`` here pins BLAS and OpenMP threads before
any test module loads numpy, as the command line runs.
"""

import os

import pytest

import tamseg  # noqa: F401


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process still has a child, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process is left after the test (waitpid: pid {pid}; "
                "0 means one still runs)")
