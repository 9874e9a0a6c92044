"""Shared fixtures for the test suite."""

import threading
from pathlib import Path

import pytest

import rankdist


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive that it started: the
    simulator's draw worker, the report grid's pool and the CSV writers'
    pool all join their threads before they return, on success or
    error."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"

# The variables that size the BLAS pool under numpy (OpenBLAS, or MKL in
# some builds).  A ``rankdist.cli simulate`` child also has the simulator's
# one shock-drawing worker from n = 8,192 up, which these do not size.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def cli_env(tmp_path):
    """Return ``make(threads)``: a minimal environment for a child
    ``python -m rankdist.cli`` with every ``THREAD_VARS`` entry set to
    ``threads``.  ``PYTHONPATH`` points at the directory holding the
    ``rankdist`` this suite imported, so the child runs the same package
    (from ``src`` or an install) from any working directory.
    """
    package_parent = str(Path(rankdist.__file__).resolve().parent.parent)

    def make(threads):
        env = {"PATH": "/usr/bin:/bin", "HOME": str(tmp_path),
               "PYTHONPATH": package_parent}
        env.update(dict.fromkeys(THREAD_VARS, threads))
        return env

    return make
