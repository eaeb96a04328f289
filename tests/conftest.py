"""Shared fixtures.

The full ``verify`` self-check is the slowest thing the suite runs, so it
runs twice per session: once in-process and once as a ``python -m
scrollcalc verify`` subprocess.  Tests that need its report, the CLI
rendering of that report, or the subprocess output take them from here.
"""

import contextlib
import io
import subprocess
import sys

import pytest

from scrollcalc import cli, verification


@pytest.fixture(scope="session")
def _verify_runs():
    # The subprocess starts first so that the two runs overlap.
    proc = subprocess.Popen(
        [sys.executable, "-m", "scrollcalc", "verify"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    results = verification.run_all(verification.DEFAULT_SEED)
    out, _ = proc.communicate()
    return results, (proc.returncode, out)


@pytest.fixture(scope="session")
def verify_results(_verify_runs):
    """The in-process ``verification.run_all`` report."""
    return _verify_runs[0]


@pytest.fixture(scope="session")
def verify_subprocess(_verify_runs):
    """``(exit code, stdout)`` of ``scrollcalc verify`` in a fresh process."""
    return _verify_runs[1]


@pytest.fixture
def render_verify(verify_results, monkeypatch):
    """``render_verify(*flags)`` runs ``cli.main(["verify", *flags])`` on the
    session's results and returns ``(exit code, stdout)``."""

    def run_all(seed):
        assert seed == verification.DEFAULT_SEED
        return verify_results

    monkeypatch.setattr(verification, "run_all", run_all)

    def render(*flags):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", *flags])
        return code, out.getvalue()

    return render
