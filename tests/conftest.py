"""Shared fixtures.

The full ``verify`` self-check is the slowest thing the suite runs, so it
runs twice per session: once in-process and once as a ``python -m
scrollcalc verify`` subprocess.  Tests that need its report, the CLI
rendering of that report, or the subprocess output take them from here.

Property tests run under a derandomized hypothesis profile, so every run
draws the same examples; deadlines and example counts keep their defaults.
"""

import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import settings

from scrollcalc import chow, cli, verification
from scrollcalc.cohomology import LINE, FormalSheaf, line

settings.register_profile("scrollcalc", derandomize=True)
settings.load_profile("scrollcalc")


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


@pytest.fixture(scope="session")
def rr_chi():
    """``rr_chi(e, summand)``: chi of one line bundle or Omega twist by
    Riemann-Roch (``chow.chi_rr``), independent of the cohomology closed
    forms.  A line bundle L goes in as the rank-2 sum L + O, minus chi(O) = 1."""

    def chi(e, s):
        if s.kind == LINE:
            pair = FormalSheaf.of(e, [(s, 1), (line(0, 0), 1)])
            return chow.chi_rr(pair.chern_data()) - 1
        return chow.chi_rr(FormalSheaf.of(e, [(s, 1)]).chern_data())

    return chi
