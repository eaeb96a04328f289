"""Acceptance criteria, one test per criterion.

Criteria 1, 2, 6 and 7 call the library's verify suites, criterion 2 on a
wider grid than verify's; criteria 3, 5 and 9 read theirs from the session's
verify run.  Criterion 3's chi-additivity loop and criteria 4 and 8 check
their formulas directly.  Every check is exact (integer equality); the
timed criteria assert their wall-clock budget.  Each test prints a single
pass line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import time

from scrollcalc import beilinson as bl
from scrollcalc import cohomology as coh
from scrollcalc import instanton as inst
from scrollcalc import verification
from scrollcalc.cohomology import line, omega
from scrollcalc.errors import Inadmissible


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_chow_oracle_agreement():
    # 2 mu_H and delta_H against Chow degrees, e <= 6 and |a|, |b| <= 10.
    start = time.perf_counter()
    result = verification.chow_slope_oracle(verification.DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    assert result.ok, result.failures[:5]
    assert result.cases == 3094
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"slope/degree formulas match Chow degrees ({elapsed:.2f}s)")


def test_criterion_2_riemann_roch_cross_check(monkeypatch):
    # The chow-riemann-roch-cross suite on a wider grid than verify's:
    # e <= 6, |a|, |b| <= 8, alpha, beta <= 10, far corner (10, 10).  Per
    # twist it certifies that the Chow route is affine in (alpha, beta),
    # then sweeps the closed cubic over the whole parameter box.
    monkeypatch.setattr(verification, "E_MAX", 6)
    monkeypatch.setattr(verification, "AB_MAX", 8)
    monkeypatch.setattr(verification, "PARAM_MAX", 10)
    monkeypatch.setattr(verification, "RR_PROBES", verification.RR_PROBES[:-1] + ((10, 10),))
    start = time.perf_counter()
    result = verification.chow_riemann_roch_cross(verification.DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    assert result.ok, result.failures[:5]
    assert result.cases == 7 * 17 * 17 * 2 + 300 == 4346
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    _report(2, f"both Riemann-Roch routes agree on the full grid ({elapsed:.2f}s)")


def test_criterion_3_serre_duality_and_chi_additivity(verify_results):
    # The coh-serre-duality suite checks line-bundle Serre duality for e <= 6
    # and |a|, |b| <= 10; chi additivity is swept here on a wider grid than
    # the coh-chi-additivity suite's.
    (suite,) = [r for r in verify_results if r.name == "coh-serre-duality"]
    assert suite.ok, suite.failures[:5]
    assert suite.cases == 3087
    start = time.perf_counter()
    for e in range(7):
        for a in range(-8, 9):
            for b in range(-8, 9):
                for fn in coh.NAMED_SEQUENCES.values():
                    assert coh.chi_alternating(fn(e, a, b)) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    _report(3, f"line-bundle Serre duality in {suite.cases} cases and chi additivity "
               f"({elapsed:.2f}s)")


def test_criterion_4_h1_values():
    checked = 0
    for e in range(5):
        for alpha in range(9):
            for beta in range(9):
                try:
                    got = bl.h1_values(e, alpha, beta, 1)
                except Inadmissible:
                    continue
                assert got["-xi"] == alpha
                assert got["-xi+f"] == 2 * alpha
                assert got["-(e+1)f"] == beta + (-e * e + e) // 2
                assert got["-ef"] == alpha + beta + (-e * e + 3 * e - 2) // 2
                assert got["-(e-1)f"] == 2 * alpha + beta + (-e * e + 5 * e - 8) // 2
                checked += 1
                try:
                    got2 = bl.h1_values(e, alpha, beta, 2)
                except Inadmissible:
                    got2 = None
                if got2 is not None:
                    assert (
                        got2["omega(-(e-1)f)"]
                        == 2 * beta + alpha - e * e + 2 * e + 1
                    )
        for beta in range((e * e + e) // 2 + 1, 14):
            got3 = bl.h1_values(e, 0, beta, 3)
            assert got3["omega(-ef)"] == 2 * beta - e * e + 1
    assert checked > 100
    _report(4, f"displayed h1 values reproduced at {checked} admissible points")


def test_criterion_5_monad_consistency(verify_results):
    # The beilinson-monads suite checks rank/c1/c2/chi consistency and the
    # table positions of every admissible monad of e < 5, alpha, beta <= 8,
    # variants 1-3.
    (suite,) = [r for r in verify_results if r.name == "beilinson-monads"]
    assert suite.ok, suite.failures[:5]
    assert suite.cases == 1308
    # golden monad at e = 1 (the classical three-term display)
    m = bl.monad_shape(1, 1, 2, 1)
    assert dict(m.A.terms) == {omega(-1, 1): 1, line(0, -1): 2}
    assert dict(m.B.terms) == {omega(0, 1): 3, line(-1, 0): 2}
    assert dict(m.C.terms) == {line(0, 0): 2}
    # minimal pullback: middle/right ranks (e+3, e+1)
    for e in range(6):
        m = bl.monad_shape(e, 0, (e * e + e) // 2 + 1, 3)
        assert m.A.terms == ()
        assert m.B.rank() == e + 3 and m.C.rank() == e + 1
    _report(5, f"monad consistency and table positions in {suite.cases} cases")


def test_criterion_6_orthogonality_and_strongness():
    # Both suites cover e <= 5: three dual pairs and fifteen forward pairs each.
    start = time.perf_counter()
    orth = verification.beilinson_orthogonality(verification.DEFAULT_SEED)
    strong = verification.beilinson_strongness(verification.DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    assert orth.ok and strong.ok, (orth.failures[:5], strong.failures[:5])
    assert (orth.cases, strong.cases) == (18, 90)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(6, f"dual orthogonality and strongness for e <= 5 ({elapsed:.2f}s)")


def test_criterion_7_ext_and_moduli_formulas():
    # The suite compares the Ext difference with GRR for e <= 6, alpha, beta <= 10.
    grr = verification.instanton_ext_grr(verification.DEFAULT_SEED)
    assert grr.ok, grr.failures[:5]
    assert grr.cases == 7 * 11 * 11 + 7
    for e in range(7):
        want_ext2 = 0 if e <= 3 else (e - 2) * (e - 3) // 2
        assert inst.ext_dimensions(e, 0, 0).ext2 == want_ext2
        for alpha in range(11):
            for beta in range(11):
                dims = inst.ext_dimensions(e, alpha, beta)
                assert (
                    dims.ext1_minus_ext2
                    == (6 + 2 * e) * alpha + 4 * beta - (e - 1) ** 2 - 3
                )
        for beta in range(inst.min_pullback_beta(e), inst.min_pullback_beta(e) + 12):
            assert inst.ext_dimensions(e, 0, beta).ext1_minus_ext2 == inst.plane_moduli_dim(e, beta)
    _report(7, "Ext dimensions, GRR cross-check and moduli counts agree")


def test_criterion_8_elementary_modification():
    for e in range(4):
        for alpha in range(e + 1, 9):
            p0 = inst.InstantonParams(e, alpha, 0)
            ext0 = inst.existence_report(p0).ext1
            p, ext1 = p0, ext0
            for n in range(1, 9):
                p, ext1 = inst.elementary_modification(p, ext1)
                assert (p.alpha, p.beta) == (alpha, n)
                assert ext1 == ext0 + 4 * n
                assert p.charge == p0.charge + n
    _report(8, "n modifications shift (beta, ext1, charge) by (n, 4n, n)")


def test_criterion_9_cli_determinism_and_roundtrip(
    verify_results, verify_subprocess, render_verify
):
    # Two independent runs, in-process and in a fresh process, print the same.
    assert verify_subprocess == render_verify()
    code, out = verify_subprocess
    assert code == 0 and "all suites passed" in out
    (result,) = [r for r in verify_results if r.name == "serialization-roundtrip"]
    assert result.ok and result.cases >= 1000
    _report(9, "verify exits 0 with stable output; 1000 JSON round-trips hold")
