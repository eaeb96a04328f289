"""Instanton predicates, stability, curves, Ext formulas, existence."""

import itertools
import time
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scrollcalc import beilinson, chow
from scrollcalc import cohomology as coh
from scrollcalc import instanton as inst
from scrollcalc.cohomology import Summand, line, omega, serre_dual_twist
from scrollcalc.errors import Inadmissible
from scrollcalc.instanton import ExistenceReport, InstantonParams


def test_charge():
    p = InstantonParams(2, 3, 1)
    assert p.charge == 10
    for e in range(6):
        for a in range(6):
            for b in range(6):
                p = InstantonParams(e, a, b)
                assert p.charge - InstantonParams(e, a, b - 1).charge == 1
                assert p.charge - InstantonParams(e, a - 1, b).charge == e + 1
    with pytest.raises(ValueError):
        InstantonParams(-1, 0, 0)


def test_ulrich_twist():
    assert inst.is_ulrich_twist(InstantonParams(0, 0, 1))
    assert inst.is_ulrich_twist(InstantonParams(1, 0, 2))
    assert not inst.is_ulrich_twist(InstantonParams(0, 0, 0))
    # cross-module identity with the chi closed form
    for e in range(6):
        for a in range(9):
            for b in range(9):
                assert inst.is_ulrich_twist(InstantonParams(e, a, b)) == (
                    chow.chi_instanton(e, a, b, 0, 0) == 0
                )


def test_forced_vanishing_regions():
    assert inst.forced_vanishing(3, line(-1, 3), 0) == "h0-bundle"
    assert inst.forced_vanishing(3, line(0, 0), 2) == "h2-bundle"
    assert inst.forced_vanishing(3, line(5, 5), 1) is None
    assert inst.forced_vanishing(3, line(0, -2), 0) == "h0-bundle"
    assert inst.forced_vanishing(3, line(0, -5), 3) == "h3-bundle"
    assert inst.forced_vanishing(3, line(-2, -2), 3) == "h3-bundle"
    assert inst.forced_vanishing(3, line(-1, 4), 0) is None  # b > e
    for i in range(4):
        assert inst.forced_vanishing(3, line(-1, -1), i) == "minus-h"
    assert inst.forced_vanishing(2, omega(-1, 3), 0) == "h0-omega"
    assert inst.forced_vanishing(2, omega(0, -2), 3) == "h3-omega"
    assert inst.forced_vanishing(2, omega(0, 1), 2) == "h2-omega"
    assert inst.forced_vanishing(2, omega(0, 0), 2) is None
    with pytest.raises(ValueError):  # an unknown kind never reaches it
        inst.forced_vanishing(2, Summand("nope", 0, 0), 0)


def _old_h3_region(e, s):
    """The h3 regions as they were written out by hand, kept as the reference."""
    kind, a, b = s
    if kind == "line":
        return "h3-bundle" if (a >= -1 and b >= -(e + 2)) or (a == -2 and b >= -2) else None
    return "h3-omega" if (a >= -1 and b >= -e) or (a == -2 and b >= 0) else None


def test_forced_h3_is_h0_at_the_serre_dual_twist():
    for e in range(13):
        for a in range(-30, 31):
            for b in range(-40, 41):
                for s in (line(a, b), omega(a, b)):
                    want = "minus-h" if s == line(-1, -1) else _old_h3_region(e, s)
                    assert inst.forced_vanishing(e, s, 3) == want, (e, s)


@pytest.mark.parametrize("args, message, bound", [
    (("x", line(-1, 0), 0), "expected an int, got 'x'", "type(value) is int"),
    ((1.5, line(-1, 0), 0), "expected an int, got 1.5", "type(value) is int"),
    ((-1, line(-1, 0), 0), "the scroll parameter e must be non-negative", "e >= 0"),
    ((1, (0, 0), 0), "twist summand (0, 0) is not a Summand", "s is a Summand"),
    ((1, line(0, 0), 7), "cohomology index 7 is not in 0..3", "i in 0..3"),
    ((1, line(0, 0), "x"), "cohomology index 'x' is not in 0..3", "i in 0..3"),
    ((1, line(0, 0), True), "cohomology index True is not in 0..3", "i in 0..3"),
    ((1, line(-1, -1), -1), "cohomology index -1 is not in 0..3", "i in 0..3"),
], ids=["e-str", "e-float", "e-negative", "s-tuple", "i-7", "i-str", "i-bool", "i-minus-h"])
def test_forced_vanishing_refuses_out_of_domain_args(args, message, bound):
    with pytest.raises(Inadmissible) as info:
        inst.forced_vanishing(*args)
    assert (str(info.value), info.value.bound) == (message, bound)


def test_twisted_bounds_read_earnestness():
    # At -(e+1)f, h0 and h3 are forced; chi = C(e,2) - beta then bounds h2
    # below for e >= 1 and gives h1 = beta exactly at e = 0, where h2 is forced.
    for e, beta in itertools.product(range(4), range(9)):
        s = line(0, -(e + 1))
        h0, h1, h2, h3 = inst.twisted_bounds(InstantonParams(e, e + 1, beta), s)
        assert (h0, h3) == ((0, 0, "h0-bundle"), (0, 0, "h3-bundle"))
        chi = comb(e, 2) - beta
        if e == 0:
            assert (h1, h2) == ((beta, beta, "chi"), (0, 0, "h2-bundle"))
        elif chi > 0:
            assert (h1, h2) == ((0, None, None), (chi, None, "chi"))
        else:
            assert (h1[:2], h2) == ((-chi, None), (0, None, None))
            assert h1[2] == ("chi" if chi else None)


def test_twisted_bounds_checks_its_arguments_once(monkeypatch):
    # p and s are checked on entry and the four tags read unchecked; the one
    # other check is serre_dual_twist's own, on the h3 route.
    p, s, seen = InstantonParams(1, 2, 0), line(0, -2), []

    def spy(module, name):
        check = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: (seen.append((name, args)), check(*args)))

    for module, name in ((inst, "_require_params"), (inst, "require_scroll"),
                         (coh, "_require_twist")):
        spy(module, name)
    assert inst.twisted_bounds(p, s)[3] == (0, 0, "h3-bundle")
    assert seen == [("_require_params", (p,)), ("_require_twist", (0, s)),
                    ("_require_twist", (3, s))]


def _meet(x, y):
    """Whether the intervals ``(lo, hi, _)`` (hi None: unbounded) are both
    non-empty and intersect."""
    lo = max(x[0], y[0])
    return all(hi is None or lo <= hi for hi in (x[1], y[1]))


_BOUNDS_TWISTS = [kind(a, b) for kind in (line, omega)
                  for a in range(-2, 3) for b in range(-4, 5)]


def test_twisted_bounds_hold_together_on_the_grid():
    # e <= 3, alpha, beta <= 8 and 90 twists: each interval is non-empty, the
    # tags are forced_vanishing's, and an interval meets the one of its Serre
    # dual group.  The rule refuses exactly the 18 points where it forces
    # h1(E) = -chi(E) < 0, all of them unknown.
    refused, pairs = set(), 0
    for e in range(4):
        tags = {s: [inst.forced_vanishing(e, s, i) for i in range(4)] for s in _BOUNDS_TWISTS}
        for alpha, beta in itertools.product(range(9), repeat=2):
            p = InstantonParams(e, alpha, beta)
            try:
                bounds = {s: inst.twisted_bounds(p, s) for s in _BOUNDS_TWISTS}
            except Inadmissible:
                refused.add((e, alpha, beta))
                continue
            for s, four in bounds.items():
                dual = inst.twisted_bounds(p, serre_dual_twist(0, s)[1])  # h^i is dual h^(3-i)
                for i, (bound, tag) in enumerate(zip(four, tags[s])):
                    assert bound == (0, 0, tag) if tag else bound[2] in ("chi", None), (p, s, i)
                    assert _meet(bound, dual[3 - i]), (p, s, i)
                    pairs += 1
    want = {(0, 0, 0), (2, 1, 0), *((1, 0, b) for b in range(2)), *((2, 0, b) for b in range(4)),
            *((3, 0, b) for b in range(7)), *((3, 1, b) for b in range(3))}
    assert refused == want
    assert all(chow.chi_instanton(*q, 0, 0) > 0 for q in want)
    assert {inst.existence_report(InstantonParams(*q)).status for q in want} == {inst.UNKNOWN}
    assert {(e, b) for e, a, b in want if a == 0} == {
        (e, b) for e in range(4) for b in range(inst.min_pullback_beta(e))}
    assert pairs == 4 * (4 * 81 - 18) * len(_BOUNDS_TWISTS)


def test_stability_region_boundary_cases():
    # (-2, e) always passes the non-strict test
    for e in range(7):
        assert (-2, e) in inst.stability_test_region(e, (-2, -2, e, e))
    # (0, 0) passes only for e <= 1
    for e in range(7):
        inside = bool(inst.stability_test_region(e, (0, 0, 0, 0)))
        assert inside == (e <= 1)
    # e = 0: (0,0) also survives the strict test (delta = 0 < 1 = -mu)
    assert inst.stability_test_region(0, (0, 0, 0, 0), strict=True) == [(0, 0)]
    # strict drops the boundary: at e = 1, delta(0,0) = 0 = -mu
    assert inst.stability_test_region(1, (0, 0, 0, 0), strict=True) == []


def _region_cells(e, window, strict):
    """Oracle: test every cell of the window against delta_H."""
    a_min, a_max, b_min, b_max = window
    two_mu = e * e + e - 2
    out = []
    for a in range(a_min, a_max + 1):
        for b in range(b_min, b_max + 1):
            d2 = 2 * chow.delta_H(e, a, b)
            if (d2 < -two_mu) if strict else (d2 <= -two_mu):
                out.append((a, b))
    return out


windows = st.tuples(
    st.integers(-40, 40), st.integers(0, 8), st.integers(-400, 400), st.integers(0, 60)
).map(lambda t: (t[0], t[0] + t[1], t[2], t[2] + t[3]))


@given(st.integers(0, 8), windows, st.booleans())
def test_stability_row_cut_matches_cell_scan(e, window, strict):
    got = inst.stability_test_region(e, window, strict)
    assert got == _region_cells(e, window, strict)


def test_stability_row_cut_straddling_windows():
    for e in range(9):
        for strict in (False, True):
            window = (-6, 6, -70, 70)
            got = inst.stability_test_region(e, window, strict)
            assert got == _region_cells(e, window, strict)


def test_stability_huge_window_small_region_is_fast():
    start = time.perf_counter()
    assert inst.stability_test_region(1, (-1000, 1000, 10**6, 2 * 10**6)) == []
    assert inst.stability_test_region(4, (-1000, 1000, 10**6, 2 * 10**6)) == []
    # Only rows a = -1000..-998 reach b >= 1330 at e = 1.
    corner = inst.stability_test_region(1, (-1000, 1000, 1330, 10**9))
    elapsed = time.perf_counter() - start
    assert corner == _region_cells(1, (-1000, -990, 1330, 1400), False)
    assert len(corner) == 8
    assert elapsed < 0.5


def test_stability_empty_rows_cost_nothing():
    start = time.perf_counter()
    assert inst.stability_test_region(1, (-500000, 500000, 10**9, 10**9 + 1)) == []
    # 10^9 rows, of which only a = 0 reaches b = 0 at e = 1.
    assert inst.stability_test_region(1, (0, 10**9, 0, 10)) == [(0, 0)]
    assert time.perf_counter() - start < 0.5


def test_stability_region_cap(monkeypatch):
    # e = 0: 2 delta_H(a, b) = 2a + 4b, so row a keeps b <= (1 - a) // 2.
    with pytest.raises(Inadmissible) as info:
        inst.stability_test_region(0, (0, 0, -(10**6), 0))
    assert info.value.bound == "region cells <= 1000000"
    monkeypatch.setattr(inst, "REGION_CELLS_MAX", 10)
    assert len(inst.stability_test_region(0, (-2, 9, -1, 0))) == 10  # rows -2..3
    assert len(inst.stability_test_region(0, (0, 0, -9, 0))) == 10
    for window in ((-3, 9, -1, 0), (0, 0, -10, 0), (-10, 0, 0, 0)):
        with pytest.raises(Inadmissible, match="more than 10 twists"):
            inst.stability_test_region(0, window)


def test_stability_region_refuses_negative_e():
    with pytest.raises(Inadmissible) as info:
        inst.stability_test_region(-1, (0, 0, 0, 0))
    assert str(info.value) == "the scroll parameter e must be non-negative"
    assert info.value.bound == "e >= 0"


def test_stability_region_refuses_a_window_of_other_than_four_ints():
    for window in ((0, 0, 0), (0, 0, 0, 0, 0), (0, 0.5, 0, 0), (0, 0, "0", 0), 4):
        with pytest.raises(Inadmissible) as info:
            inst.stability_test_region(1, window)
        assert info.value.bound == "window = (a_min, a_max, b_min, b_max)"
    assert inst.stability_test_region(1, [0, 0, -1, -1]) == [(0, -1)]


def test_stability_region_against_chow_degrees(verify_results):
    # Region membership against Chow degrees, e <= 6, |a|, |b| <= 10.
    (result,) = [r for r in verify_results if r.name == "instanton-stability-region"]
    assert result.ok, result.failures[:5]
    assert result.cases == 3087


def test_curve_info():
    ci = inst.curve_info(2, "xif")
    assert (ci.degree_H, ci.hilbert_dim) == (3, 5)
    assert ci.normal_bundle == (1, 2) and ci.h0_N == 5 and ci.h1_N == 0
    cl = inst.curve_info(4, "ff")
    assert (cl.degree_H, cl.hilbert_dim) == (1, 2)
    assert cl.normal_bundle == (0, 0) and cl.h0_N == 2
    with pytest.raises(ValueError):
        inst.curve_info(1, "hf")
    # chi(O_curve) = 1 via the Koszul resolution, for both classes
    for e in range(7):
        for cls in ("xif", "ff"):
            assert inst.chi_curve(e, cls) == 1 == inst.curve_info(e, cls).chi_O


def test_curves_match_their_written_out_data():
    # The classes, normal bundles and Koszul terms once written out by hand.
    F = coh.FormalSheaf.of
    for e in range(13):
        classes = [chow.divisor(e, *d1) * chow.divisor(e, *d2)
                   for _, d1, d2 in inst._CURVE_DIVISORS]
        assert classes == [chow.ChowClass(e, xif=1), chow.ChowClass(e, ff=1)]
        assert inst.curve_info(e, "xif") == ("xif", e + 1, 1, (1, e), e + 3, 0, e + 3)
        assert inst.curve_info(e, "ff") == ("ff", 1, 1, (0, 0), 2, 0, 2)
        assert inst.curve_resolution(e, "xif") == [F(e, [(line(-1, -1), 1)]),
                                                   F(e, [(line(-1, 0), 1), (line(0, -1), 1)]),
                                                   F(e, [(line(0, 0), 1)])]
        assert inst.curve_resolution(e, "ff") == [
            F(e, [(line(0, -2), 1)]), F(e, [(line(0, -1), 2)]), F(e, [(line(0, 0), 1)])]


def test_curve_info_refuses_a_negative_e():
    with pytest.raises(Inadmissible) as info:
        inst.curve_info(-1, "xif")
    assert info.value.bound == "e >= 0"


def test_curve_degrees_from_intersection_numbers():
    for e in range(7):
        h = chow.hyperplane(e)
        assert (chow.ChowClass(e, xif=1) * h).degree() == e + 1
        assert (chow.ChowClass(e, ff=1) * h).degree() == 1
        # det of the normal bundle of the ruling curve restricts with degree e+1
        L = chow.divisor(e, 2, 1 - e)
        assert (L * chow.ChowClass(e, xif=1)).degree() == e + 1
        # adjunction on each rational ruling curve: deg N = -K.C - 2
        for cls, curve in (("xif", chow.ChowClass(e, xif=1)), ("ff", chow.ChowClass(e, ff=1))):
            degree = -chow.canonical_class(e).pairing(curve) - 2
            assert sum(inst.curve_info(e, cls).normal_bundle) == degree, (e, cls)


def test_serre_construction():
    for e in range(5):
        for alpha in range(8):
            out = inst.serre_construction(e, alpha)
            assert out.chern.c1 == chow.divisor(e, 0, e - 1)
            assert out.chern.c2 == chow.ChowClass(e, xif=alpha)
            assert out.chern.c3 == chow.zero(e)
            assert out.in_theorem_range == (alpha > e)
    out = inst.serre_construction(0, 1)
    assert out.chern.c1 == chow.divisor(0, 0, -1)


def test_ext_dimensions():
    assert inst.ext_dimensions(4, 0, 0).ext2 == 1
    assert inst.ext_dimensions(6, 0, 0).ext2 == 6
    for e in range(4):
        assert inst.ext_dimensions(e, 3, 2).ext2 == 0
    d = inst.ext_dimensions(2, 3, 1)
    assert d.ext0 == 1 and d.ext3 == 0
    assert d.ext1_minus_ext2 == 10 * 3 + 4 - 1 - 3


def test_ext_grr_cross_check(verify_results):
    # e < 7, alpha, beta < 11, plus one moduli-dimension case per e
    (suite,) = [r for r in verify_results if r.name == "instanton-ext-grr"]
    assert suite.ok and suite.cases == 854


def test_elementary_modification():
    p, ext1 = InstantonParams(1, 2, 0), 13
    p1, e1 = inst.elementary_modification(p, ext1)
    assert (p1.alpha, p1.beta, e1) == (2, 1, 17)
    assert p1.charge == p.charge + 1
    # iterating n times adds 4n
    q, v = p, ext1
    for n in range(1, 8):
        q, v = inst.elementary_modification(q, v)
        assert v == ext1 + 4 * n and q.beta == n


def test_pullback_moduli_dims_agree():
    for e in range(9):
        for beta in range(-3, 25):
            assert inst.ext_dimensions(e, 0, beta).ext1_minus_ext2 == inst.plane_moduli_dim(e, beta)
    assert inst.min_pullback_beta(2) == 4


def test_min_pullback_beta_is_the_variant3_gate():
    def first_admitted(e):
        for b in range(-3, 50):
            try:
                beilinson.h1_values(e, 0, b, 3)
            except Inadmissible:
                continue
            return b

    firsts = [first_admitted(e) for e in range(6)]
    assert firsts == [inst.min_pullback_beta(e) for e in range(6)] == [1, 2, 4, 7, 11, 16]


def test_min_pullback_beta_is_the_O_facet():
    # chi(E) = min_pullback_beta(e) - charge, and twisted_bounds refuses
    # h^1(E) exactly below it at alpha = 0.
    assert [inst.min_pullback_beta(e) for e in range(200)] == [
        (e * e + e) // 2 + 1 for e in range(200)]
    for e in range(6):
        for beta in range(-3, 25):
            p = InstantonParams(e, 0, beta)
            assert chow.chi_instanton(e, 0, beta, 0, 0) == inst.min_pullback_beta(e) - p.charge
            if beta < inst.min_pullback_beta(e):
                with pytest.raises(Inadmissible) as exc:
                    inst.twisted_bounds(p, line(0, 0))
                assert exc.value.bound == "h1(E ⊗ O) >= 0"
            else:
                inst.twisted_bounds(p, line(0, 0))


def test_existence_report_branches():
    r = inst.existence_report(InstantonParams(1, 2, 0))
    assert r.status == inst.EXISTS and r.ext1 == 13
    assert r.ext2 == 0 and r.ext3 == 0 and r.earnest is True
    assert r.route == inst.ROUTE_SERRE

    r = inst.existence_report(InstantonParams(2, 0, 4))
    assert r.status == inst.EXISTS_PULLBACK and r.ext1 == 12
    assert r.earnest is True and r.route == inst.ROUTE_PULLBACK

    assert inst.existence_report(InstantonParams(5, 6, 0)).status == inst.UNKNOWN
    assert inst.existence_report(InstantonParams(2, 2, 0)).status == inst.UNKNOWN
    assert inst.existence_report(InstantonParams(1, 2, -1)).status == inst.UNKNOWN
    assert inst.existence_report(InstantonParams(0, -1, 3)).status == inst.INADMISSIBLE
    # pullback branch applies to every e
    r = inst.existence_report(InstantonParams(6, 0, 25))
    assert r.status == inst.EXISTS_PULLBACK
    assert r.ext1 == 4 * 25 + 12 - 36 - 4


def test_earnest_is_false_exactly_below_c_e_2():
    # On the Serre route: False iff chi(E(-(e+1)f)) = C(e,2) - beta > 0, True for e <= 1.
    for e in range(4):
        for alpha in range(e + 1, 12):
            for beta in range(12):
                r = inst.existence_report(InstantonParams(e, alpha, beta))
                assert r.status == inst.EXISTS
                want = False if beta < comb(e, 2) else (True if e <= 1 else None)
                assert r.earnest is want, (e, alpha, beta)


def test_existence_report_serialization():
    for p in (
        InstantonParams(1, 2, 0),
        InstantonParams(2, 0, 4),
        InstantonParams(5, 6, 0),
        InstantonParams(0, -2, 0),
    ):
        r = inst.existence_report(p)
        assert ExistenceReport.from_dict(r.to_dict()) == r
