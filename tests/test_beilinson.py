"""Dual collections, tables and monads."""

import contextlib
import importlib
import itertools
import json
import pkgutil
import random

import pytest

import scrollcalc
from scrollcalc import beilinson as bl
from scrollcalc import chow
from scrollcalc import cohomology as coh
from scrollcalc import verification
from scrollcalc.beilinson import (
    Monad,
    beilinson_table,
    collection,
    h1_values,
    monad_consistency,
    monad_general,
    monad_shape,
    orthogonality_check,
    strongness_check,
)
from scrollcalc.cohomology import line, omega
from scrollcalc.errors import Inadmissible

# ---------------------------------------------------------------------------
# Collections and orthogonality


def test_collection_shapes():
    c1 = collection(2, 1)
    assert c1[5] == line(-1, -1)
    assert c1[0] == line(0, -1)
    assert bl.GEOMETRIC_SHIFTS == (0, 0, 0, 2, 2, 2)
    c2 = collection(2, 2)
    assert c2[4] == omega(-1, 2)
    c6 = collection(1, 6)
    assert c6[0] == line(0, 2)


def test_bad_pair_or_index_is_inadmissible():
    with pytest.raises(Inadmissible) as exc:
        orthogonality_check(0, 4)
    assert str(exc.value) == "variant must be 1, 2 or 3, got 4"
    assert exc.value.bound == "variant in (1, 2, 3)"
    for build in (h1_values, monad_shape, beilinson_table):
        with pytest.raises(Inadmissible) as exc:
            build(1, 1, 2, 0)
        assert str(exc.value) == "variant must be 1, 2 or 3, got 0"
        assert exc.value.bound == "variant in (1, 2, 3)"
    for index in (7, 0, True, 1.0):
        with pytest.raises(Inadmissible) as exc:
            collection(1, index)
        assert str(exc.value) == f"collection index must be 1..6, got {index}"
        assert exc.value.bound == "index in 1..6"


def _dual(s):
    # Omega^dual = Omega(3f), so Omega(D)^dual = Omega(3f - D).
    return coh.Summand(s.kind, -s.a, (3 if s.kind == coh.OMEGA else 0) - s.b)


def test_forward_ext_groups_vanish():
    # Exceptionality: Ext^k(E_i, E_j) = H^k(E_i^dual ⊗ E_j) = 0 for every k
    # and i < j.  The Omega ⊗ Omega groups have no closed form and are skipped.
    groups = 0
    for e in range(13):
        for index in range(1, 7):
            coll = collection(e, index)
            for j, y in enumerate(coll):
                for i, x in enumerate(coll[:j]):
                    if x.kind == y.kind == coh.OMEGA:
                        continue
                    g = bl.tensor_summands(_dual(x), y)
                    assert not any(coh.h_vector(e, g)), (e, index, i, j)
                    groups += 1
    assert groups == 1131


@pytest.mark.parametrize("e", range(6))
@pytest.mark.parametrize("pair", (1, 2, 3))
def test_orthogonality(e, pair, rr_chi):
    # The closed forms give the delta pattern; Riemann-Roch, independent of
    # them, gives its Euler characteristics: (-1)^(i - s_i) on the diagonal.
    assert orthogonality_check(e, pair).ok
    ecoll, fcoll = (collection(e, k) for k in bl.DUAL_PAIRS[pair])
    for i, (x, s) in enumerate(zip(ecoll, bl.GEOMETRIC_SHIFTS)):
        for j, y in enumerate(fcoll):
            want = (-1) ** (i - s) if i == j else 0
            assert rr_chi(e, bl.tensor_summands(x, y)) == want, (i, j)


def test_invariant_failures_surface_as_reports(monkeypatch):
    # Collection 2 with entry 5 replaced by O(ef): the checks return the bad
    # cells and groups, and both verify suites turn them into failures.
    build = bl.collection

    def corrupted(e, index):
        coll = build(e, index)
        if index != 2:
            return coll
        return coll[:5] + (line(0, e),)

    monkeypatch.setattr(bl, "collection", corrupted)
    report = orthogonality_check(2, 1)
    assert report.ok is False
    assert report.violations and all(got != want for *_, got, want in report.violations)
    assert {(i, j) for i, j, *_ in report.violations} & {(0, 5), (5, 5)}
    assert not strongness_check(2).ok
    orth = verification.beilinson_orthogonality(0)
    assert orth.cases == 18 and len(orth.failures) == 6
    assert str(orthogonality_check(0, 1).violations[:4]) in orth.failures[0]
    strong = verification.beilinson_strongness(0)
    assert strong.cases == 90 and strong.failures


def test_beilinson_entry_points_refuse_negative_e():
    calls = (
        lambda: orthogonality_check(-1, 1),
        lambda: strongness_check(-3),
        lambda: h1_values(-1, 1, 2),
        lambda: beilinson_table(-1, 1, 2),
        lambda: monad_shape(-2, 3, 8, 1),
        lambda: monad_general(-1, 1, 2, 0, 0, 0),
    )
    for call in calls:
        with pytest.raises(Inadmissible) as exc:
            call()
        assert str(exc.value) == "the scroll parameter e must be non-negative"
        assert exc.value.bound == "e >= 0"


def test_diagonal_groups_are_the_expected_six():
    # h0(O), h1(Omega), h2(O(-3f)), h1(O(-2xi+ef)), h2(Omega(-2xi+ef)), h3(K)
    for e in range(6):
        assert coh.h_vector(e, line(0, 0)).h0 == 1
        assert coh.h_vector(e, omega(0, 0)).h1 == 1
        assert coh.h_vector(e, line(0, -3)).h2 == 1
        assert coh.h_vector(e, line(-2, e)).h1 == 1
        assert coh.h_vector(e, omega(-2, e)).h2 == 1
        assert coh.h_vector(e, line(-2, e - 3)).h3 == 1


# ---------------------------------------------------------------------------
# Strongness


@pytest.mark.parametrize("e", range(6))
def test_strongness(e):
    report = strongness_check(e)
    assert report.ok
    assert len(report.items) == 15
    routes = {it.route for it in report.items}
    assert routes == {"closed-form", "chase", "chase-only"}
    assert sum(it.route == "chase-only" for it in report.items) == 1


# (source, target, reduced group, route) of the fifteen forward pairs.
STRONGNESS_ITEMS = {
    0: (
        ("O(-ξ-2f)", "Ω(-ξ)", "Ω(2f)", "chase"),
        ("O(-ξ-2f)", "O(-ξ-f)", "O(f)", "closed-form"),
        ("O(-ξ-2f)", "O(-2f)", "O(ξ)", "closed-form"),
        ("O(-ξ-2f)", "Ω", "Ω(ξ+2f)", "chase"),
        ("O(-ξ-2f)", "O(-f)", "O(ξ+f)", "closed-form"),
        ("Ω(-ξ)", "O(-ξ-f)", "Ω(2f)", "chase"),
        ("Ω(-ξ)", "O(-2f)", "Ω(ξ+f)", "chase"),
        ("Ω(-ξ)", "Ω", "Ω^∨⊗Ω(ξ)", "chase-only"),
        ("Ω(-ξ)", "O(-f)", "Ω(ξ+2f)", "chase"),
        ("O(-ξ-f)", "O(-2f)", "O(ξ-f)", "closed-form"),
        ("O(-ξ-f)", "Ω", "Ω(ξ+f)", "chase"),
        ("O(-ξ-f)", "O(-f)", "O(ξ)", "closed-form"),
        ("O(-2f)", "Ω", "Ω(2f)", "chase"),
        ("O(-2f)", "O(-f)", "O(f)", "closed-form"),
        ("Ω", "O(-f)", "Ω(2f)", "chase"),
    ),
    2: (
        ("O(-ξ)", "Ω(-ξ+2f)", "Ω(2f)", "chase"),
        ("O(-ξ)", "O(-ξ+f)", "O(f)", "closed-form"),
        ("O(-ξ)", "O", "O(ξ)", "closed-form"),
        ("O(-ξ)", "Ω(2f)", "Ω(ξ+2f)", "chase"),
        ("O(-ξ)", "O(f)", "O(ξ+f)", "closed-form"),
        ("Ω(-ξ+2f)", "O(-ξ+f)", "Ω(2f)", "chase"),
        ("Ω(-ξ+2f)", "O", "Ω(ξ+f)", "chase"),
        ("Ω(-ξ+2f)", "Ω(2f)", "Ω^∨⊗Ω(ξ)", "chase-only"),
        ("Ω(-ξ+2f)", "O(f)", "Ω(ξ+2f)", "chase"),
        ("O(-ξ+f)", "O", "O(ξ-f)", "closed-form"),
        ("O(-ξ+f)", "Ω(2f)", "Ω(ξ+f)", "chase"),
        ("O(-ξ+f)", "O(f)", "O(ξ)", "closed-form"),
        ("O", "Ω(2f)", "Ω(2f)", "chase"),
        ("O", "O(f)", "O(f)", "closed-form"),
        ("Ω(2f)", "O(f)", "Ω(2f)", "chase"),
    ),
}


@pytest.mark.parametrize("e", sorted(STRONGNESS_ITEMS))
def test_strongness_reduced_groups(e):
    items = strongness_check(e).items
    got = tuple((it.source, it.target, it.group, it.route) for it in items)
    assert got == STRONGNESS_ITEMS[e]


def test_strongness_specific_groups():
    # h^i(Omega(2f)) = 0 and h^i(O(xi+f)) = 0 for i > 0, all small e
    for e in range(6):
        assert coh.h_vector(e, omega(0, 2))[1:] == (0, 0, 0)
        assert coh.h_vector(e, line(1, 1))[1:] == (0, 0, 0)


# ---------------------------------------------------------------------------
# h1 values


def poly_values(e, alpha, beta):
    return {
        "-xi": alpha,
        "-xi+f": 2 * alpha,
        "-(e+1)f": beta + (-e * e + e) // 2,
        "-ef": alpha + beta + (-e * e + 3 * e - 2) // 2,
        "-(e-1)f": 2 * alpha + beta + (-e * e + 5 * e - 8) // 2,
    }


def test_h1_values_variant1_formulas():
    for e in range(5):
        for alpha in range(9):
            for beta in range(9):
                want = poly_values(e, alpha, beta)
                try:
                    got = h1_values(e, alpha, beta, 1)
                except Inadmissible:
                    assert min(want.values()) < 0
                    continue
                assert got == want


def test_h1_values_omega_formulas():
    for e in range(5):
        for alpha in range(9):
            for beta in range(9):
                try:
                    got = h1_values(e, alpha, beta, 2)
                except Inadmissible:
                    continue
                assert got["omega(-xi+f)"] == alpha
                assert got["omega(-(e-1)f)"] == 2 * beta + alpha - e * e + 2 * e + 1
        for beta in range((e * e + e) // 2 + 1, 12):
            got = h1_values(e, 0, beta, 3)
            assert got["omega(-ef)"] == 2 * beta - e * e + 1
            assert got["-(e+2)f"] == beta - (e * e + e) // 2 - 1


def test_h1_values_gate():
    # alpha = beta = 0 is inadmissible for every e: the last multiplicity
    # (-e^2+5e-8)/2 is negative for all e.
    for e in range(9):
        with pytest.raises(Inadmissible) as exc:
            h1_values(e, 0, 0, 1)
        assert "h1[" in exc.value.bound
    with pytest.raises(Inadmissible):
        h1_values(1, 1, 0, 3)  # variant 3 needs alpha = 0


def test_h1_values_are_fresh_and_gated_on_a_warm_cache():
    # The candidates are cached per point; each answer is a fresh dict, so a
    # caller's mutation never reaches the next answer, nor the monad or table.
    bl._cached_candidates.cache_clear()
    first = h1_values(1, 2, 3, 2)
    want = dict(first)
    first["-xi"] += 100
    first.pop("omega(-xi+f)")
    first["extra"] = 1
    assert h1_values(1, 2, 3, 2) == want and list(h1_values(1, 2, 3, 2)) == list(want)
    m = monad_shape(1, 2, 3, 2)
    table = beilinson_table(1, 2, 3, 2)
    assert [table.cells[r][c].value for r, c in table.value_positions()] == [
        list(want.values())[c - 1] for _, c in bl._table_frame(1, 2, True)[4]
    ]
    assert m == monad_shape(1, 2, 3, 2) and bl._cached_candidates.cache_info().hits >= 4
    # A negative candidate raises on every call, cold or warm, from each entry.
    bl._cached_candidates.cache_clear()
    raised = []
    for build in (h1_values, h1_values, monad_shape, beilinson_table):
        with pytest.raises(Inadmissible) as exc:
            build(0, 1, 0, 1)
        raised.append((str(exc.value), exc.value.bound))
    assert raised == [("h1 at twist -(e-1)f is -2 < 0 for (e, alpha, beta) = (0, 1, 0)",
                       "h1[-(e-1)f] >= 0")] * 4
    assert bl._cached_candidates.cache_info()[:2] == (3, 1)  # hits, misses


# ---------------------------------------------------------------------------
# Tables


def test_table_value_positions_fixed():
    expected = ((2, 1), (2, 2), (4, 3), (4, 4), (4, 5))
    for e in range(4):
        for variant in (1, 2, 3):
            for alpha, beta in ((2, 3), (3, 6), (0, 8)):
                if variant == 3:
                    alpha = 0
                try:
                    table = beilinson_table(e, alpha, beta, variant)
                except Inadmissible:
                    continue
                assert table.value_positions() == expected


def test_table_values_match_h1():
    table = beilinson_table(1, 1, 2, 1)
    cells = table.cells
    assert cells[2][1].value == 1  # alpha
    assert cells[2][2].value == 2  # 2 alpha
    assert cells[4][3].value == 2  # beta + (e-e^2)/2
    assert cells[4][4].value == 3  # alpha + beta + ...
    assert cells[4][5].value == 2  # 2 alpha + beta - 2
    # the -H column dies entirely
    assert all(cells[r][0].kind in ("zero", "star") for r in range(6))
    assert cells[2][0].tag == "minus-h"


def test_table_zero_tags():
    table = beilinson_table(3, 1, 4, 1)
    # h2 cell over the gamma twist -(e+1)f is the hypothesis cell
    assert table.cells[3][3] == bl.Cell("zero", tag="gamma-hypothesis")
    assert table.cells[3][4].tag == "gamma-chain"
    assert table.cells[3][5].tag == "gamma-chain"
    # h0/h3 cells carry region tags
    assert table.cells[5][3].tag == "h0-bundle"
    assert table.cells[0][1].tag == "h3-bundle"


def test_minus_h_is_exactly_column_zero():
    # Column 0 is the twist by -H: every non-star cell there is tagged
    # minus-h by the forced-vanishing rule, and no other cell is.
    minus_h = bl.Cell("zero", tag="minus-h")
    tables = 0
    for e in range(9):
        for alpha in range(9):
            for beta in range(9):
                for variant in (1, 2, 3):
                    for gamma_zero in (True, False):
                        try:
                            table = beilinson_table(
                                e, alpha, beta, variant, gamma_zero
                            )
                        except Inadmissible:
                            continue
                        tables += 1
                        for row in table.cells:
                            assert row[0] in (bl.STAR, minus_h), (e, alpha, beta)
                            assert minus_h not in row[1:], (e, alpha, beta)
                        column0 = [row[0] for row in table.cells]
                        assert column0.count(minus_h) == 4
    assert tables == 1372


def test_table_gamma_nonzero_unknowns():
    table = beilinson_table(3, 1, 4, 1, gamma_zero=False)
    assert table.cells[3][3] == bl.Cell("unknown", tag="gamma")
    assert table.cells[3][4] == bl.Cell("unknown", tag="eta")
    assert table.cells[3][5] == bl.Cell("unknown", tag="delta")
    with pytest.raises(ValueError):
        beilinson_table(3, 1, 4, 2, gamma_zero=False)


def test_table_variant3_left_columns_vanish():
    # alpha = 0 empties both shifted value columns: every non-star cell in
    # columns 1 and 2 is zero or a zero-valued h1 cell.
    for e in range(4):
        beta = (e * e + e) // 2 + 2
        table = beilinson_table(e, 0, beta, 3)
        for c in (1, 2):
            for r in range(6):
                cell = table.cells[r][c]
                assert cell.kind in ("star", "zero") or cell.value == 0


def test_table_boundary_tag_only_at_e_zero():
    # the uncovered h0 cells exist only on the e = 0 scroll (first variant)
    table0 = beilinson_table(0, 2, 1, 1)
    tags0 = {cell.tag for row in table0.cells for cell in row}
    assert "h0-small-e" in tags0
    for e in range(1, 5):
        for variant in (1, 2, 3):
            alpha = 0 if variant == 3 else 2
            beta = (e * e + e) // 2 + 2
            try:
                table = beilinson_table(e, alpha, beta, variant)
            except Inadmissible:
                continue
            tags = {cell.tag for row in table.cells for cell in row}
            assert "h0-small-e" not in tags, (e, variant)


def test_table_staircase_render():
    table = beilinson_table(1, 1, 2, 1)
    raw = table.render(ascii_only=True, raw=True)
    lines = [l for l in raw.splitlines() if l.startswith("|")]
    # header, six rows, footer
    assert len(lines) == 8
    assert lines[1].count("H3") == 3 and lines[1].count("*") == 3
    assert lines[3].count("H1") == 3 and lines[3].count("H3") == 3
    assert lines[6].count("H0") == 3


# ---------------------------------------------------------------------------
# Monads


def test_monad_e1_matches_classical_display():
    # At e = 1 the first variant reads
    # 0 -> Omega(-xi+f)^a + O(-f)^b -> Omega(f)^(a+b) + O(-xi)^(2a) -> O^(2a+b-2) -> 0
    for alpha in range(1, 6):
        for beta in range(6):
            if 2 * alpha + beta - 2 < 0:
                continue
            m = monad_shape(1, alpha, beta, 1)
            assert dict(m.A.terms) == _drop_zero(
                {omega(-1, 1): alpha, line(0, -1): beta}
            )
            assert dict(m.B.terms) == _drop_zero(
                {omega(0, 1): alpha + beta, line(-1, 0): 2 * alpha}
            )
            assert dict(m.C.terms) == _drop_zero({line(0, 0): 2 * alpha + beta - 2})


def _drop_zero(d):
    return {k: v for k, v in d.items() if v}


def test_monad_variant2_regression():
    m = monad_shape(0, 0, 3, 2)
    assert dict(m.A.terms) == {line(0, -2): 3}
    assert dict(m.B.terms) == {line(0, -1): 7}
    assert dict(m.C.terms) == {line(0, 0): 2}
    rep = monad_consistency(m)
    assert rep.rank_defect == 2 and rep.ok


def test_monad_variant3_minimal_beta_pullback_ranks():
    for e in range(6):
        beta = (e * e + e) // 2 + 1
        m = monad_shape(e, 0, beta, 3)
        assert m.A.terms == ()
        assert dict(m.B.terms) == {line(0, e): e + 3}
        assert dict(m.C.terms) == {line(0, e + 1): e + 1}


def test_monad_multiplicities_are_minus_chi():
    # Each h1 value is -chi of E at the twist shown under its column, an
    # Omega twist through chi(Omega ⊗ E(a, b)) = 3 chi(E(a, b-1)) - chi(E(a, b)).
    for e in range(5):
        for alpha in range(7):
            for beta in range(9):
                for variant in (1, 2, 3):
                    try:
                        values = h1_values(e, alpha, beta, variant)
                    except Inadmissible:
                        continue
                    table = beilinson_table(e, alpha, beta, variant)
                    twists = table.bottom_labels[1:]
                    assert len(values) == len(twists) == 5
                    for value, s in zip(values.values(), twists):
                        chi = [
                            chow.chi_instanton(e, alpha, beta, s.a, s.b - k)
                            for k in (0, 1)
                        ]
                        if s.kind == coh.OMEGA:
                            assert value == chi[0] - 3 * chi[1]
                        else:
                            assert value == -chi[0]


# Table column c (c = 1..5) feeds this term of the monad in every variant.
MONAD_SHEAF_OF_COLUMN = {1: "A", 2: "B", 3: "A", 4: "B", 5: "C"}


def test_table_and_monad_agree():
    # Each value cell (r, c) of the table is the term (top_labels[c], value)
    # of the matching monad sheaf, and the monad has no other terms.
    checked = 0
    for e in range(9):
        for alpha in range(9):
            for beta in range(9):
                for variant in (1, 2, 3):
                    try:
                        table = beilinson_table(e, alpha, beta, variant)
                    except Inadmissible:
                        continue
                    m = monad_shape(e, alpha, beta, variant)
                    want = {"A": {}, "B": {}, "C": {}}
                    for r, c in table.value_positions():
                        value = table.cells[r][c].value
                        if value:
                            want[MONAD_SHEAF_OF_COLUMN[c]][table.top_labels[c]] = value
                    got = {"A": m.A, "B": m.B, "C": m.C}
                    for name, sheaf in got.items():
                        assert dict(sheaf.terms) == want[name], (e, alpha, beta, variant)
                    checked += 1
    assert checked > 600


def test_monad_c2_quotient_frozen_case():
    # e = 0, alpha = 0: c(E) = (1-3f+3f^2)^(b-1) / ((1-2f)^b (1-f)^(b-4));
    # expanded through degree 2 by an independent truncated-series helper.
    def mul(p, q):
        return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(3)]

    def power(p, n):
        out = [1, 0, 0]
        for _ in range(n):
            out = mul(out, p)
        return out

    def inv(p):
        # (1 + u1 + u2)^-1 mod deg 3
        return [1, -p[1], p[1] * p[1] - p[2]]

    for beta in range(4, 10):
        m = monad_shape(0, 0, beta, 1)
        series = mul(
            power([1, -3, 3], beta - 1),
            mul(inv(power([1, -2, 0], beta)), inv(power([1, -1, 0], beta - 4))),
        )
        rep = monad_consistency(m)
        assert series[1] == -1  # c1 = -f = (e-1)f at e=0
        assert rep.c2_defect == chow.ChowClass(0, ff=series[2])
        assert series[2] == beta


def test_monad_general_degenerates_to_variant1():
    m0 = monad_general(1, 1, 2, 0, 0, 0)
    m1 = monad_shape(1, 1, 2, 1)
    assert (m0.A, m0.B, m0.C) == (m1.A, m1.B, m1.C)
    assert m0.c_tail.terms == ()


def test_monad_general_corrections_cancel():
    for e in range(4):
        for alpha, beta in ((0, 8), (1, 5), (2, 4)):
            for g in range(3):
                for d in range(3):
                    for t in range(3):
                        try:
                            m = monad_general(e, alpha, beta, g, d, t)
                        except Inadmissible:
                            continue
                        rep = monad_consistency(m)
                        assert rep.ok, (e, alpha, beta, g, d, t)


def test_monad_general_h2_terms_placement():
    m = monad_general(3, 4, 5, 1, 2, 3)
    # gamma lands in B on O((e-2)f), eta in C on Omega(ef), delta in the tail
    # on O((e-1)f)
    assert dict(m.B.terms)[line(0, 1)] == 1
    assert dict(m.C.terms)[omega(0, 3)] == 3
    assert dict(m.c_tail.terms)[line(0, 2)] == 2
    # and each bumps its own column's exponent
    assert dict(m.A.terms)[line(0, 1)] == 5 - 3 + 1  # beta - C(e, 2) + gamma
    with pytest.raises(Inadmissible):
        monad_general(3, 4, 5, -1, 0, 0)


def test_monad_general_refuses_a_parameter_where_h2_is_forced():
    # A parameter other than 0 is taken exactly where the non-earnest table
    # leaves its h^2 cell open; elsewhere the forced_vanishing tag refuses it.
    names = ("gamma", "delta", "eta")
    refused, left_open = [], []
    for e, name in itertools.product(range(5), names):
        table = beilinson_table(e, 4, 8, 1, gamma_zero=False)
        if bl.Cell("unknown", tag=name) in itertools.chain(*table.cells):
            left_open.append((e, name))
        try:
            monad_general(e, 4, 8, **{**dict.fromkeys(names, 0), name: 1})
        except Inadmissible as exc:
            assert exc.bound == "h2-bundle" and str(exc).startswith(f"{name} = 1, but h2 at ")
            refused.append((e, name))
    assert refused == [(0, "gamma"), (0, "delta"), (0, "eta"), (1, "delta"), (1, "eta"),
                       (2, "delta")]
    assert sorted(refused + left_open) == sorted(itertools.product(range(5), names))


def test_monad_general_checks_e_once(monkeypatch):
    # e is checked on entry and the forced-h2 tags are read unchecked, each
    # twist taken from the cached table frame; at e = 0 the first tag refuses.
    seen = []

    def spy(module, name):
        check = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: (seen.append((name, args)), check(*args)))

    for module, name in ((bl, "require_scroll"), (bl.instanton, "require_scroll"),
                         (coh, "_require_twist")):
        spy(module, name)
    for e, refused in ((3, False), (0, True)):
        bl._table_frame(e, 1, True)  # the frame's own tags, cached once
        seen.clear()
        with pytest.raises(Inadmissible) if refused else contextlib.nullcontext():
            monad_general(e, 4, 8, 1, 1, 1)
        assert seen == [("require_scroll", (e,))], e


def test_each_h2_parameter_enters_at_its_table_column():
    # The column tagged with a parameter's name in the non-earnest table is the
    # twist the docstring names; setting only that parameter to 1 adds that
    # column's dual once at its own monad sheaf and once at the next one.  At
    # e < 3 some of the three h^2 cells are forced zero and carry no tag.
    sheaves = ("A", "B", "C", "C1")
    twist_of = {"gamma": 1, "eta": 0, "delta": -1}  # -(e+1)f, -ef, -(e-1)f
    checked = 0
    for e, alpha, beta in itertools.product(range(7), repeat=3):
        try:
            base = monad_general(e, alpha, beta, 0, 0, 0)
        except Inadmissible:
            continue
        table = beilinson_table(e, alpha, beta, 1, gamma_zero=False)
        for name in filter(None, bl.H2_PARAMS):
            columns = {c for row in table.cells for c, cell in enumerate(row)
                       if cell == bl.Cell("unknown", tag=name)}
            if not columns:
                continue
            (c,) = columns
            assert table.bottom_labels[c] == line(0, -e - twist_of[name])
            bumped = monad_general(e, alpha, beta, **{**dict.fromkeys(twist_of, 0), name: 1})
            diff = {}
            for m, sign in ((base, -1), (bumped, 1)):
                for key, part in zip(sheaves, (m.A, m.B, m.C, m.c_tail)):
                    for s, k in part.terms:
                        diff[key, s] = diff.get((key, s), 0) + sign * k
            at, dual = sheaves.index(MONAD_SHEAF_OF_COLUMN[c]), table.top_labels[c]
            want = {(sheaves[at], dual): 1, (sheaves[at + 1], dual): 1}
            assert {k: v for k, v in diff.items() if v} == want, (e, alpha, beta, name)
            checked += 1
    assert checked == 236


def test_monad_serialization_and_checks():
    m = monad_shape(1, 1, 2, 1)
    rep = monad_consistency(m)
    assert (rep.rank_ok, rep.c1_ok, rep.c2_ok, rep.chi_ok) == (True, True, True, True)
    data = m.to_dict()
    assert "checks" not in data
    assert Monad.from_dict(data) == m
    g = monad_general(3, 4, 5, 1, 1, 1)
    assert Monad.from_dict(g.to_dict()) == g


def _ring_report(m):
    """The consistency report by ring products: c(B) c(C1) (c(A) c(C))^-1 with
    ``__mul__``, ``**`` and ``inverse``, and rank and chi from ``rank()`` and ``chi()``."""
    e = m.e
    tail = m.c_tail if m.c_tail is not None else coh.FormalSheaf.of(e, [])

    def c(sheaf):
        out = chow.unit(e)
        for s, mult in sheaf.terms:
            out = out * s.total_chern(e) ** mult
        return out

    total = c(m.B) * c(tail) * (c(m.A) * c(m.C)).inverse()
    return bl.ConsistencyReport(
        m.B.rank() + tail.rank() - m.A.rank() - m.C.rank(),
        total.homogeneous_part(1),
        total.homogeneous_part(2),
        m.B.chi() + tail.chi() - m.A.chi() - m.C.chi(),
        chow.divisor(e, 0, e - 1),
        chow.ChowClass(e, xif=m.alpha, ff=m.beta),
        chow.chi_instanton(e, m.alpha, m.beta, 0, 0),
    )


def _oracle_monads():
    """The monads of the ``beilinson-monads`` and ``beilinson-general-monad``
    grids, and 300 seeded monads whose sheaves are arbitrary."""
    for e in range(5):
        for alpha in range(verification.PARAM_MAX + 1):
            for beta in range(verification.PARAM_MAX + 1):
                for variant in (1, 2, 3):
                    with contextlib.suppress(Inadmissible):
                        yield monad_shape(e, alpha, beta, variant)
    for e in range(4):
        for alpha, beta in ((0, 8), (1, 4), (2, 5), (3, 3)):
            for params in itertools.product(range(3), repeat=3):
                with contextlib.suppress(Inadmissible):
                    yield monad_general(e, alpha, beta, *params)
    rng = random.Random(18)

    def sheaf(e):
        return coh.FormalSheaf.of(e, [
            (rng.choice((line, omega))(rng.randint(-4, 4), rng.randint(-6, 6)),
             rng.randint(1, 10 ** rng.randint(0, 6)))
            for _ in range(rng.randint(0, 4))
        ])

    for _ in range(300):
        e = rng.randint(0, 12)
        yield Monad(e, rng.randint(-5, 20), rng.randint(-5, 20), rng.choice((1, 2, 3, None)),
                    sheaf(e), sheaf(e), sheaf(e), sheaf(e) if rng.random() < 0.5 else None)


def test_monad_consistency_matches_the_ring_quotient():
    reports = [(monad_consistency(m), _ring_report(m)) for m in _oracle_monads()]
    assert all(got == want for got, want in reports)
    oks = {got.ok for got, _ in reports}
    assert oks == {True, False}  # consistent and inconsistent monads both occur
    # The report's classes are built unchecked; each must be what the checking
    # constructor builds from its fields, homogeneous of its codimension, and
    # every other field an int.
    codims = {"c1_defect": 1, "c2_defect": 2, "expected_c1": 1, "expected_c2": 2}
    for got, _ in reports:
        for name, value in got._asdict().items():
            if name in codims:
                checked = chow.ChowClass(*value)
                assert type(value) is chow.ChowClass and value == checked, (got, name)
                assert checked == checked.homogeneous_part(codims[name]), (got, name)
            else:
                assert type(value) is int, (got, name)


def test_monad_render():
    m = monad_shape(1, 1, 2, 1)
    text = m.render(ascii_only=True)
    assert text == (
        "0 -> Omega(-xi+f) + O(-f)^2 -> Omega(f)^3 + O(-xi)^2 -> O^2 -> 0"
    )


# ---------------------------------------------------------------------------
# Records built unchecked from checked parts

# e <= 6, alpha, beta <= 8: every variant, and every general monad with
# gamma, delta, eta <= 2.
_GRID = list(itertools.product(range(7), range(9), range(9)))


def _grid_monads():
    for e, alpha, beta in _GRID:
        for variant in (1, 2, 3):
            with contextlib.suppress(Inadmissible):
                yield monad_shape(e, alpha, beta, variant)
        for params in itertools.product(range(3), repeat=3):
            with contextlib.suppress(Inadmissible):
                yield monad_general(e, alpha, beta, *params)


def _checked_sheaf(sheaf):
    """The sheaf rebuilt through the checking constructor, type for type."""
    assert type(sheaf) is coh.FormalSheaf and type(sheaf.terms) is tuple
    assert all(type(t) is tuple for t in sheaf.terms)
    return coh.FormalSheaf.of(sheaf.e, sheaf.terms)


def _reference_monad_dict(m):
    """``Monad.to_dict`` with each sheaf's list read off ``FormalSheaf.to_dict()``."""
    out = {"e": m.e, "alpha": m.alpha, "beta": m.beta, "variant": m.variant,
           **{key: sheaf.to_dict()["terms"] for key, sheaf in zip("ABC", m[4:7])}}
    if m.c_tail is not None:
        out["C1"] = m.c_tail.to_dict()["terms"]
    if m.extra is not None:
        out["gamma"], out["delta"], out["eta"] = m.extra
    return out


def test_unchecked_monads_equal_their_checked_rebuilds():
    count = 0
    for m in _grid_monads():
        count += 1
        assert type(m) is Monad and m == Monad(*m), m
        text = json.dumps(m.to_dict())
        assert text == json.dumps(_reference_monad_dict(m)), m  # each sheaf's own rows
        back = Monad.from_dict(json.loads(text))
        assert back == m, m
        for sheaf in (x for x in (*m[4:8], *back[4:8]) if x is not None):  # A, B, C, C1
            assert sheaf == _checked_sheaf(sheaf), m  # sorted, merged, no zero term
    assert count == 4405  # general monads with a forced h^2 parameter are refused


def test_unchecked_tables_equal_their_checked_rebuilds():
    count = 0
    for (e, alpha, beta), (variant, gamma_zero) in itertools.product(
            _GRID, ((1, True), (2, True), (3, True), (1, False))):
        try:
            table = beilinson_table(e, alpha, beta, variant, gamma_zero)
        except Inadmissible:
            continue
        count += 1
        cells = tuple(tuple(bl.Cell(*cell) for cell in row) for row in table.cells)
        assert type(table) is bl.BeilinsonTable
        assert table == bl.BeilinsonTable(*table[:8], cells)
        assert all(type(cell) is bl.Cell for row in table.cells for cell in row)
        values = [table.cells[r][c] for r, c in table.value_positions()]
        assert len(values) == 5 and all(
            type(cell.value) is int and cell.tag is None for cell in values), table
    assert count == 1210


# ---------------------------------------------------------------------------
# Per-scroll caches

CACHES = (
    bl._table_frame,
    bl._rendered_labels,
    bl._cached_candidates,
    coh._summand_record,
    coh._summand_chi,
    chow._rr_constants,
    chow._rr_c1_terms,
    chow._twist_terms,
    chow._chi_terms,
)


def test_every_cache_is_cleared_by_the_cold_vs_warm_tests():
    found = set()
    for info in pkgutil.iter_modules(scrollcalc.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"scrollcalc.{info.name}")
        owners = [module, *(v for v in vars(module).values() if isinstance(v, type))]
        found.update(
            v for owner in owners for v in vars(owner).values() if hasattr(v, "cache_info")
        )
    assert found and found <= set(CACHES), [f.__qualname__ for f in found - set(CACHES)]


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def _answers(e, alpha, beta, variant, cold):
    """Tables (both gamma_zero, every render), monads, their reports and the
    chi of their terms at one point; with ``cold`` every call starts on empty
    caches."""

    def run(f, *args):
        if cold:
            _clear_caches()
        try:
            return f(*args)
        except Inadmissible as exc:
            return str(exc), exc.bound

    out = []
    for gamma_zero in (True, False):
        table = run(beilinson_table, e, alpha, beta, variant, gamma_zero)
        out.append(table)
        if isinstance(table, bl.BeilinsonTable):
            out += [run(table.render, a, raw) for a in (False, True) for raw in (False, True)]
    div = chow.divisor(e, variant - 2, alpha - beta)
    out.append(run(lambda: chow.chi_rr(chow.twist_chern(chow.instanton_chern(e, alpha, beta), div))))
    general = run(monad_general, e, alpha, beta, variant - 1, variant % 2, 3 - variant)
    for m in (run(monad_shape, e, alpha, beta, variant), general):
        out.append(m)
        if isinstance(m, Monad):  # its report, and its terms' chi through ``_summand_chi``
            out += [run(monad_consistency, m), run(lambda: [x.chi() for x in m[4:7]])]
    return out


def test_cold_caches_answer_as_warm_ones():
    points = [
        (e, alpha, beta, variant)
        for e in range(9)
        for alpha in range(9)
        for beta in range(9)
        for variant in (1, 2, 3)
    ]
    cold = {p: _answers(*p, cold=True) for p in points}
    _clear_caches()
    random.Random(3).shuffle(points)
    assert {p: _answers(*p, cold=False) for p in points} == cold
    assert all(cache.cache_info().hits for cache in CACHES)


def test_caches_stay_bounded_up_to_huge_e():
    rng = random.Random(4)
    _clear_caches()
    for _ in range(300):
        e = rng.randint(0, 10 ** rng.randint(0, 18))
        beilinson_table(e, 1, 0, 1, gamma_zero=False).render(rng.random() < 0.5)
        for variant in (1, 2, 3):
            with contextlib.suppress(Inadmissible):  # the h^1 gate runs after the layout
                beilinson_table(e, 0, 0, variant).render()
        summands = (line(1, -e), omega(0, e), line(-3, e), omega(2, 1 - e))
        sheaf = coh.FormalSheaf.of(e, [(s, 7) for s in summands])
        sheaf.total_chern(), sheaf.chi()
        a, b = (rng.randint(-(10 ** 18), 10 ** 18) for _ in range(2))
        data = chow.twist_chern(chow.instanton_chern(e, 1, 2), chow.divisor(e, a, b))
        assert chow.chi_rr(data) == chow.chi_instanton(e, 1, 2, a, b)
    for cache in CACHES:
        info = cache.cache_info()
        assert info.misses > info.maxsize >= info.currsize, cache
