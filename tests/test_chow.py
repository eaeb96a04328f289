"""Chow-ring arithmetic against an independent rewriting oracle."""

import operator
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollcalc import chow, verification
from scrollcalc.chow import ChernData, ChowClass
from scrollcalc.errors import Inadmissible, NonIntegralValue

# ---------------------------------------------------------------------------
# Oracle: polynomials in Z[x, y] reduced by x^2 -> e*x*y and y^3 -> 0.
# Written without reference to the library's normal-form representation.


def poly_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def poly_reduce(p, e):
    out = {}
    for (i, j), c in p.items():
        if i >= 2:
            c *= e ** (i - 1)
            j += i - 1
            i = 1
        if j >= 3:
            continue
        out[(i, j)] = out.get((i, j), 0) + c
    return {k: v for k, v in out.items() if v != 0}


def to_poly(x: ChowClass):
    raw = {
        (0, 0): x.one,
        (1, 0): x.xi,
        (0, 1): x.f,
        (1, 1): x.xif,
        (0, 2): x.ff,
        (1, 2): x.pt,
    }
    return {k: v for k, v in raw.items() if v != 0}


def from_poly(p, e):
    return ChowClass(
        e,
        p.get((0, 0), 0),
        p.get((1, 0), 0),
        p.get((0, 1), 0),
        p.get((1, 1), 0),
        p.get((0, 2), 0),
        p.get((1, 2), 0),
    )


def oracle_mul(x: ChowClass, y: ChowClass) -> ChowClass:
    return from_poly(poly_reduce(poly_mul(to_poly(x), to_poly(y)), x.e), x.e)


def poly_lin(e, *terms):
    """The class of sum(n * x) over ``(n, x)`` terms, added as polynomials."""
    out = {}
    for n, x in terms:
        for key, c in to_poly(x).items():
            out[key] = out.get(key, 0) + n * c
    return from_poly(out, e)


def oracle_part(x: ChowClass, codim: int) -> ChowClass:
    # The monomial xi^i f^j has codimension i + j.
    return from_poly({k: v for k, v in to_poly(x).items() if sum(k) == codim}, x.e)


coeffs = st.integers(min_value=-50, max_value=50)
chow_classes = st.builds(
    ChowClass,
    st.integers(min_value=0, max_value=8),
    coeffs, coeffs, coeffs, coeffs, coeffs, coeffs,
)


def paired(strategy, n):
    return st.integers(min_value=0, max_value=8).flatmap(
        lambda e: st.tuples(
            *(
                st.builds(ChowClass, st.just(e), coeffs, coeffs, coeffs, coeffs, coeffs, coeffs)
                for _ in range(n)
            )
        )
    )


@given(paired(chow_classes, 2))
@settings(max_examples=150)
def test_mul_matches_rewriting_oracle(xy):
    x, y = xy
    assert x * y == oracle_mul(x, y)


@given(paired(chow_classes, 2))
@settings(max_examples=150)
def test_pairing_is_degree_of_product(xy):
    x, y = xy
    assert ChowClass.pairing(x, y) == (x * y).degree() == oracle_mul(x, y).pt


@given(chow_classes, chow_classes)
def test_pairing_rejects_mixed_scrolls(x, y):
    if x.e == y.e:
        y = y._replace(e=x.e + 1)
    for lhs, rhs in ((x, y), (y, x)):
        with pytest.raises(Inadmissible):
            ChowClass.pairing(lhs, rhs)


@given(paired(chow_classes, 2), st.integers(min_value=-20, max_value=20))
@settings(max_examples=150)
def test_linear_ops_match_polynomial_oracle(xy, n):
    x, y = xy
    e = x.e
    assert x + y == poly_lin(e, (1, x), (1, y))
    assert x - y == poly_lin(e, (1, x), (-1, y))
    assert -x == poly_lin(e, (-1, x))
    assert x.scale(n) == n * x == x * n == poly_lin(e, (n, x))
    for r in (x + y, x - y, -x, n * x):
        assert type(r) is ChowClass and r.e == e


@given(chow_classes, st.integers(min_value=-1, max_value=4))
@settings(max_examples=150)
def test_homogeneity_matches_polynomial_oracle(x, codim):
    part = oracle_part(x, codim)
    assert x.homogeneous_part(codim) == part
    assert x.is_homogeneous(codim) == (part == x)
    assert part.is_homogeneous(codim)


@given(paired(chow_classes, 3))
@settings(max_examples=150)
def test_ring_axioms(xyz):
    x, y, z = xyz
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_defining_relations():
    for e in range(9):
        xi, f = chow.xi_class(e), chow.f_class(e)
        assert xi * xi == e * (xi * f)
        assert f * f * f == chow.zero(e)
        assert (xi * f) * f == ChowClass(e, pt=1)


def test_cube_of_hyperplane_class():
    # (xi+f)^3 = (e^2+3e+3) * point; frozen from the rewriting oracle.
    for e in range(9):
        h = chow.hyperplane(e)
        cube = oracle_mul(oracle_mul(h, h), h)
        assert cube == ChowClass(e, pt=e * e + 3 * e + 3)
        assert h ** 3 == cube


@given(chow_classes, st.integers(min_value=0, max_value=40))
@settings(max_examples=100)
def test_power_matches_repeated_oracle_product(x, n):
    # n up to 40 has up to six bits, so square-and-multiply takes every
    # branch against the independent oracle.
    want = chow.unit(x.e)
    for _ in range(n):
        want = oracle_mul(want, x)
    assert x ** n == want


@given(chow_classes, st.integers(min_value=0, max_value=200))
@settings(max_examples=100)
def test_power_matches_repeated_product_for_any_constant_term(x, n):
    # The four-term binomial against n products, at x's own constant term,
    # at 0 (a nilpotent class) and at 1 (a total Chern class), where the
    # inverse reads the same series.
    for c in (x.one, 0, 1):
        y = x._replace(one=c)
        want = chow.unit(x.e)
        for _ in range(n):
            want = want * y
        assert y ** n == want
    assert y * y.inverse() == chow.unit(x.e)


def test_power_cap_leaves_units_and_nilpotents_uncapped():
    u = ChowClass(2, xi=1, f=-3, xif=2, ff=5, pt=-7)
    n = 10**12
    assert u ** n == chow.zero(2)  # u^4 = 0
    for c in (1, -1):
        y = u._replace(one=c)
        assert y ** n * y ** (n + 1) == y ** (2 * n + 1)
    y = u._replace(one=3)  # capped: POWER_MAX is the largest n it takes
    assert y ** chow.POWER_MAX == y ** (chow.POWER_MAX - 1) * y


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        chow.hyperplane(1) ** -1


def test_degree_map():
    for e in range(9):
        xi, f = chow.xi_class(e), chow.f_class(e)
        assert (xi ** 3).degree() == e * e
        assert (xi * xi * f).degree() == e
        assert (xi * f * f).degree() == 1
        assert (f ** 3).degree() == 0


def test_canonical_class():
    assert chow.canonical_class(0) == ChowClass(0, xi=-2, f=-3)
    assert chow.canonical_class(3) == ChowClass(3, xi=-2, f=0)
    # c1 of an instanton is 2H + K = (e-1)f
    for e in range(9):
        got = chow.canonical_class(e) + 2 * chow.hyperplane(e)
        assert got == chow.divisor(e, 0, e - 1)


def test_named_codim2_constants():
    assert chow.c2_cotangent(1) == ChowClass(1, xif=6)
    assert chow.exceptional_divisor(0) == chow.xi_class(0)
    # c1(T) c2(T) = 24 chi(O) with c1(T) = -K
    for e in range(11):
        prod = (-chow.canonical_class(e)) * chow.c2_cotangent(e)
        assert prod.degree() == 24


def test_homogeneity_helpers():
    x = ChowClass(2, one=1, xi=3, ff=-2, pt=7)
    assert x.homogeneous_part(1) == ChowClass(2, xi=3)
    assert x.homogeneous_part(2) == ChowClass(2, ff=-2)
    assert not x.is_homogeneous(1)
    assert ChowClass(2, f=5).is_homogeneous(1)


def test_parameter_mismatch_rejected():
    with pytest.raises(Inadmissible):
        chow.xi_class(1) * chow.xi_class(2)
    with pytest.raises(Inadmissible):
        chow.xi_class(1) + chow.f_class(0)
    x, y = chow.hyperplane(1), ChowClass(3, one=1, xi=2, pt=-1)
    for op in (operator.add, operator.sub, operator.mul):
        for lhs, rhs in ((x, y), (y, x)):
            with pytest.raises(Inadmissible):
                op(lhs, rhs)


def test_unit_inverse():
    rng = random.Random(7)
    for _ in range(50):
        e = rng.randint(0, 6)
        x = ChowClass(e, 1, *(rng.randint(-9, 9) for _ in range(5)))
        assert x * x.inverse() == chow.unit(e)


def paired_units(n):
    """n unit series 1 + u on one X_e."""
    return paired(chow_classes, n).map(lambda xs: tuple(x._replace(one=1) for x in xs))


@given(paired_units(2))
@settings(max_examples=150)
def test_exp6_inverts_log6_and_log6_turns_products_into_sums(xy):
    x, y = xy
    assert chow._exp6(x.e, *chow._log6(x)) == x
    assert chow._log6(oracle_mul(x, y)) == tuple(map(operator.add, chow._log6(x), chow._log6(y)))


def test_exp6_refuses_a_fractional_class():
    # exp(f/6) = 1 + f/6 + f^2/72 is not integral on any scroll.
    for e in range(4):
        with pytest.raises(NonIntegralValue):
            chow._exp6(e, 0, 1, 0, 0, 0)


# ---------------------------------------------------------------------------
# Twisting


def test_twist_instanton_normalization():
    # The section construction lands on (c1, c2) = (2xi+(1-e)f, (alpha+1)xi f);
    # twisting by -xi+(e-1)f must normalize it to instanton data.
    for e in range(7):
        for alpha in range(9):
            raw = ChernData(
                2,
                chow.divisor(e, 2, 1 - e),
                ChowClass(e, xif=alpha + 1),
                chow.zero(e),
            )
            got = chow.twist_chern(raw, chow.divisor(e, -1, e - 1))
            assert got.c1 == chow.divisor(e, 0, e - 1)
            assert got.c2 == ChowClass(e, xif=alpha)
            assert got.c3 == chow.zero(e)


def test_twist_by_zero_and_inverse():
    data = chow.instanton_chern(2, 3, 1)
    assert chow.twist_chern(data, chow.zero(2).homogeneous_part(1)) == data
    d = chow.divisor(2, 2, -3)
    assert chow.twist_chern(chow.twist_chern(data, d), -d) == data


def test_twist_general_rank_reduces_to_rank2():
    # rank-2 closed form: c1+2D, c2 + c1 D + D^2, c3 unchanged
    e = 3
    data = ChernData(2, chow.divisor(e, 1, -2), ChowClass(e, xif=4, ff=-1), chow.zero(e))
    d = chow.divisor(e, -2, 5)
    got = chow.twist_chern(data, d)
    assert got.c1 == data.c1 + 2 * d
    assert got.c2 == data.c2 + data.c1 * d + d * d
    assert got.c3 == data.c3


def _checked_twist(data, d):
    """The Chern data of E(D) built through the checking constructor."""
    _, c1, c2, c3 = data
    return ChernData(2, c1 + d + d, c2 + d * (c1 + d), c3)


def _assert_same_record(got, want):
    assert [type(got)] + [type(x) for x in got] == [ChernData, int, ChowClass, ChowClass, ChowClass]
    assert got == want


def _binom(n, k):
    """C(n, k) for any integer n (n may be negative) and k >= 0."""
    return prod(range(n - k + 1, n + 1)) // prod(range(1, k + 1))


def _homogeneous(draw, e, codim):
    names = {1: ("xi", "f"), 2: ("xif", "ff"), 3: ("pt",)}[codim]
    return ChowClass(e, **{n: draw(st.integers(-9, 9)) for n in names})


@st.composite
def twist_cases(draw):
    e = draw(st.integers(min_value=0, max_value=6))
    cs = [_homogeneous(draw, e, k) for k in (1, 2, 3)]
    return ChernData(2, *cs), _homogeneous(draw, e, 1)


@given(twist_cases())
@settings(max_examples=200)
def test_twist_matches_full_binomial_sum(case):
    # c_k(E(D)) = sum_i C(r-i, k-i) c_i D^(k-i), with every term kept; the
    # unchecked result also equals the checked build.
    data, d = case
    e, r = data.e, data.rank
    chern = (chow.unit(e), data.c1, data.c2, data.c3)
    powers = [chow.unit(e)]
    for _ in range(3):
        powers.append(oracle_mul(powers[-1], d))
    got = chow.twist_chern(data, d)
    assert got.rank == r
    for k, have in ((1, got.c1), (2, got.c2), (3, got.c3)):
        terms = [
            (_binom(r - i, k - i), oracle_mul(chern[i], powers[k - i]))
            for i in range(k + 1)
        ]
        want = poly_lin(e, *terms)
        assert have == want, (r, k)
    _assert_same_record(got, _checked_twist(data, d))


def test_twist_chern_equals_the_checked_build_on_the_rr_grid():
    # Every twist the chow-riemann-roch-cross suite makes: e <= 5,
    # |a|, |b| <= 10, at each of its seven (alpha, beta) probes.
    ab = range(-verification.AB_MAX, verification.AB_MAX + 1)
    for e in range(verification.E_MAX + 1):
        probes = [chow.instanton_chern(e, *p) for p in verification.RR_PROBES]
        for a in ab:
            for b in ab:
                d = chow.divisor(e, a, b)
                for data in probes:
                    _assert_same_record(chow.twist_chern(data, d), _checked_twist(data, d))


# ---------------------------------------------------------------------------
# Riemann-Roch


def test_chi_rr_trivial_rank2():
    for e in range(7):
        data = ChernData(2, chow.zero(e), chow.zero(e), chow.zero(e))
        assert chow.chi_rr(data) == 2


def test_chi_rr_split_line_bundle_kunneth():
    # On X_0 = P^1 x P^2: chi(O(a xi + b f) + O) = 1 + (a+1)(b+1)(b+2)/2
    for a in range(-4, 5):
        for b in range(-4, 5):
            d = chow.divisor(0, a, b)
            data = ChernData(2, d, chow.zero(0).homogeneous_part(2), chow.zero(0))
            assert chow.chi_rr(data) == 1 + (a + 1) * (b + 1) * (b + 2) // 2


def test_chi_rr_matches_closed_cubic():
    rng = random.Random(20240613)
    for _ in range(400):
        e = rng.randint(0, 6)
        alpha, beta = rng.randint(0, 10), rng.randint(0, 10)
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        data = chow.twist_chern(
            chow.instanton_chern(e, alpha, beta), chow.divisor(e, a, b)
        )
        assert chow.chi_rr(data) == chow.chi_instanton(e, alpha, beta, a, b)


def _chi_rr_textbook_numerator(data: ChernData) -> int:
    """12 chi by the unregrouped formula of ``chi_rr``'s docstring, every
    degree taken through ``oracle_mul``:
    2 + (c1^3 - 3 c1 c2 + 3 c3)/6 - (K c1^2 - 2 K c2)/4 + (K^2 c1 + c2(Omega^1) c1)/12."""
    _, c1, c2, c3 = data
    k, c2_omega = chow.canonical_class(c1.e), chow.c2_cotangent(c1.e)

    def deg(*factors):  # the point coefficient of the oracle product
        out = factors[0]
        for x in factors[1:]:
            out = oracle_mul(out, x)
        return out.pt

    return (24 + 2 * (deg(c1, c1, c1) - 3 * deg(c1, c2) + 3 * deg(c3))
            - 3 * (deg(k, c1, c1) - 2 * deg(k, c2))
            + deg(k, k, c1) + deg(c2_omega, c1))


rank2_chern_data = st.integers(min_value=0, max_value=8).flatmap(
    lambda e: st.builds(
        ChernData, st.just(2),
        st.builds(lambda x, y: ChowClass(e, xi=x, f=y), coeffs, coeffs),
        st.builds(lambda x, y: ChowClass(e, xif=x, ff=y), coeffs, coeffs),
        st.builds(lambda x: ChowClass(e, pt=x), coeffs),
    )
)


@given(rank2_chern_data)
@settings(max_examples=200)
def test_chi_rr_matches_the_textbook_formula(data):
    num = _chi_rr_textbook_numerator(data)
    if num % 12:
        with pytest.raises(NonIntegralValue):
            chow.chi_rr(data)
    else:
        assert chow.chi_rr(data) == num // 12


CHOW_CACHES = (chow._rr_constants, chow._rr_c1_terms, chow._twist_terms, chow._chi_terms)


def test_chi_rr_per_scroll_cache_does_not_leak():
    # Each e evaluated first, on cold caches, against one shuffled pass
    # that interleaves all scrolls; e runs past the per-e cache size so
    # entries are evicted and rebuilt in between.  Both routes are compared.
    rng = random.Random(11)
    cases = [
        (e, rng.randint(0, 8), rng.randint(0, 8), rng.randint(-6, 6), rng.randint(-6, 6))
        for e in range(21)
        for _ in range(12)
    ]

    def chi(case):
        e, alpha, beta, a, b = case
        data = chow.twist_chern(chow.instanton_chern(e, alpha, beta), chow.divisor(e, a, b))
        return chow.chi_rr(data), chow.chi_instanton(*case)

    first = {}
    for e in range(21):
        for cache in CHOW_CACHES:
            cache.cache_clear()
        first.update((c, chi(c)) for c in cases if c[0] == e)
    for cache in CHOW_CACHES:
        cache.cache_clear()
    shuffled = cases[:]
    rng.shuffle(shuffled)
    assert {c: chi(c) for c in shuffled} == first
    assert all(rr == closed for rr, closed in first.values())


@pytest.mark.parametrize("div, message, bound", [
    (ChowClass(1, xi=1, ff=1), "twisting divisor must be a codimension-1 class", "codim(div) == 1"),
    (chow.divisor(2, 1, 0), "twisting divisor lives on a different scroll", "same e"),
])
def test_rejected_twist_raises_the_same_on_a_warm_cache(div, message, bound):
    data = chow.instanton_chern(1, 2, 3)
    chow.twist_chern(data, chow.divisor(1, 1, 0))  # warms the cache for this c1
    for _ in range(2):
        with pytest.raises(Inadmissible) as info:
            chow.twist_chern(data, div)
        assert (str(info.value), info.value.bound) == (message, bound)


def test_chi_rr_integrality_guard():
    # A bare odd point class in c3 is not the Chern data of any sheaf and
    # must trip the integrality guard.
    data = ChernData(2, chow.zero(1), chow.zero(1), ChowClass(1, pt=1))
    with pytest.raises(NonIntegralValue):
        chow.chi_rr(data)


def test_chi_instanton_integrality_guard():
    # A half-integral twist is outside the domain; the guard is a raise, not
    # an assert, so it holds under ``python -O`` as well.
    with pytest.raises(NonIntegralValue):
        chow.chi_instanton(1, 0, 0, Fraction(1, 2), 0)


def test_chi_rr_rejects_other_ranks():
    with pytest.raises(ValueError):
        chow.chi_rr(ChernData(3, chow.zero(1), chow.zero(1), chow.zero(1)))


# One wrong value at one point of the grid fails the cross-check suite.
_TWIST = (2, 3, -4)  # (e, a, b), inside e <= 5, |a|, |b| <= 10


def test_rr_cross_suite_catches_one_wrong_closed_form_value(monkeypatch):
    closed = chow.chi_instanton
    wrong = (_TWIST[0], 5, 7, *_TWIST[1:])  # (alpha, beta) = (5, 7), inside 0..8

    def off_by_one(*args):
        return closed(*args) + (args == wrong)

    monkeypatch.setattr(chow, "chi_instanton", off_by_one)
    result = verification.chow_riemann_roch_cross(verification.DEFAULT_SEED)
    assert result.failures == [f"chi mismatch somewhere at (e,a,b)={_TWIST}"]


def test_rr_cross_suite_catches_one_wrong_twist(monkeypatch):
    twist = chow.twist_chern
    e, a, b = _TWIST
    wrong = (chow.instanton_chern(e, 1, 1), chow.divisor(e, a, b))

    def off_at_one_probe(data, div):
        got = twist(data, div)
        if (data, div) == wrong:  # chi_rr reads 6 c3 / 12: pt + 2 is chi + 1
            return got._replace(c3=got.c3 + ChowClass(e, pt=2))
        return got

    monkeypatch.setattr(chow, "twist_chern", off_at_one_probe)
    result = verification.chow_riemann_roch_cross(verification.DEFAULT_SEED)
    assert result.failures == [f"chi_rr not affine in (alpha,beta) at {_TWIST}"]


def _chi_instanton_expanded(e, alpha, beta, a, b):
    """The closed cubic written out term by term, as first encoded."""
    six = (
        2 * e * e * a**3
        + 6 * e * a * a * b
        + 6 * a * b * b
        + 6 * (e * e + e) * a * a
        + 6 * b * b
        + (12 * e + 12) * a * b
        + (7 * e * e + 9 * e - 6 * e * alpha - 6 * beta + 6) * a
        + 6 * (e - alpha + 2) * b
        + (3 * e * e + 3 * e - 6 * e * alpha - 6 * alpha - 6 * beta + 6)
    )
    assert six % 6 == 0
    return six // 6


big = st.integers(-(10**6), 10**6)


@given(st.integers(0, 8), big, big, big, big)
def test_chi_instanton_matches_expanded_polynomial(e, alpha, beta, a, b):
    assert chow.chi_instanton(e, alpha, beta, a, b) == _chi_instanton_expanded(
        e, alpha, beta, a, b
    )


def test_chi_instanton_special_twists():
    for e in range(9):
        for alpha in range(9):
            for beta in range(9):
                assert chow.chi_instanton(e, alpha, beta, 0, 0) == (
                    e * e + e - 2 * e * alpha - 2 * alpha - 2 * beta + 2
                ) // 2
                assert chow.chi_instanton(e, alpha, beta, -1, 0) == -alpha
                assert (
                    chow.chi_instanton(e, alpha, beta, 0, -(e + 1))
                    == (e * e - e) // 2 - beta
                )


def test_slope_and_delta():
    for e in range(9):
        assert chow.delta_H(e, -2, e) == -e * e - 2 * e - 2
        assert chow.delta_H(e, 0, 0) == 0
        assert 2 * chow.slope_mu_H(e) == e * e + e - 2
    # formula vs intersection numbers
    for e in range(7):
        h2 = chow.hyperplane(e) ** 2
        for a in range(-10, 11):
            for b in range(-10, 11):
                assert chow.delta_H(e, a, b) == (chow.divisor(e, a, b) * h2).degree()


def test_serialization_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        x = ChowClass(rng.randint(0, 8), *(rng.randint(-50, 50) for _ in range(6)))
        assert ChowClass.from_dict(x.to_dict()) == x


def test_render():
    x = ChowClass(2, xi=-2, f=1, pt=3)
    assert x.render(ascii_only=True) == "-2*xi + f + 3*xi*f^2"
    assert ChowClass(2).render() == "0"
    assert ChowClass(2, xif=1).render() == "ξf"
