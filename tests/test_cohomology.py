"""Cohomology closed forms against counting and linear-algebra oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scrollcalc import chow
from scrollcalc import cohomology as coh
from scrollcalc.cohomology import (
    CohVector,
    FormalSheaf,
    les_chase,
    line,
    omega,
)
from scrollcalc.errors import Inadmissible

# ---------------------------------------------------------------------------
# Plane oracles


def count_monomials(d: int) -> int:
    """Monomials of degree d in three variables, by enumeration."""
    if d < 0:
        return 0
    return sum(1 for _ in itertools.combinations_with_replacement(range(3), d))


def _row_reduce_rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def omega_plane_oracle(k: int):
    """(h0, h1) of Omega^1_{P2}(k) from the Euler sequence, by exact linear
    algebra: Omega(k) is the kernel of (f0,f1,f2) -> sum x_i f_i from
    O(k-1)^3 to O(k), and h1 is the cokernel of the section map."""
    monos_src = list(itertools.combinations_with_replacement(range(3), max(k - 1, 0)))
    monos_dst = list(itertools.combinations_with_replacement(range(3), max(k, 0)))
    if k - 1 < 0:
        monos_src = []
    if k < 0:
        monos_dst = []
    dim_src = 3 * len(monos_src)
    rows = []
    for var in range(3):
        for mono in monos_src:
            image = tuple(sorted(mono + (var,)))
            row = [0] * len(monos_dst)
            row[monos_dst.index(image)] = 1
            rows.append(row)
    rank = _row_reduce_rank(rows) if rows and monos_dst else 0
    h0 = dim_src - rank
    h1 = len(monos_dst) - rank
    return h0, h1


@pytest.mark.parametrize("k", range(-6, 7))
def test_omega_plane_numbers_vs_euler_kernel(k):
    h0, h1 = omega_plane_oracle(k)
    assert coh.h_omega_p2(0, k) == h0
    assert coh.h_omega_p2(1, k) == h1
    # Serre duality on the plane: h2(Omega(k)) = h0(Omega(-k))
    assert coh.h_omega_p2(2, k) == omega_plane_oracle(-k)[0]
    assert coh.h_omega_p2(3, k) == 0  # the plane has no H^3


def test_line_plane_numbers():
    for d in range(-8, 9):
        assert coh.h_line_p2(0, d) == count_monomials(d)
        assert coh.h_line_p2(1, d) == 0
        # Serre duality: h2(O(d)) = h0(O(-d-3))
        assert coh.h_line_p2(2, d) == count_monomials(-d - 3)
    assert coh.h_line_p2(0, 2) == 6
    assert coh.h_line_p2(2, -3) == 1


def test_omega_plane_spot_values():
    assert coh.h_omega_p2(1, 0) == 1
    assert coh.h_omega_p2(0, 2) == 3
    assert coh.h_omega_p2(2, -2) == 3
    assert coh.h_omega_p2(0, 3) == 8  # the tangent bundle, h0 = dim PGL(3)


# ---------------------------------------------------------------------------
# Scroll closed forms


def test_line_vanishing_at_a_minus_one():
    for e in range(6):
        for b in range(-10, 11):
            assert coh.h_vector(e, line(-1, b)) == (0, 0, 0, 0)


def test_line_pushforward_values():
    assert coh.h_vector(1, line(1, 0)).h0 == 4  # h0(O) + h0(O(1))
    for e in range(6):
        # the canonical twist (-2, e-3) has only h3 = 1
        assert coh.h_vector(e, line(-2, e - 3)) == (0, 0, 0, 1)
        # h3 vanishes identically on the pushforward branch
        for a in range(0, 5):
            for b in range(-8, 9):
                assert coh.h_vector(e, line(a, b)).h3 == 0


def test_line_serre_self_duality(verify_results):
    # h^i(a, b) = h^{3-i}(-a-2, e-3-b) for e <= 6, |a|, |b| <= 10.
    (result,) = [r for r in verify_results if r.name == "coh-serre-duality"]
    assert result.ok, result.failures[:5]
    assert result.cases == 3087


def test_omega_twist_values():
    for e in range(6):
        assert coh.h_vector(e, omega(0, 0)).h1 == 1
        for b in range(-8, 9):
            assert coh.h_vector(e, omega(-1, b)) == (0, 0, 0, 0)
    assert coh.h_vector(1, omega(1, 1)).h0 == 3  # h0(Omega(1)) + h0(Omega(2))


def test_omega_twist_serre_duality():
    for e in range(6):
        for a in range(-8, 9):
            for b in range(-8, 9):
                dual = coh.h_vector(e, omega(-2 - a, e - b))
                assert coh.h_vector(e, omega(a, b)) == dual[::-1]


def test_chi_line_kunneth_on_product():
    for a in range(-8, 9):
        for b in range(-8, 9):
            assert coh.chi_line(0, a, b) == (a + 1) * (b + 1) * (b + 2) // 2


def test_chi_line_vanishing_band():
    for e in range(7):
        for b in range(-10, 11):
            assert coh.chi_line(e, -1, b) == 0


# ---------------------------------------------------------------------------
# Closed forms against the pushforward sums, and at large |a| against RR


def _h_line_loop(e, i, a, b):
    """h^i(O(a*xi + b*f)) summed term by term over the pushforward."""
    if not 0 <= i <= 3:
        return 0
    if a >= 0:
        if i == 3:
            return 0
        return sum(coh.h_line_p2(i, j * e + b) for j in range(a + 1))
    if a == -1:
        return 0
    return sum(coh.h_line_p2(3 - i, j * e + e - b - 3) for j in range(-a - 1))


def _h_omega_loop(e, i, a, b):
    """h^i(Omega twist (a, b)) summed term by term over the pushforward."""
    if not 0 <= i <= 3:
        return 0
    if a >= 0:
        if i == 3:
            return 0
        return sum(coh.h_omega_p2(i, j * e + b) for j in range(a + 1))
    if a == -1:
        return 0
    return _h_omega_loop(e, 3 - i, -2 - a, e - b)


KIND_LOOPS = ((line, _h_line_loop), (omega, _h_omega_loop))


def _loop_vector(loop, e, a, b):
    return tuple(loop(e, i, a, b) for i in range(4))


@given(
    st.integers(-3, 8),
    st.integers(-200, 200),
    st.integers(-300, 300),
)
def test_closed_forms_match_pushforward_loops(e, a, b):
    for kind, loop in KIND_LOOPS:
        assert coh.h_vector(e, kind(a, b)) == _loop_vector(loop, e, a, b)


def test_h_vector_matches_loops_on_grid():
    # All four degrees, both kinds, e in -2..6, a in -12..12, b in -15..15.
    for e, a, b in itertools.product(range(-2, 7), range(-12, 13), range(-15, 16)):
        for kind, loop in KIND_LOOPS:
            assert coh.h_vector(e, kind(a, b)) == _loop_vector(loop, e, a, b), (kind, e, a, b)


def test_closed_forms_match_loops_at_branch_edges():
    # Every sign branch of a, and b placed so that d_j = j*e + b crosses the
    # cut points -3 and 0 (line) and -2, 0 and 2 (Omega) inside 0..a, at
    # e = 0, with b divisible by e and not.
    for e in range(-3, 7):
        for a in (-3, -2, -1, 0, 1, 2, 5):
            for b in range(-3 * abs(e) - 6, 3 * abs(e) + 7):
                for kind, loop in KIND_LOOPS:
                    assert coh.h_vector(e, kind(a, b)) == _loop_vector(loop, e, a, b), (e, a, b)
    # h1 of an Omega twist counts the j with d_j = 0.
    assert coh.h_vector(0, omega(7, 0)).h1 == 8
    assert coh.h_vector(0, omega(7, 1)).h1 == 0
    assert coh.h_vector(3, omega(4, -12)).h1 == 1
    assert coh.h_vector(3, omega(3, -12)).h1 == 0
    assert coh.h_vector(3, omega(4, -11)).h1 == 0
    assert coh.h_vector(-2, omega(5, 6)).h1 == 1


@pytest.mark.parametrize("size", [10**3, 5 * 10**3])
def test_closed_forms_match_loops_per_degree_at_large_twists(size):
    # b puts a cut point (-3 and 0 for lines, -2, 0 and 2 for Omega) at step
    # j of the pushforward sum, d_j = j*e + b for a = size and b - (j+1)*e on
    # the R^1 side, a = -size: halfway along the span, where a closed-form
    # interval ends inside it, and one step before and after it, where an
    # interval is clamped to the whole span or is empty.
    for e in range(-3, 7):
        for kind, loop, cuts in ((line, _h_line_loop, (-3, 0)), (omega, _h_omega_loop, (-2, 0, 2))):
            for cut, j in itertools.product(cuts, (-1, size // 2, size + 1)):
                for a, b in ((size, cut - j * e), (-size, cut + (j + 1) * e)):
                    vec = coh.h_vector(e, kind(a, b))
                    for i in range(4):
                        assert vec[i] == loop(e, i, a, b), (kind, e, a, b, i)


@pytest.mark.parametrize("size", [10**6, 10**9, 10**12, 10**18])
def test_closed_forms_at_large_twists_against_riemann_roch(size, rr_chi):
    for e in range(6):
        for a in (size, -size):
            for b in (-7, 0, 5, e - 3):
                for s in (line(a, b), omega(a, b)):
                    vec = coh.h_vector(e, s)
                    assert min(vec) >= 0
                    if a >= 0:
                        assert vec.h3 == 0
                    assert vec.chi == rr_chi(e, s), (e, s)


def test_serre_dual_twist_involution():
    assert coh.serre_dual_twist(1, line(-1, -1)) == (2, line(-1, -1))
    assert coh.serre_dual_twist(0, line(0, 0)) == (3, line(-2, -2))
    assert coh.serre_dual_twist(0, omega(0, 0)) == (3, omega(-2, 1))
    for i in range(4):
        for a in range(-5, 6):
            for b in range(-5, 6):
                for s in (line(a, b), omega(a, b)):
                    dual = coh.serre_dual_twist(i, s)
                    assert coh.serre_dual_twist(*dual) == (i, s)
                    # -H is the one fixed summand
                    assert (dual[1] == s) == (s == line(-1, -1))


@pytest.mark.parametrize("i, s, message, bound", [
    (7, line(0, 0), "cohomology index 7 is not in 0..3", "i in 0..3"),
    (-1, omega(0, 0), "cohomology index -1 is not in 0..3", "i in 0..3"),
    (False, line(0, 0), "cohomology index False is not in 0..3", "i in 0..3"),
    (0, ("line", 0, 0), "twist summand ('line', 0, 0) is not a Summand", "s is a Summand"),
], ids=["i-7", "i-minus-1", "i-bool", "s-tuple"])
def test_serre_dual_twist_refuses_out_of_domain_args(i, s, message, bound):
    with pytest.raises(Inadmissible) as info:
        coh.serre_dual_twist(i, s)
    assert (str(info.value), info.value.bound) == (message, bound)


def test_serre_dual_twist_negates_the_instanton_chi():
    # h^i(E(D)) = h^{3-i}(E(D')), so chi(E(D)) = -chi(E(D')) for every (alpha, beta).
    for e in range(8):
        for a in range(-8, 9):
            for b in range(-10, 11):
                _, dual = coh.serre_dual_twist(0, line(a, b))
                for alpha in range(6):
                    for beta in range(6):
                        assert chow.chi_instanton(e, alpha, beta, a, b) == -chow.chi_instanton(
                            e, alpha, beta, dual.a, dual.b
                        ), (e, alpha, beta, a, b)


# ---------------------------------------------------------------------------
# Formal sheaves


def test_formal_sheaf_rank_and_merge():
    s = FormalSheaf.of(2, [(line(0, 1), 2), (omega(1, 0), 1), (line(0, 1), 1)])
    assert s.rank() == 5
    assert dict(s.terms)[line(0, 1)] == 3
    assert FormalSheaf.of(2, [(line(0, 0), 0)]).terms == ()
    with pytest.raises(ValueError):
        FormalSheaf.of(2, [(line(0, 0), -1)])


def test_formal_sheaf_chern_of_omega_twist():
    # c(Omega twist (a,b)) = 1 + (-3f + 2D) + (3f^2 - 3f D + D^2)
    e, a, b = 2, 1, -2
    s = FormalSheaf.of(e, [(omega(a, b), 1)])
    data = s.chern_data()
    d = chow.divisor(e, a, b)
    m3f = chow.ChowClass(e, f=-3)
    assert data.c1 == m3f + 2 * d
    assert data.c2 == chow.ChowClass(e, ff=3) + m3f * d + d * d


def test_relative_euler_chi_relation():
    # chi(-2xi+ef) - chi(-xi) - chi(-xi+ef) + chi(O) = 0
    for e in range(6):
        seq = coh.seq_relative_euler(e)
        assert coh.chi_alternating(seq) == 0
        assert [s.chi() for s in seq] == [-1, 0, 1]


def test_chi_additivity_all_sequences(verify_results):
    # Every named sequence, e <= 5, |a|, |b| <= 6.
    (result,) = [r for r in verify_results if r.name == "coh-chi-additivity"]
    assert result.ok, result.failures[:5]
    assert result.cases == 4056


def test_omega_chi_from_euler_sequence(verify_results):
    # e <= 5, a, b in -8..8, plus the plane Omega at k in -12..12
    (suite,) = [r for r in verify_results if r.name == "coh-omega-consistency"]
    assert suite.ok and suite.cases == 1759


def _checked_form(name, e, a, b):
    """The sequence ``name`` with every entry built by ``FormalSheaf.of``,
    each entry's summands right before it, as the builders once did."""
    rows = {
        "euler": (lambda: [(omega(a, b), 1)], lambda: [(line(a, b - 1), 3)],
                  lambda: [(line(a, b), 1)]),
        "euler-dual": (lambda: [(line(a, b - 3), 1)], lambda: [(line(a, b - 2), 3)],
                       lambda: [(omega(a, b), 1)]),
        "koszul": (lambda: [(line(a, b - 3), 1)], lambda: [(line(a, b - 2), 3)],
                   lambda: [(line(a, b - 1), 3)], lambda: [(line(a, b), 1)]),
        "relative-euler": (lambda: [(line(a - 2, b + e), 1)],
                           lambda: [(line(a - 1, b), 1), (line(a - 1, b + e), 1)],
                           lambda: [(line(a, b), 1)]),
    }[name]
    return [FormalSheaf.of(e, row()) for row in rows]


def test_sequence_builders_equal_their_checked_forms():
    # The one-term entries are built unchecked; each list equals the one built
    # through FormalSheaf.of.  A bad a, b or e is refused before any arithmetic,
    # by name, as given: the first bad one of a, then b, then e.
    good = list(itertools.product(range(-3, 7), range(-3, 4), range(-3, 4)))
    odd = (1.5, True, "x", None, [1])
    bad = [(x, 1, 2) for x in odd] + [(1, x, 2) for x in odd] + [(1, 2, x) for x in odd]
    bad += [(x, y, 0) for x in odd for y in odd] + [(0, x, y) for x in odd for y in odd]
    for name, fn in coh.NAMED_SEQUENCES.items():
        for args in good:
            assert fn(*args) == _checked_form(name, *args), (name, args)
        for e, a, b in bad:
            first = next(v for v in (a, b, e) if type(v) is not int)
            with pytest.raises(Inadmissible) as info:
                fn(e, a, b)
            got = (str(info.value), info.value.bound)
            assert got == (f"expected an int, got {first!r}", "type(value) is int"), (name, e, a, b)


def test_coh_vector_chi():
    v = CohVector(3, 1, 0, 2)
    assert v.chi == 0
    sheaf = FormalSheaf.of(1, [(line(1, 0), 2)])
    assert sheaf.coh_vector() == CohVector(8, 0, 0, 0)


def test_coh_vector_is_the_weighted_sum_of_h_vectors():
    rng = random.Random(7)
    for _ in range(300):
        e = rng.randint(-2, 6)
        terms = [
            (rng.choice((line, omega))(rng.randint(-8, 8), rng.randint(-10, 10)), rng.randint(1, 5))
            for _ in range(rng.randint(2, 5))
        ]
        sheaf = FormalSheaf.of(e, terms)
        want = [0, 0, 0, 0]
        for s, m in terms:
            want = [w + m * h for w, h in zip(want, coh.h_vector(e, s))]
        assert sheaf.coh_vector() == tuple(want), sheaf
    assert FormalSheaf.of(2, []).coh_vector() == (0, 0, 0, 0)


summands = st.builds(
    lambda kind, a, b: kind(a, b),
    st.sampled_from([line, omega]),
    st.integers(-8, 8),
    st.integers(-10, 10),
)
sheaves = st.builds(
    FormalSheaf.of,
    st.integers(0, 6),
    st.lists(st.tuples(summands, st.integers(0, 5)), max_size=5),
)


@given(sheaves)
def test_chi_matches_coh_vector(sheaf):
    assert sheaf.chi() == sheaf.coh_vector().chi


def test_summand_chern_power_cache_does_not_leak():
    # Each e on a cold (e, summand) cache, against one shuffled pass over all
    # scrolls that holds more keys than the cache, so entries are evicted and
    # rebuilt; multiplicities up to 60 reach the monads' range.
    rng = random.Random(5)

    def summand():
        kind = line if rng.random() < 0.5 else omega
        return kind(rng.randint(-3, 3), rng.randint(-4, 4)), rng.randint(1, 60)

    scrolls = range(40)
    cases = [
        FormalSheaf.of(e, [summand() for _ in range(rng.randint(1, 3))])
        for e in scrolls
        for _ in range(30)
    ]
    cached = coh._summand_record
    first = {}
    for e in scrolls:
        cached.cache_clear()
        first.update((s, s.total_chern()) for s in cases if s.e == e)
    cached.cache_clear()
    shuffled = cases[:]
    rng.shuffle(shuffled)
    assert {s: s.total_chern() for s in shuffled} == first
    info = cached.cache_info()
    assert info.misses > info.maxsize >= info.currsize
    for s, c in first.items():
        want = chow.unit(s.e)
        for term, m in s.terms:
            for _ in range(m):
                want = want * term.total_chern(s.e)
        assert c == want


def test_total_chern_is_exact_for_huge_multiplicities():
    # exp of the summed logs against the ring product of the powers c(s)^m,
    # multiplicities up to 10^6.
    rng = random.Random(18)
    for _ in range(200):
        e = rng.randint(0, 12)
        sheaf = FormalSheaf.of(e, [
            (rng.choice((line, omega))(rng.randint(-5, 5), rng.randint(-8, 8)),
             rng.randint(1, 10 ** 6))
            for _ in range(rng.randint(1, 4))
        ])
        want = chow.unit(e)
        for s, m in sheaf.terms:
            want = want * s.total_chern(e) ** m
        assert sheaf.total_chern() == want


signed_terms = st.lists(st.tuples(
    st.sampled_from((1, -1)),
    st.lists(st.tuples(summands, st.integers(1, 4)), max_size=4),
), max_size=4)


@given(st.integers(0, 6), signed_terms)
def test_k_class_is_the_signed_whitney_product(e, signed):
    # rank and chi add up over the summands, and c is the ring product of
    # c(s)^m, with c(s)^-1 for a negative sign.
    rank, chi, c = coh.k_class(e, signed)
    flat = [(sign * m, s) for sign, terms in signed for s, m in terms]
    assert rank == sum(k * s.rank() for k, s in flat)
    assert chi == sum(k * coh.h_vector(e, s).chi for k, s in flat)
    want = chow.unit(e)
    for k, s in flat:
        want = want * (s.total_chern(e) if k > 0 else s.total_chern(e).inverse()) ** abs(k)
    assert c == want


# ---------------------------------------------------------------------------
# The chase


def test_chase_end_omega_vanishing():
    # 0 -> Omega(xi) -> Omega(xi+f)^3 -> Omega^dual ⊗ Omega(xi) -> 0:
    # all higher cohomology of the right term dies, for every small e.
    for e in range(6):
        seq = [
            FormalSheaf.of(e, [(omega(1, 0), 1)]),
            FormalSheaf.of(e, [(omega(1, 1), 3)]),
            None,
        ]
        bounds = les_chase(seq, 2)
        for i in (1, 2, 3):
            assert bounds[i][1] == 0


def test_chase_exact_determination():
    # Same sequence at e=0 and i=0: the flanking groups force
    # h0 = h1(Omega(xi)) = 2 (sections of End(Omega) boxed with O(1)).
    seq = [
        FormalSheaf.of(0, [(omega(1, 0), 1)]),
        FormalSheaf.of(0, [(omega(1, 1), 3)]),
        None,
    ]
    assert les_chase(seq, 2)[0] == (2, 2)


def test_chase_upper_bound():
    seq = [
        FormalSheaf.of(3, [(omega(1, 0), 1)]),
        FormalSheaf.of(3, [(omega(1, 1), 3)]),
        None,
    ]
    lo, hi = les_chase(seq, 2)[0]
    assert 0 < lo < hi == 46


def test_chase_with_hypothesized_vectors():
    # h2(E(-ef)) = 0 given h2(E(-(e+1)f)) = 0 and h3(Omega ⊗ E(-ef)) = 0,
    # along the twisted Euler sequence.  The unknown instanton enters as
    # explicit (lo, hi) pairs.
    for e in range(5):
        sub = [(0, 0), (7, 7), (0, 0), (0, 0)]  # Omega ⊗ E(-ef): h3 = 0 is what matters
        mid = [(0, 0), (9, 9), (0, 0), (0, 0)]  # E(-(e+1)f)^3 with h2 = 0
        assert les_chase([sub, mid, None], 2)[2][1] == 0


def test_chase_middle_and_sub_targets():
    zero = [(0, 0)] * 4
    assert les_chase([zero, None, zero], 1)[2][1] == 0
    mid = [(5, 5), (0, 0), (0, 0), (0, 0)]
    # target at position 0: H^1(S0) pinched by H^0(S2) and H^1(S1)
    assert les_chase([None, mid, zero], 0)[1][1] == 0


def test_chase_is_sound_against_closed_forms():
    # Hide each entry of the 3-term named sequences in turn: the closed-form
    # h^i of the hidden entry lies in the chased [lo, hi] for every i.
    three_term = [coh.seq_euler, coh.seq_euler_dual, coh.seq_relative_euler]
    pinned = total = 0
    for seq_fn, e, a, b in itertools.product(three_term, range(6), range(-4, 5), range(-4, 5)):
        seq = seq_fn(e, a, b)
        for hidden in range(3):
            bounds = les_chase([None if p == hidden else x for p, x in enumerate(seq)], hidden)
            exact = seq[hidden].coh_vector()
            for i, (lo, hi) in enumerate(bounds):
                assert lo <= exact[i] <= hi, (seq_fn.__name__, e, a, b, hidden, i)
                pinned += lo == hi
                total += 1
    assert 2 * pinned > total  # exactness alone decides most groups


def test_chase_rejects_bad_inputs():
    good = FormalSheaf.of(1, [(line(0, 0), 1)])
    with pytest.raises(Inadmissible):
        les_chase([good, good, good, good], 1)
    with pytest.raises(Inadmissible):
        les_chase([None, good, None], 1)
    with pytest.raises(Inadmissible):
        les_chase([good, good, None], 5)


def test_chase_refuses_malformed_hypothesized_rows():
    # Three pairs, a pair with lo > hi, a fifth pair, a float, a bare list.
    zero = [(0, 0)] * 4
    for row in (zero[:3], [(1, 0)] + zero[1:], zero + [(0, 0)], [(0, 0.5)] + zero[1:], [0] * 4):
        with pytest.raises(Inadmissible) as info:
            les_chase([row, zero, None], 2)
        assert info.value.bound == "4 int pairs with 0 <= lo <= hi"


def test_chase_valid_rows_chase_as_before():
    sub, mid = [(0, 2), (1, 3), (0, 0), (0, 1)], [(2, 5), (0, 1), (1, 1), (0, 0)]
    assert les_chase([sub, mid, None], 2) == ((0, 8), (0, 1), (1, 2), (0, 0))
    assert les_chase([None, sub, mid], 0) == ((0, 2), (0, 8), (0, 1), (1, 2))
    assert les_chase([sub, None, tuple(mid)], 1) == ((0, 7), (0, 4), (0, 1), (0, 1))
    # A sheaf and its exact row chase alike.
    s, m = FormalSheaf.of(2, [(omega(1, 0), 1)]), FormalSheaf.of(2, [(omega(1, 1), 3)])
    exact = [(h, h) for h in s.coh_vector()]
    assert les_chase([s, m, None], 2) == les_chase([exact, m, None], 2)
    assert les_chase([exact, m, None], 2) == ((22, 25), (0, 0), (0, 0), (0, 0))


def test_nonnegativity_everywhere(verify_results):
    # Line bundles and Omega twists, e <= 5, |a|, |b| <= 10; h3 = 0 for a >= 0.
    (result,) = [r for r in verify_results if r.name == "coh-nonnegativity"]
    assert result.ok, result.failures[:5]
    assert result.cases == 4032


def test_formal_sheaf_serialization():
    s = FormalSheaf.of(3, [(line(-1, 2), 2), (omega(0, 3), 5)])
    assert FormalSheaf.from_dict(s.to_dict()) == s
    assert s.to_dict()["terms"][0]["kind"] in ("line", "omega")


def test_render():
    s = FormalSheaf.of(1, [(line(0, -1), 2), (omega(-1, 1), 1)])
    assert s.render(ascii_only=True) == "Omega(-xi+f) + O(-f)^2"
    assert FormalSheaf.of(1, []).render() == "0"
