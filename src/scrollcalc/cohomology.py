"""Closed-form sheaf cohomology on the scroll X_e.

Two families of sheaves are covered exactly:

* line bundles O(a*xi + b*f), via their direct images pi_* (a >= 0) and
  R^1 pi_* (a <= -2), both sums of line bundles on P²;
* twists of the pulled-back cotangent bundle of P², written
  OmegaTwist(a, b) for pi^* Omega^1_{P²} ⊗ O(a*xi + b*f), via the same
  direct images (projection formula) and the Bott numbers on P².

On top of the closed forms sit formal direct sums with multiplicities
(``FormalSheaf``), Euler-characteristic identities for the four structural
exact sequences of the scroll, and one interval chase (``les_chase``): given
two entries of a short exact sequence, exact or as (lo, hi) bounds, it bounds
every h^i of the third from exactness alone, never guessing a map's rank.
"""

from functools import lru_cache
from math import comb
from typing import NamedTuple, Sequence

from . import chow
from .chow import ChernData, ChowClass, _new
from .errors import Inadmissible, _decoder, _int, _keys, _rebuild

LINE = "line"
OMEGA = "omega"
KINDS = (LINE, OMEGA)


class Summand(NamedTuple("Summand", [("kind", str), ("a", int), ("b", int)])):
    """One indecomposable summand: a line bundle or an Omega twist.  Every
    construction, ``_replace`` and ``_make`` included, checks that the kind
    is in ``KINDS`` and that a and b are ints; functions taking one trust it."""

    __slots__ = ()

    def __new__(cls, kind, a, b):  # hot: the checks are inlined, _int only raises
        if kind not in KINDS:
            raise Inadmissible(f"unknown kind {kind!r}", "kind in (line, omega)")
        if type(a) is not int or type(b) is not int:
            _int(a), _int(b)  # raises for the first that is not
        return tuple.__new__(cls, (kind, a, b))

    _make = classmethod(_rebuild)

    def rank(self) -> int:
        return 1 if self.kind == LINE else 2

    def total_chern(self, e: int) -> ChowClass:
        d = chow.divisor(e, self.a, self.b)
        if self.kind == LINE:
            return chow.unit(e) + d
        # c(pi^* Omega^1) = 1 - 3f + 3f^2, twisted by O(d) at rank 2.
        m3f = ChowClass(e, f=-3)
        c2 = ChowClass(e, ff=3) + m3f * d + d * d
        return chow.unit(e) + (m3f + 2 * d) + c2

    def render(self, ascii_only: bool = False) -> str:
        om = "Omega" if ascii_only else "Ω"
        tw = _twist_str(self.a, self.b, ascii_only)
        if self.kind == LINE:
            return "O" if tw == "" else f"O({tw})"
        return om if tw == "" else f"{om}({tw})"


def line(a: int, b: int) -> Summand:
    return Summand(LINE, a, b)


def omega(a: int, b: int) -> Summand:
    return Summand(OMEGA, a, b)


def _twist_str(a: int, b: int, ascii_only: bool) -> str:
    xi = "xi" if ascii_only else "ξ"
    parts = []
    if a != 0:
        parts.append(xi if a == 1 else ("-" + xi if a == -1 else f"{a}{xi}"))
    if b != 0:
        mono = "f" if b == 1 else ("-f" if b == -1 else f"{b}f")
        if parts and not mono.startswith("-"):
            parts.append("+" + mono)
        else:
            parts.append(mono)
    return "".join(parts)


@lru_cache(maxsize=1024, typed=True)
def _summand_chi(e: int, s: Summand) -> int:
    """chi(s) on X_e from the closed forms, keyed by (e, s), at most 1024 entries."""
    return h_vector(e, s).chi


@lru_cache(maxsize=1024, typed=True)
def _summand_record(e: int, s: Summand) -> tuple:
    """(rank, chi, l1, .., l5) of s on X_e, seven ints, keyed by (e, s), at most
    1024 entries; l1..l5 is 6 log c(s) (``chow._log6``).  All seven are
    additive: m copies of s add m times each to a direct sum's."""
    return (s.rank(), _summand_chi(e, s), *chow._log6(s.total_chern(e)))


class CohVector(NamedTuple):
    """Dimensions (h0, h1, h2, h3) of the four cohomology groups."""

    h0: int
    h1: int
    h2: int
    h3: int

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2 - self.h3


class FormalSheaf(NamedTuple("FormalSheaf", [("e", int), ("terms", tuple)])):
    """A finite direct sum on X_e: sorted, distinct (Summand, mult >= 1) terms.
    Every construction, ``of``, ``_replace`` and ``_make`` included, checks
    ``e`` and each term, merges repeats and drops zero multiplicities, once.
    Builders whose terms are already in that form (``_from_rows``, which
    reads exactly the rows ``_rows`` writes, and the monad builders) build
    it unchecked."""

    __slots__ = ()

    def __new__(cls, e, terms):
        if type(e) is not int:
            _int(e)
        merged: dict = {}
        try:
            for s, m in terms:
                if type(s) is not Summand:
                    raise Inadmissible(f"term summand {s!r} is not a Summand",
                                       "summand is a Summand")
                if type(m) is not int or m < 0:
                    _int(m)  # raises unless m is an int, which is then negative
                    raise Inadmissible(f"negative multiplicity {m} for {s}", "mult >= 0")
                if m:
                    merged[s] = merged.get(s, 0) + m
        except Inadmissible:
            raise
        except (TypeError, ValueError) as exc:  # terms, or a term, is not a pair
            raise Inadmissible(f"terms {terms!r} are not (Summand, mult) pairs",
                               "terms are (Summand, mult) pairs") from exc
        items = merged.items()
        return tuple.__new__(cls, (e, tuple(sorted(items) if len(merged) > 1 else items)))

    _make = classmethod(_rebuild)

    @staticmethod
    def of(e, terms) -> "FormalSheaf":
        """``FormalSheaf(e, terms)``: the public builder from (Summand, mult) pairs."""
        return FormalSheaf(e, terms)

    def rank(self) -> int:
        return sum(m * s.rank() for s, m in self.terms)

    def total_chern(self) -> ChowClass:
        """exp of the summed 6 log c(s), by Whitney's formula: no ring product."""
        log = (0, 0, 0, 0, 0)
        for s, m in self.terms:
            log = [x + m * y for x, y in zip(log, _summand_record(self.e, s)[2:])]
        return chow._exp6(self.e, *log)

    def chern_data(self) -> ChernData:
        if self.rank() == 0:
            raise Inadmissible("the zero sheaf has no Chern data record", "rank >= 1")
        c = self.total_chern()
        return ChernData(
            self.rank(),
            c.homogeneous_part(1),
            c.homogeneous_part(2),
            c.homogeneous_part(3),
        )

    def coh_vector(self) -> CohVector:
        e, h0, h1, h2, h3 = self.e, 0, 0, 0, 0
        for s, m in self.terms:
            v0, v1, v2, v3 = h_vector(e, s)
            h0, h1, h2, h3 = h0 + m * v0, h1 + m * v1, h2 + m * v2, h3 + m * v3
        return _new(CohVector, (h0, h1, h2, h3))

    def chi(self) -> int:
        e, total = self.e, 0
        for s, m in self.terms:
            total += m * _summand_chi(e, s)
        return total

    def render(self, ascii_only: bool = False) -> str:
        if not self.terms:
            return "0"
        bits = []
        # Omega summands first, echoing the usual monad displays.
        shown = sorted(self.terms, key=lambda t: (t[0].kind != OMEGA, t[0].a, t[0].b))
        for s, m in shown:
            base = s.render(ascii_only)
            bits.append(base if m == 1 else f"{base}^{m}")
        sep = " + " if ascii_only else " ⊕ "
        return sep.join(bits)

    def _rows(self) -> list:
        """The ``"terms"`` rows of ``to_dict``, one per term, in order."""
        return [{"kind": s.kind, "a": s.a, "b": s.b, "mult": m} for s, m in self.terms]

    def to_dict(self) -> dict:
        return {"e": self.e, "terms": self._rows()}

    @staticmethod
    @_decoder
    def from_dict(data: dict) -> "FormalSheaf":
        terms = _keys(data, ("e", "terms"))["terms"]
        return FormalSheaf._from_rows(data["e"], terms)

    @staticmethod
    @_decoder
    def _from_rows(e, rows) -> "FormalSheaf":
        """The sheaf on X_e whose ``_rows()`` are ``rows``.  Each row's keys and
        ``Summand`` are checked; rows are taken only as ``_rows`` writes them,
        summands strictly increasing and each mult an int >= 1."""
        pairs = []
        last = ()  # a tuple below every summand
        as_written = type(e) is int
        for t in rows:
            t = _keys(t, ("kind", "a", "b", "mult"))
            s, m = Summand(t["kind"], t["a"], t["b"]), t["mult"]
            as_written = as_written and type(m) is int and m >= 1 and s > last
            last = s
            pairs.append((s, m))
        if not as_written:
            FormalSheaf(e, pairs)  # raises for a bad e or mult, in its order
            raise Inadmissible("repeated, out-of-order or zero-mult row",
                               "summands strictly increasing, mult >= 1")
        return tuple.__new__(FormalSheaf, (e, tuple(pairs)))


# ---------------------------------------------------------------------------
# Closed forms on P²


def h_line_p2(i: int, d: int) -> int:
    """h^i(P², O(d)): binomial count of sections, Serre-dual for d <= -3."""
    if i == 0:
        return comb(d + 2, 2) if d >= 0 else 0
    if i == 2:
        return comb(-d - 1, 2) if d <= -3 else 0
    return 0


def h_omega_p2(i: int, k: int) -> int:
    """h^i(P², Omega^1(k)), the Bott numbers.

    h0 = k²-1 for k >= 2, h1 = 1 exactly at k = 0, h2 = k²-1 for k <= -2,
    everything else vanishes.
    """
    if i == 0:
        return k * k - 1 if k >= 2 else 0
    if i == 1:
        return 1 if k == 0 else 0
    if i == 2:
        return k * k - 1 if k <= -2 else 0
    return 0


# ---------------------------------------------------------------------------
# Closed forms on X_e


def _plane_sum(h_p2, i: int, e: int, b: int, a: int, c: int, sign: int) -> int:
    """Sum of h_p2(i, d_j), d_j = j*e + b, over the j in 0..a with
    sign*d_j >= c (sign = 1 for d_j >= c, -1 for d_j <= -c).

    That set is an interval, since d_j is monotone in j: its free end is one
    floor or ceiling division, and it is all or nothing when e = 0.  On it
    h_p2(i, d_j) must be a quadratic p(j), whose sum over n consecutive j is
    n*p0 + C(n,2)*(p1 - p0) + C(n,3)*(p2 - 2*p1 + p0), from its first three
    values (Newton's forward differences).  Past the interval a value has
    coefficient 0, so any n >= 1 is exact; an empty one sums to 0 without
    evaluating h_p2.  The values come from ``h_p2`` itself, never an inlined
    copy: perfbench counts the calls to ``h_line_p2`` and ``h_omega_p2``.
    """
    se, sb = sign * e, sign * b
    first, last = 0, a
    if se > 0:
        first = -((sb - c) // se)  # ceil((c - sb) / se)
        if first < 0:
            first = 0
    elif se < 0:
        last = (sb - c) // -se
        if last > a:
            last = a
    elif sb < c:
        return 0
    n = last - first + 1
    if n <= 0:
        return 0
    d = first * e + b
    p0, p1 = h_p2(i, d), h_p2(i, d + e)
    n2 = n * (n - 1) // 2
    return n * p0 + n2 * (p1 - p0) + n2 * (n - 2) // 3 * (h_p2(i, d + 2 * e) - 2 * p1 + p0)


_ZERO = CohVector(0, 0, 0, 0)


def h_vector(e: int, s: Summand) -> CohVector:
    """(h0, h1, h2, h3) of the summand s = O(a*xi + b*f) or
    pi^* Omega^1_{P²} ⊗ O(a*xi + b*f) on X_e, for any integer e.

    a >= 0:  pi_* O(a*xi + b*f) splits as the sum of O(d_j), d_j = j*e + b,
             over j = 0..a (Hartshorne, Algebraic Geometry, III Ex. 8.4),
             and pi_* of the Omega twist as the sum of Omega^1(d_j); so h^i
             sums the plane values over j, and h3 = 0.
             Line: the terms are nonzero, and equal to (d+1)(d+2)/2, on one
             j-interval of 0..a: d_j >= 0 for h0, d_j <= -3 for h2; h1 = 0.
             Omega: the Bott numbers (Okonek-Schneider-Spindler, Vector
             Bundles on Complex Projective Spaces, Ch. I) give h0 = the sum
             of d²-1 over the j-interval with d_j >= 2, h2 = the same where
             d_j <= -2, and h1 = the number of j with d_j = 0: one
             divisibility test, or a+1 when e = b = 0.
             ``_plane_sum`` finds each interval by one floor or ceiling
             division (all or nothing when e = 0) and sums the quadratic
             there from three values of ``h_line_p2`` or ``h_omega_p2``, so
             the vector costs the same whatever |a|.
    a = -1:  all direct images vanish, so every group is zero.
    a <= -2: pi_* vanishes, and R^1 pi_* F(a*xi + b*f), F = O or pi^* Omega^1,
             is the sum of F(b - (j+1)e) over j = 0..-2-a (relative duality,
             omega_pi = O(-2xi + ef); Hartshorne, III Ex. 8.4): the first
             branch at step -e from b - e, read one degree up.
    """
    kind, a, b = s
    if a == -1:
        return _ZERO
    up = a <= -2
    if up:
        e, a, b = -e, -2 - a, b - e
    if kind == LINE:
        h0 = _plane_sum(h_line_p2, 0, e, b, a, 0, 1)
        h1 = 0
        h2 = _plane_sum(h_line_p2, 2, e, b, a, 3, -1)
    else:
        h0 = _plane_sum(h_omega_p2, 0, e, b, a, 2, 1)
        if e == 0:
            h1 = a + 1 if b == 0 else 0
        else:
            h1 = 1 if b % e == 0 and 0 <= -b // e <= a else 0
        h2 = _plane_sum(h_omega_p2, 2, e, b, a, 2, -1)
    return _new(CohVector, (0, h0, h1, h2) if up else (h0, h1, h2, 0))  # no fields to check


def chi_line(e: int, a: int, b: int) -> int:
    return h_vector(e, line(a, b)).chi


def _require_twist(i, s) -> None:
    """Raise unless ``s`` is a ``Summand`` and ``i`` a cohomology index of
    the threefold, an int in 0..3 (a bool refused)."""
    if type(s) is not Summand:
        raise Inadmissible(f"twist summand {s!r} is not a Summand", "s is a Summand")
    if type(i) is not int or not 0 <= i <= 3:
        raise Inadmissible(f"cohomology index {i!r} is not in 0..3", "i in 0..3")


def serre_dual_twist(i: int, s: Summand) -> tuple:
    """``(3 - i, s')`` with h^i(E ⊗ s) = h^{3-i}(E ⊗ s') for a rank-2 E with
    E^dual = E(-(e-1)f): s' = s^dual ⊗ K ⊗ O(-(e-1)f) = s^dual(-2 xi - 2f), so
    O(a, b) goes to O(-a-2, -b-2) and Omega(a, b) to Omega(-a-2, 1-b), since
    (pi^* Omega)^dual = pi^* Omega(3f).  An involution; -H is its fixed summand.
    ``s`` must be a ``Summand`` and ``i`` an int in 0..3.
    """
    _require_twist(i, s)
    kind, a, b = s
    return 3 - i, Summand(kind, -a - 2, (1 if kind == OMEGA else -2) - b)


# ---------------------------------------------------------------------------
# Structural exact sequences, as lists of formal sheaves
#
# Twisting by O(a*xi + b*f) throughout; each list is exact in the given order.


def _one_term(e: int, s: Summand, m: int = 1) -> FormalSheaf:
    """The sheaf s^m on X_e, built unchecked from a checked summand, a constant
    mult >= 1 and a checked e.  Each ``seq_*`` builder builds its summand at
    (a, b) as given, then checks e, then shifts: a bad a, b or e is refused
    by name, in that order, before any arithmetic."""
    return _new(FormalSheaf, (e, ((s, m),)))


def seq_euler(e: int, a: int = 0, b: int = 0):
    """0 -> Omega -> O(-f)^3 -> O -> 0 (pullback of the Euler sequence)."""
    first = omega(a, b)
    _int(e)
    return [_one_term(e, first), _one_term(e, line(a, b - 1), 3), _one_term(e, line(a, b))]


def seq_euler_dual(e: int, a: int = 0, b: int = 0):
    """0 -> O(-3f) -> O(-2f)^3 -> Omega -> 0 (pullback of the dualized Euler sequence)."""
    last = omega(a, b)
    _int(e)
    return [_one_term(e, line(a, b - 3)), _one_term(e, line(a, b - 2), 3), _one_term(e, last)]


def seq_koszul(e: int, a: int = 0, b: int = 0):
    """0 -> O(-3f) -> O(-2f)^3 -> O(-f)^3 -> O -> 0 (spliced Euler Koszul complex)."""
    last = line(a, b)
    _int(e)
    return [_one_term(e, line(a, b - 3)), _one_term(e, line(a, b - 2), 3),
            _one_term(e, line(a, b - 1), 3), _one_term(e, last)]


def seq_relative_euler(e: int, a: int = 0, b: int = 0):
    """0 -> O(-2xi+ef) -> O(-xi) + O(-xi+ef) -> O -> 0 (relative Euler sequence).
    The middle is built checked: its two terms merge at e = 0 and swap at e < 0."""
    last = line(a, b)
    _int(e)
    return [_one_term(e, line(a - 2, b + e)),
            FormalSheaf.of(e, [(line(a - 1, b), 1), (line(a - 1, b + e), 1)]), _one_term(e, last)]


NAMED_SEQUENCES = {
    "euler": seq_euler,
    "euler-dual": seq_euler_dual,
    "koszul": seq_koszul,
    "relative-euler": seq_relative_euler,
}


def chi_alternating(entries: Sequence[FormalSheaf]) -> int:
    """Alternating Euler-characteristic sum; zero on every exact sequence."""
    total, sign = 0, 1
    for s in entries:
        total += sign * s.chi()
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# Long-exact-sequence chase


def _is_bounds_row(x) -> bool:
    """Whether x is four (lo, hi) pairs of ints with 0 <= lo <= hi."""
    return isinstance(x, (tuple, list)) and len(x) == 4 and all(
        isinstance(p, (tuple, list)) and len(p) == 2
        and type(p[0]) is int and type(p[1]) is int and 0 <= p[0] <= p[1]
        for p in x
    )


def les_chase(entries: Sequence, target_position: int) -> tuple:
    """Bound every h^i of the unknown entry of a short exact sequence.

    ``entries`` is a tuple or list of length 3, and ``target_position`` an
    int in 0..2, a bool refused; the slot at ``target_position`` is the unknown
    (pass ``None`` there, or anything: it is ignored).  Each other slot is a
    ``FormalSheaf``, whose h^i are exact, or four (lo, hi) int pairs with
    0 <= lo <= hi, which is how hypothesized cohomology enters a chase; any
    other known entry is ``Inadmissible``.

    Returns (lo, hi) for i = 0..3.  In the long exact sequence H^i(target)
    sits in P' -> P -> H^i(target) -> N -> N', so its dimension is
    rank(P -> target) + rank(target -> N), and exactness alone gives
    lo = max(0, lo_P - hi_P') + max(0, lo_N - hi_N') and hi = hi_P + hi_N.
    """
    if not isinstance(entries, (tuple, list)) or len(entries) != 3:
        raise Inadmissible("only three-term exact sequences are chased", "len(entries) == 3")
    if type(target_position) is not int or not 0 <= target_position <= 2:
        raise Inadmissible(f"bad target position {target_position}", "target_position in 0..2")
    known = {p: x for p, x in enumerate(entries) if p != target_position}
    if any(x is None for x in known.values()):
        raise Inadmissible("sequence has more than one non-computable entry", "one unknown entry")
    for x in known.values():
        if not isinstance(x, FormalSheaf) and not _is_bounds_row(x):
            raise Inadmissible(
                f"a known entry must be a FormalSheaf or four (lo, hi) pairs, got {x!r}",
                "4 int pairs with 0 <= lo <= hi",
            )
    if len({x.e for x in known.values() if isinstance(x, FormalSheaf)}) > 1:
        raise Inadmissible("the known entries live on different scrolls", "same e")
    rows = [
        [(h, h) for h in x.coh_vector()] if isinstance(x, FormalSheaf) else x
        for x in map(known.get, range(3))
    ]

    def cell(n):  # group n of the sequence H^0(S_0), H^0(S_1), H^0(S_2), H^1(S_0), ...
        i, p = divmod(n, 3)
        return rows[p][i] if 0 <= i <= 3 else (0, 0)

    def bound(n):
        (_, hi_pp), (lo_p, hi_p), (lo_n, hi_n), (_, hi_nn) = map(cell, (n - 2, n - 1, n + 1, n + 2))
        return max(0, lo_p - hi_pp) + max(0, lo_n - hi_nn), hi_p + hi_n

    return tuple(bound(3 * i + target_position) for i in range(4))
