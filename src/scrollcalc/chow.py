"""Exact arithmetic in the Chow ring of the threefold scroll X_e = P(O + O(e)) over P².

The ring is Z[xi, f] / (f^3, xi^2 - e*xi*f), where xi is the relative
hyperplane class and f the pullback of a line.  Every class has a unique
normal form on the monomial basis

    1;  xi, f;  xi*f, f^2;  xi*f^2

obtained from the rewriting rules xi^2 = e*xi*f and f^3 = 0.  The degree map
sends xi*f^2 to 1 (hence xi^2*f to e and xi^3 to e^2).

Everything here is pure integer arithmetic: coefficients are arbitrary
precision ints, Euler characteristics are exact rationals that are checked
integral before being returned (``NonIntegralValue`` otherwise).
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import Inadmissible, NonIntegralValue, _decoder, _int, _keys, _rebuild

# Per codimension, the tuple positions of its coefficients (``e`` is at 0).
_POSITIONS = {0: range(1, 2), 1: range(2, 4), 2: range(4, 6), 3: range(6, 7)}
_new = tuple.__new__
# Largest exponent ``ChowClass.__pow__`` takes when the constant term c is
# not 0 or ±1: c**n has about n*log2|c| bits, so its cost grows without bound
# in n.  Otherwise every coefficient is a polynomial of degree <= 3 in n, and
# any n is cheap.  The package itself raises classes only to the powers 2 and
# 3 (H^2 and H^3 in ``verify``, H^3 in ``scrollcalc chow``).
POWER_MAX = 1000

# JSON keys follow the serialized schema: {"1", "xi", "f", "xif", "ff", "pt"}.
_JSON_KEYS = ("1", "xi", "f", "xif", "ff", "pt")


class ChowClass(NamedTuple("ChowClass", [(k, int) for k in "e one xi f xif ff pt".split()])):
    """A Chow class on X_e in normal form.

    Fields are the integer coefficients on the basis 1, xi, f, xi*f, f^2,
    xi*f^2 (the last named ``pt`` since xi*f^2 is the class of a point).
    Every construction, ``_replace`` and ``_make`` included, checks that all
    seven fields are ints.  The operators test each operand's type once
    (``_check`` and ``_int`` only raise) and build their results unchecked.
    Instances are immutable; all operations return fresh values.
    """

    __slots__ = ()

    def __new__(cls, e, one=0, xi=0, f=0, xif=0, ff=0, pt=0):  # hot: _int only raises
        if not (type(e) is type(one) is type(xi) is type(f) is type(xif) is type(ff)
                is type(pt) is int):
            for x in (e, one, xi, f, xif, ff, pt):
                _int(x)
        return _new(cls, (e, one, xi, f, xif, ff, pt))

    _make = classmethod(_rebuild)

    def _check(self, other) -> None:
        if type(other) is not ChowClass:
            raise Inadmissible(f"cannot combine a ChowClass with {other!r}", "other is a ChowClass")
        if self.e != other.e:
            raise Inadmissible(f"cannot combine classes on X_{self.e} and X_{other.e}", "same e")

    # Hot, so written out on the fields: about 23,000 calls per ``scrollcalc verify``.
    def __add__(self, other):
        if type(other) is not ChowClass:
            self._check(other)
        e, a0, a1, a2, a3, a4, a5 = self
        e2, b0, b1, b2, b3, b4, b5 = other
        if e != e2:
            self._check(other)
        return _new(ChowClass, (e, a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5))

    def __sub__(self, other):
        if type(other) is not ChowClass:
            self._check(other)
        return self + other.scale(-1)

    def __radd__(self, other):
        """``other + self``, called only for an ``other`` that is not a
        ``ChowClass`` (a plain tuple would concatenate): refused."""
        self._check(other)

    __rsub__ = __radd__

    def __neg__(self):
        return self.scale(-1)

    # Hot, so written out: about 17,100 calls per ``scrollcalc verify``.
    def __mul__(self, other):
        if type(other) is not ChowClass:
            return self.scale(other)
        e, a0, a1, a2, a3, a4, a5 = self
        e2, b0, b1, b2, b3, b4, b5 = other
        if e != e2:
            self._check(other)
        # Normal-form products of basis monomials:
        #   xi*xi = e*xif, xi*f = xif, f*f = ff,
        #   xi*xif = e*pt, xi*ff = pt, f*xif = pt, f*ff = 0.
        return _new(ChowClass, (
            e,
            a0 * b0,
            a0 * b1 + a1 * b0,
            a0 * b2 + a2 * b0,
            a0 * b3 + a3 * b0 + e * a1 * b1 + a1 * b2 + a2 * b1,
            a0 * b4 + a4 * b0 + a2 * b2,
            a0 * b5 + a5 * b0 + e * (a1 * b3 + a3 * b1)
            + a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2,
        ))

    # Hot, so written out: about 10,900 calls per ``scrollcalc verify``.
    def pairing(self, other: "ChowClass") -> int:
        """deg(self * other), from the complementary coefficients alone."""
        if type(other) is not ChowClass:
            self._check(other)
        e, a0, a1, a2, a3, a4, a5 = self
        e2, b0, b1, b2, b3, b4, b5 = other
        if e != e2:
            self._check(other)
        return (
            a0 * b5 + a5 * b0 + e * (a1 * b3 + a3 * b1)
            + a1 * b4 + a4 * b1 + a2 * b3 + a3 * b2
        )

    def scale(self, n: int) -> "ChowClass":
        """n times the class, for an int n (a bool or float raises)."""
        if type(n) is not int:
            _int(n)
        e, a0, a1, a2, a3, a4, a5 = self
        return _new(ChowClass, (e, n * a0, n * a1, n * a2, n * a3, n * a4, n * a5))

    __rmul__ = scale

    def __pow__(self, n: int):
        """The n-th power, for an int n >= 0; n <= ``POWER_MAX`` unless the
        constant term is 0 or ±1."""
        if type(n) is not int:
            _int(n)
        if n < 0:
            raise Inadmissible("negative powers are not defined in the Chow ring", "n >= 0")
        if n > POWER_MAX and not -1 <= self.one <= 1:
            raise Inadmissible(
                f"powers above {POWER_MAX} of a class with constant term {self.one}"
                " are not computed",
                f"n <= {POWER_MAX} or |one| <= 1",
            )
        out = unit(self.e)
        for bit in bin(n)[2:]:  # square and multiply, O(log n) products
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def homogeneous_part(self, codim: int) -> "ChowClass":
        """The codimension-``codim`` component, all other coefficients dropped."""
        out = [self[0], 0, 0, 0, 0, 0, 0]
        for i in _POSITIONS.get(codim, ()):
            out[i] = self[i]
        return _new(ChowClass, out)

    def is_homogeneous(self, codim: int) -> bool:
        own = _POSITIONS.get(codim, range(1, 1))
        return not (any(self[1:own.start]) or any(self[own.stop:]))

    def degree(self) -> int:
        """Coefficient of the point class xi*f^2 (other components ignored)."""
        return self.pt

    def inverse(self) -> "ChowClass":
        """Inverse exp(-log x) of a unit series x = 1 + u (constant term 1)."""
        if self.one != 1:
            raise Inadmissible("only classes with constant term 1 are invertible", "one == 1")
        return _exp6(self.e, *(-k for k in _log6(self)))

    def render(self, ascii_only: bool = False) -> str:
        """Human-readable sum of monomials, e.g. ``-2ξ + 3f + ξf²``."""
        if ascii_only:
            names = ("1", "xi", "f", "xi*f", "f^2", "xi*f^2")
        else:
            names = ("1", "ξ", "f", "ξf", "f²", "ξf²")
        parts = []
        for coeff, name in zip(self[1:], names):
            if coeff == 0:
                continue
            if name == "1":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append("-" + name)
            else:
                parts.append(f"{coeff}{'*' if ascii_only else ''}{name}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_dict(self) -> dict:
        return {"e": self.e, "coeffs": dict(zip(_JSON_KEYS, self[1:]))}

    @staticmethod
    @_decoder
    def from_dict(data: dict) -> "ChowClass":
        coeffs = _keys(_keys(data, ("e", "coeffs"))["coeffs"], _JSON_KEYS)
        return ChowClass(data["e"], *(coeffs.get(k, 0) for k in _JSON_KEYS))


def _log6(x: ChowClass) -> tuple:
    """6 log x = 6u - 3u^2 + 2u^3 of a unit series x = 1 + u (u^4 = 0), as its
    five int coefficients on xi, f, xi*f, f^2, xi*f^2; log(x y) = log x + log y."""
    u = x._replace(one=0)
    u2 = u * u
    return (u.scale(6) + u2.scale(-3) + (u2 * u).scale(2))[2:]


# Hot, so written out: about 1,400 calls per ``scrollcalc verify``, one per monad check.
def _exp6(e: int, l1: int, l2: int, l3: int, l4: int, l5: int) -> ChowClass:
    """exp(L/6) = (1296 + 216 L + 18 L^2 + L^3)/1296, L^2 and L^3 written out, for
    L = l1 xi + l2 f + l3 xi*f + l4 f^2 + l5 xi*f^2: the inverse of ``_log6``.
    A division that is not exact raises ``NonIntegralValue``."""
    q3, q4, q5 = (e * l1 + 2 * l2) * l1, l2 * l2, 2 * (e * l1 * l3 + l1 * l4 + l2 * l3)  # L^2
    n = (216 * l1, 216 * l2, 216 * l3 + 18 * q3, 216 * l4 + 18 * q4,
         216 * l5 + 18 * q5 + (e * l1 + l2) * q3 + l1 * q4)  # the last two: L^3
    if any(k % 1296 for k in n):
        raise NonIntegralValue(f"exp(L/6) is not integral on X_{e} for L = {(l1, l2, l3, l4, l5)}")
    return _new(ChowClass, (e, 1, *(k // 1296 for k in n)))


def zero(e: int) -> ChowClass:
    return ChowClass(e)


def unit(e: int) -> ChowClass:
    return ChowClass(e, one=1)


def xi_class(e: int) -> ChowClass:
    return ChowClass(e, xi=1)


def f_class(e: int) -> ChowClass:
    return ChowClass(e, f=1)


def divisor(e: int, a: int, b: int) -> ChowClass:
    """The divisor class a*xi + b*f."""
    return ChowClass(e, xi=a, f=b)


def hyperplane(e: int) -> ChowClass:
    """The polarization H = xi + f."""
    return ChowClass(e, xi=1, f=1)


def canonical_class(e: int) -> ChowClass:
    """K = -2*xi + (e-3)*f, the canonical divisor of X_e."""
    return ChowClass(e, xi=-2, f=e - 3)


def c2_cotangent(e: int) -> ChowClass:
    """Second Chern class of the cotangent bundle: 6*xi*f + (3-3e)*f^2."""
    return ChowClass(e, xif=6, ff=3 - 3 * e)


def exceptional_divisor(e: int) -> ChowClass:
    """The divisor contracted by |xi|: E = xi - e*f."""
    return ChowClass(e, xi=1, f=-e)


class ChernData(NamedTuple("ChernData", [
    ("rank", int), ("c1", ChowClass), ("c2", ChowClass), ("c3", ChowClass)
])):
    """Rank and Chern classes (c1, c2, c3) of a sheaf on X_e.

    The rank must be an int >= 1, each c_i a ``ChowClass``, all three on one
    scroll, and c_i homogeneous of codimension i.  Every construction,
    ``_replace`` and ``_make`` included, checks this in that order; the derived
    builder ``twist_chern`` builds its result unchecked from a checked
    ``ChernData`` and a checked divisor, as the ring operators do.
    """

    __slots__ = ()

    def __init__(self, rank, c1, c2, c3):
        _int(rank)
        if rank < 1:
            raise Inadmissible("rank must be positive", "rank >= 1")
        for i, c in enumerate((c1, c2, c3), 1):
            if type(c) is not ChowClass:
                raise Inadmissible(f"c{i} {c!r} is not a ChowClass", f"c{i} is a ChowClass")
        if not c1.e == c2.e == c3.e:
            raise Inadmissible("Chern classes live on different scrolls", "same e")
        for i, c in enumerate((c1, c2, c3), 1):
            if not c.is_homogeneous(i):
                raise Inadmissible(f"c{i} is not homogeneous of codimension {i}",
                                   f"c{i} homogeneous of codimension {i}")

    _make = classmethod(_rebuild)

    @property
    def e(self) -> int:
        return self.c1.e


def _require_chern(name: str, data) -> ChernData:
    """``data`` if its type is exactly ``ChernData``; else the refusal names
    the function ``name``.  ``twist_chern`` and ``chi_rr`` test the type
    themselves and call this only to raise."""
    if type(data) is not ChernData:
        raise Inadmissible(f"{name} takes a ChernData, got {data!r}", "data is a ChernData")
    return data


def twist_chern(data: ChernData, div: ChowClass) -> ChernData:
    """Chern data of the rank-2 bundle E tensored with the line bundle O(div).

    The rank-2 case of c_k(E ⊗ L) = sum_i C(r-i, k-i) c_i(E) D^(k-i), with
    D = c1(L): c1 + 2D, c2 + D (c1 + D), and c3 unchanged.  The class
    c1 + 2D and the xi*f and f^2 coefficients of D (c1 + D) depend on
    (c1, D) alone and come from a small per-twist cache (``_twist_terms``),
    which also checks the divisor.  c2 and D (c1 + D) are both of
    codimension 2, so the new c2 is those two coefficients added to c2's.

    ``data`` must be a ``ChernData`` of rank 2 and ``div`` a ``ChowClass``.
    The result is built unchecked, like a ring operator's: ``data`` was
    checked when it was built, ``_twist_terms`` checks that D is a
    codimension-1 class on the same scroll, and a product of two
    codimension-1 classes has codimension 2.
    """
    if type(data) is not ChernData:
        _require_chern("twist_chern", data)
    if type(div) is not ChowClass:  # before the cache, which an equal plain tuple would hit
        raise Inadmissible(f"twisting divisor {div!r} is not a ChowClass", "div is a ChowClass")
    rank, c1, c2, c3 = data
    if rank != 2:
        raise Inadmissible("twist_chern is the rank-2 specialization", "rank == 2")
    c1, dxif, dff = _twist_terms(c1, div)
    c2 = _new(ChowClass, (c2.e, 0, 0, 0, c2.xif + dxif, c2.ff + dff, 0))
    return _new(ChernData, (2, c1, c2, c3))


@lru_cache(maxsize=256)
def _twist_terms(c1: ChowClass, div: ChowClass) -> tuple:
    """(c1 + 2D, and the xi*f and f^2 coefficients of D (c1 + D)) for D = div,
    keyed by (c1, div), at most 256 entries.  A rejected divisor raises, so
    it is never cached."""
    if not div.is_homogeneous(1):
        raise Inadmissible("twisting divisor must be a codimension-1 class", "codim(div) == 1")
    if div.e != c1.e:
        raise Inadmissible("twisting divisor lives on a different scroll", "same e")
    dc2 = div * (c1 + div)
    return c1 + div + div, dc2.xif, dc2.ff


@lru_cache(maxsize=16)
def _rr_constants(e: int) -> tuple:
    """(-K, -3K, K^2 + c2(Omega^1), xi f, f^2) on X_e, the e-only inputs of
    ``chi_rr``."""
    k = canonical_class(e)
    return -k, k.scale(-3), k * k + c2_cotangent(e), ChowClass(e, xif=1), ChowClass(e, ff=1)


@lru_cache(maxsize=256)
def _rr_c1_terms(c1: ChowClass) -> tuple:
    """(deg c1 (c1 (2 c1 - 3K) + K^2 + c2(Omega^1)), w1, w2) with
    w1 = deg (c1 - K) xi f and w2 = deg (c1 - K) f^2, the c1-only inputs of
    ``chi_rr``, keyed by c1, at most 256 entries."""
    minus_k, minus_3k, k2_c2omega, xif, ff = _rr_constants(c1.e)
    c1_minus_k = c1 + minus_k
    return (
        c1.pairing(c1 * (c1 + c1 + minus_3k) + k2_c2omega),
        c1_minus_k.pairing(xif),
        c1_minus_k.pairing(ff),
    )


def chi_rr(data: ChernData) -> int:
    """Euler characteristic of a rank-2 sheaf from its Chern data.

    Riemann-Roch on the threefold:

        chi = 2 + (c1^3 - 3 c1 c2 + 3 c3)/6
                - (K c1^2 - 2 K c2)/4
                + (K^2 c1 + c2(Omega^1) c1)/12

    It is evaluated regrouped, with one ring product and three pairings
    (``ChowClass.pairing``, the degree of a product) per c1:

        12 chi = 24 + c1 (c1 (2 c1 - 3K) + K^2 + c2(Omega^1))
                    - 6 c2 (c1 - K) + 6 c3

    The cubic term depends only on c1, and so does c2 (c1 - K): c2 is
    homogeneous of codimension 2 (a ``ChernData`` invariant), so its degree
    is c2.xif w1 + c2.ff w2 with w1 = deg (c1 - K) xi f and
    w2 = deg (c1 - K) f^2.  The cubic, w1 and w2 come from a small per-c1
    cache (``_rr_c1_terms``), which takes -K, -3K, K^2 + c2(Omega^1) and the
    classes xi f and f^2 from a per-e cache (``_rr_constants``); a call adds
    two products and the point coefficient of c3.  The result must be an
    integer for integral Chern data; a fractional value raises
    ``NonIntegralValue``.

    ``data`` must be a ``ChernData`` of rank 2.
    """
    if type(data) is not ChernData:
        _require_chern("chi_rr", data)
    rank, c1, c2, c3 = data
    if rank != 2:
        raise Inadmissible("chi_rr is the rank-2 specialization", "rank == 2")
    cubic, w1, w2 = _rr_c1_terms(c1)
    num = 24 + cubic - 6 * (c2.xif * w1 + c2.ff * w2) + 6 * c3.pt
    if num % 12 != 0:
        from fractions import Fraction
        raise NonIntegralValue(
            f"chi came out {Fraction(num, 12)} on X_{c1.e}; Chern data is not integral"
        )
    return num // 12


def instanton_chern(e: int, alpha: int, beta: int) -> ChernData:
    """Chern data of a rank-2 bundle with c1 = (e-1)f, c2 = alpha*xi*f + beta*f^2.

    c3 is 0: the twisted Riemann-Roch closed form below is only consistent
    with vanishing c3, and the kernel-sheaf modification keeps it 0.
    """
    _int(e), _int(alpha), _int(beta)
    return ChernData(
        2, ChowClass(e, f=e - 1), ChowClass(e, xif=alpha, ff=beta), ChowClass(e)
    )


def chi_instanton(e: int, alpha: int, beta: int, a: int, b: int) -> int:
    """chi(E(a*xi + b*f)) for a bundle with the instanton Chern data.

    Closed cubic polynomial; always an integer for integer inputs.  It is
    affine in (alpha, beta): free - alpha (e a + b + e + 1) - beta (a + 1),
    where the free part and both coefficients depend on the twist (e, a, b)
    alone and come from a small per-twist cache (``_chi_terms``).  A call is
    one cache hit, two products and two subtractions.
    """
    free, per_alpha, per_beta = _chi_terms(e, a, b)
    return free - alpha * per_alpha - beta * per_beta


@lru_cache(maxsize=256)
def _chi_terms(e: int, a: int, b: int) -> tuple:
    """(free, e a + b + e + 1, a + 1): the (alpha, beta)-free part of
    ``chi_instanton``, a cubic in a evaluated by Horner's rule, and its alpha
    and beta coefficients, keyed by (e, a, b), at most 256 entries.  A twist
    whose free part is not integral raises, so it is never cached."""
    six = (
        (2 * e * e * a + 6 * e * (b + e + 1)) * a
        + 6 * b * b + 12 * (e + 1) * b + 7 * e * e + 9 * e + 6
    ) * a + 6 * b * (b + e + 2) + 3 * e * e + 3 * e + 6
    if six % 6 != 0:
        from fractions import Fraction
        raise NonIntegralValue(f"chi came out {Fraction(six, 6)} on X_{e}; twist is not integral")
    return six // 6, e * a + b + e + 1, a + 1


def slope_mu_H(e: int) -> "Fraction":
    """Slope of an instanton bundle with respect to H: c1·H²/rank = (e²+e-2)/2."""
    from fractions import Fraction
    return Fraction(delta_H(e, 0, e - 1), 2)


def delta_H(e: int, a: int, b: int) -> int:
    """H-degree of the divisor a*xi + b*f: a·e² + (2a+b)·e + a + 2b."""
    return a * e * e + (2 * a + b) * e + a + 2 * b
