"""Exact arithmetic in the Chow ring of the threefold scroll X_e = P(O + O(e)) over P².

The ring is Z[xi, f] / (f^3, xi^2 - e*xi*f), where xi is the relative
hyperplane class and f the pullback of a line.  Every class has a unique
normal form on the monomial basis

    1;  xi, f;  xi*f, f^2;  xi*f^2

obtained from the rewriting rules xi^2 = e*xi*f and f^3 = 0.  The degree map
sends xi*f^2 to 1 (hence xi^2*f to e and xi^3 to e^2).

Everything here is pure integer arithmetic: coefficients are arbitrary
precision ints, Euler characteristics are exact rationals that are asserted
integral before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import NonIntegralValue, ParameterMismatch

_BASIS_CODIM = {"one": 0, "xi": 1, "f": 1, "xif": 2, "ff": 2, "pt": 3}

# JSON keys follow the serialized schema: {"1", "xi", "f", "xif", "ff", "pt"}.
_JSON_KEYS = ("1", "xi", "f", "xif", "ff", "pt")


class ChowClass(NamedTuple):
    """A Chow class on X_e in normal form.

    Fields are the integer coefficients on the basis 1, xi, f, xi*f, f^2,
    xi*f^2 (the last named ``pt`` since xi*f^2 is the class of a point).
    Instances are immutable; all operations return fresh values.
    """

    e: int
    one: int = 0
    xi: int = 0
    f: int = 0
    xif: int = 0
    ff: int = 0
    pt: int = 0

    def _check(self, other: "ChowClass") -> None:
        if self.e != other.e:
            raise ParameterMismatch(
                f"cannot combine classes on X_{self.e} and X_{other.e}"
            )

    def __add__(self, other):
        self._check(other)
        return ChowClass(
            self.e,
            self.one + other.one,
            self.xi + other.xi,
            self.f + other.f,
            self.xif + other.xif,
            self.ff + other.ff,
            self.pt + other.pt,
        )

    def __sub__(self, other):
        self._check(other)
        return ChowClass(
            self.e,
            self.one - other.one,
            self.xi - other.xi,
            self.f - other.f,
            self.xif - other.xif,
            self.ff - other.ff,
            self.pt - other.pt,
        )

    def __neg__(self):
        return ChowClass(
            self.e, -self.one, -self.xi, -self.f, -self.xif, -self.ff, -self.pt
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check(other)
        e = self.e
        a0, a1, a2, a3, a4, a5 = self[1:]
        b0, b1, b2, b3, b4, b5 = other[1:]
        # Normal-form products of basis monomials:
        #   xi*xi = e*xif, xi*f = xif, f*f = ff,
        #   xi*xif = e*pt, xi*ff = pt, f*xif = pt, f*ff = 0.
        return ChowClass(
            e,
            a0 * b0,
            a0 * b1 + a1 * b0,
            a0 * b2 + a2 * b0,
            a0 * b3 + a3 * b0 + e * a1 * b1 + a1 * b2 + a2 * b1,
            a0 * b4 + a4 * b0 + a2 * b2,
            a0 * b5
            + a5 * b0
            + e * (a1 * b3 + a3 * b1)
            + a1 * b4
            + a4 * b1
            + a2 * b3
            + a3 * b2,
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, n: int) -> "ChowClass":
        return ChowClass(
            self.e, n * self.one, n * self.xi, n * self.f, n * self.xif, n * self.ff, n * self.pt
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in the Chow ring")
        out, base = unit(self.e), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def homogeneous_part(self, codim: int) -> "ChowClass":
        """The codimension-``codim`` component, all other coefficients dropped."""
        kw = {
            name: getattr(self, name)
            for name, c in _BASIS_CODIM.items()
            if c == codim
        }
        return ChowClass(self.e, **kw)

    def is_homogeneous(self, codim: int) -> bool:
        return all(
            getattr(self, name) == 0
            for name, c in _BASIS_CODIM.items()
            if c != codim
        )

    def degree(self) -> int:
        """Coefficient of the point class xi*f^2 (other components ignored)."""
        return self.pt

    def inverse(self) -> "ChowClass":
        """Inverse of a unit series 1 + u1 + u2 + u3 in the truncated ring.

        Used for total-Chern-class quotients.  Requires constant term 1.
        """
        if self.one != 1:
            raise ValueError("only classes with constant term 1 are invertible")
        u1 = self.homogeneous_part(1)
        u2 = self.homogeneous_part(2)
        u3 = self.homogeneous_part(3)
        v1 = -u1
        v2 = u1 * u1 - u2
        v3 = 2 * (u1 * u2) - u1 * u1 * u1 - u3
        return unit(self.e) + v1 + v2 + v3

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
        return {
            "e": self.e,
            "coeffs": dict(zip(_JSON_KEYS, self[1:])),
        }

    @staticmethod
    def from_dict(data: dict) -> "ChowClass":
        coeffs = data["coeffs"]
        return ChowClass(int(data["e"]), *(int(coeffs.get(k, 0)) for k in _JSON_KEYS))


def zero(e: int) -> ChowClass:
    return ChowClass(e)


def unit(e: int) -> ChowClass:
    return ChowClass(e, one=1)


def xi_class(e: int) -> ChowClass:
    return ChowClass(e, xi=1)


def f_class(e: int) -> ChowClass:
    return ChowClass(e, f=1)


def point_class(e: int) -> ChowClass:
    return ChowClass(e, pt=1)


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


@dataclass(frozen=True)
class ChernData:
    """Rank and Chern classes (c1, c2, c3) of a sheaf on X_e.

    Each c_i must be homogeneous of codimension i.
    """

    rank: int
    c1: ChowClass
    c2: ChowClass
    c3: ChowClass

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if not (self.c1.e == self.c2.e == self.c3.e):
            raise ParameterMismatch("Chern classes live on different scrolls")
        for i, c in ((1, self.c1), (2, self.c2), (3, self.c3)):
            if not c.is_homogeneous(i):
                raise ValueError(f"c{i} is not homogeneous of codimension {i}")

    @property
    def e(self) -> int:
        return self.c1.e


def twist_chern(data: ChernData, div: ChowClass) -> ChernData:
    """Chern data of E tensored with the line bundle O(div).

    Standard identity: c_k(E ⊗ L) = sum_i C(r-i, k-i) c_i(E) D^(k-i) where
    D = c1(L) and r = rank E.
    """
    if not div.is_homogeneous(1):
        raise ValueError("twisting divisor must be a codimension-1 class")
    if div.e != data.e:
        raise ParameterMismatch("twisting divisor lives on a different scroll")
    r = data.rank
    d2 = div * div
    c1 = data.c1 + r * div
    c2 = data.c2 + (r - 1) * (data.c1 * div) + comb(r, 2) * d2
    c3 = (
        data.c3
        + (r - 2) * (data.c2 * div)
        + comb(r - 1, 2) * (data.c1 * d2)
        + comb(r, 3) * (d2 * div)
    )
    return ChernData(r, c1, c2, c3)


def chi_rr(data: ChernData) -> int:
    """Euler characteristic of a rank-2 sheaf from its Chern data.

    Riemann-Roch on the threefold:

        chi = 2 + (c1^3 - 3 c1 c2 + 3 c3)/6
                - (K c1^2 - 2 K c2)/4
                + (K^2 c1 + c2(Omega^1) c1)/12

    The result must be an integer for integral Chern data; a fractional
    value raises ``NonIntegralValue``.
    """
    if data.rank != 2:
        raise ValueError("chi_rr is the rank-2 specialization")
    e = data.e
    k = canonical_class(e)
    c1, c2, c3 = data.c1, data.c2, data.c3
    c1sq = c1 * c1
    a = (c1sq * c1).pt - 3 * (c1 * c2).pt + 3 * c3.pt
    b = (k * c1sq).pt - 2 * (k * c2).pt
    c = (k * k * c1).pt + (c2_cotangent(e) * c1).pt
    num = 24 + 2 * a - 3 * b + c
    if num % 12 != 0:
        raise NonIntegralValue(
            f"chi came out {Fraction(num, 12)} on X_{e}; Chern data is not integral"
        )
    return num // 12


def instanton_chern(e: int, alpha: int, beta: int) -> ChernData:
    """Chern data of a rank-2 bundle with c1 = (e-1)f, c2 = alpha*xi*f + beta*f^2.

    c3 is 0: the twisted Riemann-Roch closed form below is only consistent
    with vanishing c3, and the kernel-sheaf modification keeps it 0.
    """
    return ChernData(
        2, ChowClass(e, f=e - 1), ChowClass(e, xif=alpha, ff=beta), zero(e)
    )


def chi_instanton(e: int, alpha: int, beta: int, a: int, b: int) -> int:
    """chi(E(a*xi + b*f)) for a bundle with the instanton Chern data.

    Closed cubic polynomial; always an integer for integer inputs.
    """
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


def slope_mu_H(e: int) -> Fraction:
    """Slope of an instanton bundle with respect to H: c1·H²/rank = (e²+e-2)/2."""
    return Fraction(e * e + e - 2, 2)


def delta_H(e: int, a: int, b: int) -> int:
    """H-degree of the divisor a*xi + b*f: a·e² + (2a+b)·e + a + 2b."""
    return a * e * e + (2 * a + b) * e + a + 2 * b
