"""Numerics specific to rank-2 instanton bundles on the scroll X_e.

An instanton here is a mu-semistable rank-2 bundle with c1 = (e-1)f,
h0 = 0, h1 of the (-H)-twist zero, and c2 = alpha*xi*f + beta*f^2; its
charge is (e+1)*alpha + beta.  This module records the closed-form facts
about such bundles: vanishing regions for their cohomology, the slope
test region, curve bookkeeping for the two ruling classes, Ext and moduli
dimension formulas, the kernel-sheaf modification, and the existence
decision procedure.  Everything is arithmetic on the parameters; no sheaf
is ever constructed.
"""

from math import comb
from typing import NamedTuple, Optional

from . import chow, cohomology
from .chow import ChernData, ChowClass
from .errors import Inadmissible, NonIntegralValue, _decoder, _int, _one_of, _rebuild

EXISTS = "exists"
EXISTS_PULLBACK = "exists_pullback"
INADMISSIBLE = "inadmissible"
UNKNOWN = "unknown"

ROUTE_SERRE = "hartshorne-serre"
ROUTE_PULLBACK = "pullback"

REGION_CELLS_MAX = 1_000_000  # twists in one stability_test_region answer


def require_scroll(e: int) -> None:
    """The package's domain: e an int with e >= 0, checked by
    ``InstantonParams``, every Beilinson collection and the CLI."""
    if _int(e) < 0:
        raise Inadmissible("the scroll parameter e must be non-negative", "e >= 0")


class InstantonParams(
    NamedTuple("InstantonParams", [("e", int), ("alpha", int), ("beta", int)])
):
    """Discrete data (e, alpha, beta) of an instanton, three ints; charge is derived."""

    __slots__ = ()

    def __init__(self, e, alpha, beta):
        require_scroll(e)
        _int(alpha), _int(beta)

    _make = classmethod(_rebuild)

    @property
    def charge(self) -> int:
        return (self.e + 1) * self.alpha + self.beta


def is_ulrich_twist(p: InstantonParams) -> bool:
    """True when the H-twist of the bundle is Ulrich, i.e. chi(E) = 0."""
    return chow.chi_instanton(p.e, p.alpha, p.beta, 0, 0) == 0


def forced_vanishing(e: int, s: cohomology.Summand, i: int) -> Optional[str]:
    """Vanishing of h^i(E ⊗ s) forced purely by the instanton axioms,
    independent of (alpha, beta), for the twist summand s = O(a xi + b f)
    (E(D)) or Omega(a xi + b f) (Omega ⊗ E(D)).

    Returns the tag of the region that forces the zero, or None when no
    region applies.  Tags:

    =============  ========================================================
    ``minus-h``    all cohomology of E(-H) vanishes (self-dual twist)
    ``h0-bundle``  h0 = 0 for a <= -1, b <= e, and for a = 0, b <= 0
    ``h3-bundle``  h3 = 0 for a >= -1, b >= -(e+2), and for a = -2, b >= -2
    ``h0-omega``   h0 = 0 for a <= -1, b <= e+1, and for a = 0, b <= 1
    ``h3-omega``   h3 = 0 for a >= -1, b >= -e, and for a = -2, b >= 0
    ``h2-bundle``  h2 = 0 for a, b >= -1
    ``h2-omega``   h2 = 0 for a >= -1, b >= 1
    =============  ========================================================
    """
    kind, a, b = s
    if kind == cohomology.LINE:
        if a == -1 and b == -1:
            return "minus-h"
        if i == 0 and ((a <= -1 and b <= e) or (a == 0 and b <= 0)):
            return "h0-bundle"
        if i == 3 and ((a >= -1 and b >= -(e + 2)) or (a == -2 and b >= -2)):
            return "h3-bundle"
        if i == 2 and a >= -1 and b >= -1:
            return "h2-bundle"
    else:
        if i == 0 and ((a <= -1 and b <= e + 1) or (a == 0 and b <= 1)):
            return "h0-omega"
        if i == 3 and ((a >= -1 and b >= -e) or (a == -2 and b >= 0)):
            return "h3-omega"
        if i == 2 and a >= -1 and b >= 1:
            return "h2-omega"
    return None


def earnest_criterion(h2_at_minus_e1f: int) -> bool:
    """Earnestness of an instanton is equivalent to h2(E(-(e+1)f)) = 0."""
    if h2_at_minus_e1f < 0:
        raise Inadmissible("a cohomology dimension cannot be negative", "h2 >= 0")
    return h2_at_minus_e1f == 0


def stability_test_region(e, window, strict: bool = False):
    """Twists (a, b) in the window whose h0-vanishing feeds the slope criterion.

    The criterion on a rank-2 bundle over a variety with free Picard group:
    mu-stability is equivalent to h0(E(B)) = 0 for every divisor B with
    delta_H(B) <= -mu_H(E) (the default), mu-semistability to the same with <
    (``strict``).  The window is a finite box (a_min, a_max, b_min, b_max) of
    ints; the underlying region is infinite.  e < 0, or a window that is not
    four ints or is empty, is ``Inadmissible``.  delta_H is linear in b, so
    each row a is cut by one division and costs the same whatever the window's
    width.  delta_H(a, 0) = a(e+1)^2 is monotone in a, so the non-empty rows
    are one interval, found by one more division; no other row is visited.
    A region of more than ``REGION_CELLS_MAX`` twists is ``Inadmissible``.
    """
    require_scroll(e)
    if not (isinstance(window, (tuple, list)) and len(window) == 4
            and all(type(v) is int for v in window)):
        raise Inadmissible(
            f"window must be four ints, got {window!r}", "window = (a_min, a_max, b_min, b_max)"
        )
    a_min, a_max, b_min, b_max = window
    if a_min > a_max:
        raise Inadmissible(f"empty window: a_min = {a_min} > a_max = {a_max}", "a_min <= a_max")
    if b_min > b_max:
        raise Inadmissible(f"empty window: b_min = {b_min} > b_max = {b_max}", "b_min <= b_max")
    # 2*delta <= -2*mu_H avoids rationals.  With 2*delta = q*a + m*b, where
    # q = 2(e+1)^2 and m = 2(e+2) are positive, a row keeps the b with
    # m*b <= k0 - q*a, and it is non-empty iff b_min is kept.
    k0 = -chow.delta_H(e, 0, e - 1) - (1 if strict else 0)
    q, m = 2 * chow.delta_H(e, 1, 0), 2 * chow.delta_H(e, 0, 1)
    a_hi = min(a_max, (k0 - m * b_min) // q)

    # Rows are kept as (a, hi), each with at least one twist, so the cap
    # bounds the loop; the twists are built only once the region fits it.
    rows, cells = [], 0
    for a in range(a_min, a_hi + 1):
        hi = min(b_max, (k0 - q * a) // m)
        cells += hi - b_min + 1
        if cells > REGION_CELLS_MAX:
            raise Inadmissible(
                f"the test region has more than {REGION_CELLS_MAX} twists",
                f"region cells <= {REGION_CELLS_MAX}",
            )
        rows.append((a, hi))
    return [(a, b) for a, hi in rows for b in range(b_min, hi + 1)]


# ---------------------------------------------------------------------------
# Curve classes of the two rulings


class CurveClassInfo(NamedTuple):
    curve_class: str  # "xif" | "ff"
    degree_H: int
    chi_O: int
    normal_bundle: tuple  # f-degrees of the two summands of the normal bundle
    h0_N: int
    h1_N: int
    hilbert_dim: int


def curve_resolution(e: int, curve_class: str):
    """Koszul resolution of the structure sheaf of a curve in the class.

    Returned as the exact sequence 0 -> R2 -> R1 -> R0 -> O_curve -> 0
    (list [R2, R1, R0] of formal sheaves); chi(O_curve) is its alternating
    chi sum.
    """
    ln = cohomology.line
    F = cohomology.FormalSheaf.of
    if curve_class == "xif":
        return [
            F(e, [(ln(-1, -1), 1)]),
            F(e, [(ln(-1, 0), 1), (ln(0, -1), 1)]),
            F(e, [(ln(0, 0), 1)]),
        ]
    if curve_class == "ff":
        return [
            F(e, [(ln(0, -2), 1)]),
            F(e, [(ln(0, -1), 2)]),
            F(e, [(ln(0, 0), 1)]),
        ]
    raise Inadmissible(f"unknown curve class {curve_class!r}", "curve_class in (xif, ff)")


def chi_curve(e: int, curve_class: str) -> int:
    return cohomology.chi_alternating(curve_resolution(e, curve_class))


def curve_info(e: int, curve_class: str) -> CurveClassInfo:
    """Numerical record of a curve in the class xi*f (a rational curve of
    H-degree e+1) or f^2 (a line), with its normal bundle and the dimension
    of the Hilbert-scheme component it moves in."""
    if curve_class == "xif":
        return CurveClassInfo("xif", e + 1, 1, (1, e), e + 3, 0, e + 3)
    if curve_class == "ff":
        return CurveClassInfo("ff", 1, 1, (0, 0), 2, 0, 2)
    raise Inadmissible(f"unknown curve class {curve_class!r}", "curve_class in (xif, ff)")


# ---------------------------------------------------------------------------
# The section construction and its Ext bookkeeping


class SerreBundle(NamedTuple):
    chern: ChernData
    in_theorem_range: bool


def serre_construction(e: int, alpha: int) -> SerreBundle:
    """Chern data of the bundle cut out by alpha+1 disjoint ruling curves.

    The section construction produces c1 = 2 xi + (1-e) f and
    c2 = (alpha+1) xi f; normalizing by the twist -xi + (e-1) f lands on
    instanton data (c1 = (e-1) f, c2 = alpha xi f, c3 = 0).  The stability
    proof needs alpha > e; outside that range the data is still returned,
    flagged.
    """
    raw = ChernData(
        2,
        chow.divisor(e, 2, 1 - e),
        ChowClass(e, xif=alpha + 1),
        chow.zero(e),
    )
    twisted = chow.twist_chern(raw, chow.divisor(e, -1, e - 1))
    return SerreBundle(twisted, alpha > e)


class ExtDimensions(NamedTuple):
    ext0: int
    ext1_minus_ext2: int
    ext2: int
    ext3: int


def ext_dimensions(e: int, alpha: int, beta: int) -> ExtDimensions:
    """Ext-algebra dimensions of the bundles from the section construction.

    ext0 = 1 (simple), ext3 = 0, ext2 = C(e-2, 2) for e >= 4 and 0 below,
    and ext1 - ext2 = (6+2e) alpha + 4 beta - (e-1)^2 - 3.
    """
    ext2 = comb(e - 2, 2) if e >= 4 else 0
    defect = (6 + 2 * e) * alpha + 4 * beta - (e - 1) ** 2 - 3
    return ExtDimensions(1, defect, ext2, 0)


def chi_end_grr(e: int, alpha: int, beta: int) -> int:
    """chi(E ⊗ E^dual) from Grothendieck-Riemann-Roch, via Chow arithmetic.

    With c1(End) = c3(End) = 0 and c2(End) = 4 c2 - c1^2 the theorem reads
    chi = c1(T) c2(T) / 6 - c1(T) (4 c2 - c1^2) / 2.
    """
    c1t = chow.divisor(e, 2, 3 - e)
    c2t = chow.c2_cotangent(e)
    c1 = chow.divisor(e, 0, e - 1)
    c2 = ChowClass(e, xif=alpha, ff=beta)
    end_c2 = 4 * c2 - c1 * c1
    num = 2 * c1t.pairing(c2t) - 6 * c1t.pairing(end_c2)
    if num % 12 != 0:
        raise NonIntegralValue("chi(End) came out fractional")
    return num // 12


def elementary_modification(p: InstantonParams, ext1: int):
    """Kernel of a general surjection onto the structure sheaf of a ruling line.

    Sends (alpha, beta) to (alpha, beta+1), raises the charge by 1, keeps
    c1 and c3, and raises the Ext^1 dimension by exactly 4.  Stated for the
    e <= 3 range where the obstruction spaces vanish.
    """
    return InstantonParams(p.e, p.alpha, p.beta + 1), ext1 + 4


# ---------------------------------------------------------------------------
# Existence


def min_pullback_beta(e: int) -> int:
    """Least beta with a pullback instanton of c2 = beta f^2: (e^2+e)/2 + 1.

    This is the bound forced by the pullback monad's first exponent and
    matched by the plane moduli count.
    """
    return (e * e + e) // 2 + 1


def pullback_moduli_dim(e: int, beta: int) -> int:
    """Dimension of the (smooth, integral, rational) earnest pullback locus."""
    return 4 * beta + 2 * e - e * e - 4


def plane_moduli_dim(e: int, beta: int) -> int:
    """The same count run on the plane side of the pullback.

    Untwisting by t = floor(e/2) lands in the moduli of plane bundles with
    c1 = 0 (e odd, dimension 4 c2 - 3) or c1 = -1 (e even, 4 c2 - 4).
    """
    t = e // 2
    c2 = beta - t * (e - 1) + t * t
    return 4 * c2 - 3 if e % 2 == 1 else 4 * c2 - 4


class ExistenceReport(NamedTuple):
    status: str
    ext1: Optional[int] = None
    ext2: Optional[int] = None
    ext3: Optional[int] = None
    earnest: Optional[bool] = None
    route: Optional[str] = None

    def to_dict(self) -> dict:
        return self._asdict()

    @staticmethod
    @_decoder
    def from_dict(data: dict) -> "ExistenceReport":
        report = ExistenceReport(**data)
        _one_of(report.status, (EXISTS, EXISTS_PULLBACK, INADMISSIBLE, UNKNOWN), "status")
        for name, value, want in zip(report._fields[1:], report[1:], _STATUS_SHAPES[report.status]):
            if want is int:
                _int(value)
            else:
                _one_of(value, (want,), f"{report.status} {name}")
        return report


# The fields (ext1, ext2, ext3, earnest, route) of each status, written by
# ``existence_report`` and required by the decoder; int is a computed dimension.
_STATUS_SHAPES = {
    EXISTS: (int, 0, 0, True, ROUTE_SERRE),
    EXISTS_PULLBACK: (int, None, None, True, ROUTE_PULLBACK),
    INADMISSIBLE: (None,) * 5,
    UNKNOWN: (None,) * 5,
}


def existence_report(p: InstantonParams) -> ExistenceReport:
    """Decide existence exactly as far as it is proved, nothing further.

    * alpha < 0 is never realized: inadmissible.
    * e <= 3, alpha > e, beta >= 0: an earnest mu-stable instanton exists,
      with ext1 = (2e+6) alpha + 4 beta - (e-1)^2 - 3 and no obstructions.
    * alpha = 0, beta >= (e^2+e)/2 + 1: pullback instantons exist for every
      e; the moduli locus is smooth of dimension 4 beta + 2e - e^2 - 4
      (reported in ext1) and earnest.
    * Everything else (e >= 4 with alpha > e, or 0 < alpha <= e, or small
      beta) is open: status unknown rather than an extrapolated answer.
    """
    if type(p) is not InstantonParams:
        raise Inadmissible(f"expected an InstantonParams, got {p!r}", "p is an InstantonParams")
    e, alpha, beta = p.e, p.alpha, p.beta
    if alpha < 0:
        return ExistenceReport(INADMISSIBLE)
    if e <= 3 and alpha > e and beta >= 0:
        ext1 = ext_dimensions(e, alpha, beta).ext1_minus_ext2
        return ExistenceReport(EXISTS, ext1, *_STATUS_SHAPES[EXISTS][1:])
    if alpha == 0 and beta >= min_pullback_beta(e):
        ext1 = pullback_moduli_dim(e, beta)
        return ExistenceReport(EXISTS_PULLBACK, ext1, *_STATUS_SHAPES[EXISTS_PULLBACK][1:])
    return ExistenceReport(UNKNOWN)
