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


def _require_params(p) -> None:
    """Refuse anything but an ``InstantonParams``, whose fields are checked."""
    if type(p) is not InstantonParams:
        raise Inadmissible(f"expected an InstantonParams, got {p!r}", "p is an InstantonParams")


def is_ulrich_twist(p: InstantonParams) -> bool:
    """True when the H-twist of the bundle is Ulrich, i.e. chi(E) = 0."""
    _require_params(p)
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
    ``h0-omega``   h0 = 0 for a <= -1, b <= e+1, and for a = 0, b <= 1
    ``h2-bundle``  h2 = 0 for a, b >= -1
    ``h2-omega``   h2 = 0 for a >= -1, b >= 1
    =============  ========================================================

    h3 is h0 at ``cohomology.serre_dual_twist(3, s)``, tagged ``h3-bundle`` or ``h3-omega``.
    ``e`` must be an int >= 0, ``s`` a ``Summand`` and ``i`` an int in 0..3.
    """
    require_scroll(e)
    cohomology._require_twist(i, s)
    kind, a, b = s
    if kind == cohomology.LINE and a == -1 and b == -1:
        return "minus-h"
    side = "h0"
    if i == 3:
        side, (i, (kind, a, b)) = "h3", cohomology.serre_dual_twist(3, s)
    if kind == cohomology.LINE:
        if i == 0 and ((a <= -1 and b <= e) or (a == 0 and b <= 0)):
            return side + "-bundle"
        if i == 2 and a >= -1 and b >= -1:
            return "h2-bundle"
    else:
        if i == 0 and ((a <= -1 and b <= e + 1) or (a == 0 and b <= 1)):
            return side + "-omega"
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
    A region of more than ``REGION_CELLS_MAX`` twists is ``Inadmissible``, and
    so is a ``strict`` that is not exactly a bool.
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
    _one_of(strict, (True, False), "strict")
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
    of the Hilbert-scheme component it moves in.  chi(O) comes from the
    Koszul resolution and the H-degree from the Chow ring; the normal bundle
    O(d1) + O(d2) of the rational curve has d1 + d2 = -K.C - 2 and both
    degrees >= 0, so h^1(N) = 0 and the component is smooth of dimension h^0(N);
    e < 0 is ``Inadmissible``."""
    require_scroll(e)
    chi_O = chi_curve(e, curve_class)  # refuses an unknown class
    if curve_class == "xif":
        curve, normal = ChowClass(e, xif=1), (1, e)
    else:
        curve, normal = ChowClass(e, ff=1), (0, 0)
    h0 = sum(d + 1 for d in normal)
    return CurveClassInfo(curve_class, curve.pairing(chow.hyperplane(e)), chi_O, normal, h0, 0, h0)


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
    and ext1 - ext2 = (6+2e) alpha + 4 beta - (e-1)^2 - 3.  The e >= 4 value
    of ext2 is unchecked: no suite or caller reads it.
    """
    _int(e), _int(alpha), _int(beta)
    ext2 = comb(e - 2, 2) if e >= 4 else 0
    defect = (6 + 2 * e) * alpha + 4 * beta - (e - 1) ** 2 - 3
    return ExtDimensions(1, defect, ext2, 0)


def chi_end_grr(e: int, alpha: int, beta: int) -> int:
    """chi(E ⊗ E^dual) from Grothendieck-Riemann-Roch, via Chow arithmetic.

    With c1(End) = c3(End) = 0 and c2(End) = 4 c2 - c1^2 the theorem reads
    chi = c1(T) c2(T) / 6 - c1(T) (4 c2 - c1^2) / 2.
    """
    _int(e), _int(alpha), _int(beta)
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
    e <= 3 range where the obstruction spaces vanish; a larger e is refused.
    """
    _require_params(p)
    _int(ext1)
    if p.e > 3:
        raise Inadmissible(f"the modification is stated for e <= 3, got e = {p.e}", "e <= 3")
    return InstantonParams(p.e, p.alpha, p.beta + 1), ext1 + 4


# ---------------------------------------------------------------------------
# Existence


def min_pullback_beta(e: int) -> int:
    """Least beta with a pullback instanton of c2 = beta f^2: (e^2+e)/2 + 1.

    This is the bound forced by the pullback monad's first exponent and
    matched by the plane moduli count.
    """
    return (e * e + e) // 2 + 1


def plane_moduli_dim(e: int, beta: int) -> int:
    """Dimension of the pullback locus, counted on the plane side.

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
                _one_of(value, want, f"{report.status} {name}")
        return report


# The fields (ext1, ext2, ext3, earnest, route) of each status, as the decoder
# requires them: int is a computed dimension, a tuple the values allowed.
_STATUS_SHAPES = {
    EXISTS: (int, (0,), (0,), (True, False, None), (ROUTE_SERRE,)),
    EXISTS_PULLBACK: (int, (None,), (None,), (True,), (ROUTE_PULLBACK,)),
    INADMISSIBLE: ((None,),) * 5,
    UNKNOWN: ((None,),) * 5,
}


def existence_report(p: InstantonParams) -> ExistenceReport:
    """Decide existence exactly as far as it is proved, nothing further.

    * alpha < 0 is never realized: inadmissible.
    * e <= 3, alpha > e, beta >= 0: an instanton exists (Hartshorne-Serre),
      with ext1 = (2e+6) alpha + 4 beta - (e-1)^2 - 3 and no obstructions;
      the route's proof makes it mu-stable, which no suite checks.
    * alpha = 0, beta >= (e^2+e)/2 + 1: pullback instantons exist for every
      e; the moduli locus is smooth of dimension 4 beta + 2e - e^2 - 4
      (reported in ext1) and earnest.  Smooth, since for E pulled back from
      a stable plane bundle F, Ext^2(E, E) = H^2(P^2, End F) =
      H^0(End F(-3))^dual = 0 (Serre duality; stability kills the twist).
    * Everything else (e >= 4 with alpha > e, or 0 < alpha <= e, or small
      beta) is open: status unknown rather than an extrapolated answer.

    ``earnest`` is whether h2(E(-(e+1)f)) = 0, None where undecided.  On the
    Serre route it is False where h0 and h3 vanish there (``forced_vanishing``)
    and chi = C(e,2) - beta > 0, as then h2 >= chi; else True for e <= 1, by the
    chase h^*(E(-(e+1)f)) = (0, 0, C(e,2), 0), whose h2 each modification keeps.
    """
    _require_params(p)
    e, alpha, beta = p.e, p.alpha, p.beta
    if alpha < 0:
        return ExistenceReport(INADMISSIBLE)
    if e <= 3 and alpha > e and beta >= 0:
        ext1 = ext_dimensions(e, alpha, beta).ext1_minus_ext2
        twist, chi = cohomology.line(0, -(e + 1)), chow.chi_instanton(e, alpha, beta, 0, -(e + 1))
        forced = chi > 0 and forced_vanishing(e, twist, 0) and forced_vanishing(e, twist, 3)
        earnest = earnest_criterion(chi) if forced else (True if e <= 1 else None)
        return ExistenceReport(EXISTS, ext1, 0, 0, earnest, ROUTE_SERRE)
    if alpha == 0 and beta >= min_pullback_beta(e):
        ext1 = ext_dimensions(e, 0, beta).ext1_minus_ext2
        return ExistenceReport(EXISTS_PULLBACK, ext1, None, None, True, ROUTE_PULLBACK)
    return ExistenceReport(UNKNOWN)
