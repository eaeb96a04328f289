"""Numerics specific to rank-2 instanton bundles on the scroll X_e.

An instanton here is a mu-semistable rank-2 bundle with c1 = (e-1)f,
h0 = 0, h1 of the (-H)-twist zero, and c2 = alpha*xi*f + beta*f^2; its
charge is (e+1)*alpha + beta.  This module records the closed-form facts
about such bundles: vanishing regions for their cohomology, the slope
test region, curve bookkeeping for the two ruling classes, Ext and moduli
dimension formulas, the kernel-sheaf modification, and the existence
decision procedure.  Everything is arithmetic on the parameters; the only
sheaves built are the formal sums of a ruling curve's Koszul resolution.
"""

from math import comb
from typing import NamedTuple, Optional

from . import chow, cohomology
from .chow import ChernData, ChowClass
from .cohomology import line
from .errors import (Inadmissible, NonIntegralValue, _decoder, _int, _one_of, _rebuild,
                     require_scroll)

EXISTS = "exists"
EXISTS_PULLBACK = "exists_pullback"
INADMISSIBLE = "inadmissible"
UNKNOWN = "unknown"

ROUTE_SERRE = "hartshorne-serre"
ROUTE_PULLBACK = "pullback"

REGION_CELLS_MAX = 1_000_000  # twists in one stability_test_region answer


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
    region applies.  The axioms force three regions of line twists:

    =============  ========================================================
    ``minus-h``    all cohomology of E(-H) vanishes (self-dual twist)
    ``h0-bundle``  h0 = 0 for a <= -1, b <= e, and for a = 0, b <= 0
    ``h2-bundle``  h2 = 0 for a, b >= -1
    =============  ========================================================

    The Omega tags follow by the Euler sequences 0 -> Omega(D) -> O(D-f)^3 -> O(D) -> 0
    and 0 -> O(D-3f) -> O(D-2f)^3 -> Omega(D) -> 0: ``h0-omega`` where h0(E(D-f)) is
    forced (H^0 injects), ``h2-omega`` where h2(E(D-2f)) and h3(E(D-3f)) both are.
    h3 is h0 at ``cohomology.serre_dual_twist(3, s)``: ``h3-bundle``, ``h3-omega``.
    ``e`` must be an int >= 0, ``s`` a ``Summand`` and ``i`` an int in 0..3.
    """
    require_scroll(e)
    cohomology._require_twist(i, s)
    return _forced(e, s, i)


def _forced(e: int, s: cohomology.Summand, i: int) -> Optional[str]:
    """``forced_vanishing`` of checked arguments."""
    kind, a, b = s
    if kind == cohomology.LINE and a == -1 and b == -1:
        return "minus-h"
    if i == 3:
        tag = _forced(e, cohomology.serre_dual_twist(3, s)[1], 0)
        return tag and "h3" + tag[2:]
    if kind == cohomology.LINE:
        if i == 0 and ((a <= -1 and b <= e) or (a == 0 and b <= 0)):
            return "h0-bundle"
        if i == 2 and a >= -1 and b >= -1:
            return "h2-bundle"
    elif i == 0 and _forced(e, line(a, b - 1), 0):
        return "h0-omega"
    elif i == 2 and _forced(e, line(a, b - 2), 2) and _forced(e, line(a, b - 3), 3):
        return "h2-omega"
    return None


def twisted_chi(e: int, alpha: int, beta: int, s: cohomology.Summand) -> int:
    """chi(E ⊗ s): ``chow.chi_instanton`` for a line bundle s, and additivity on
    the Euler sequence for Omega, chi(Omega ⊗ E(a, b)) = 3 chi(E(a, b-1)) -
    chi(E(a, b)).  The arguments are trusted."""
    chi = chow.chi_instanton(e, alpha, beta, s.a, s.b)
    if s.kind == cohomology.LINE:
        return chi
    return 3 * chow.chi_instanton(e, alpha, beta, s.a, s.b - 1) - chi


def twisted_bounds(p: InstantonParams, s: cohomology.Summand) -> tuple:
    """What the instanton axioms and chi prove about h^i(E ⊗ s), i = 0..3: one
    ``(lo, hi, source)`` each, ``hi`` None when unbounded.

    A group that ``forced_vanishing`` tags is (0, 0), its tag the source.  Of
    the rest, chi(E ⊗ s) (``twisted_chi``) gives a lone group exactly, and of
    one even and one odd group bounds the one of chi's sign below by |chi|,
    both with the source "chi"; any other group is (0, None, None).  A lone
    group that comes out negative is ``Inadmissible``.  The rule reads
    ``chi_instanton`` and the tags, never ``chi_rr`` or a chase.
    """
    _require_params(p)
    cohomology._require_twist(0, s)
    tags = [_forced(p.e, s, i) for i in range(4)]
    bounds = [(0, 0, tag) if tag else (0, None, None) for tag in tags]
    free = [i for i, tag in enumerate(tags) if tag is None]
    chi, exact = twisted_chi(*p, s), len(free) == 1
    if exact or (len(free) == 2 and sum(free) % 2 and chi):
        lo, i = max(((-1) ** i * chi, i) for i in free)
        if lo < 0:
            group = f"h{i}(E ⊗ {s.render(True)})"
            raise Inadmissible(f"{group} = {lo} < 0 at {p}", f"{group} >= 0")
        bounds[i] = (lo, lo if exact else None, "chi")
    return tuple(bounds)


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
    curve_class: str  # a name in _CURVE_DIVISORS
    degree_H: int
    chi_O: int
    normal_bundle: tuple  # f-degrees of the two summands of the normal bundle
    h0_N: int
    h1_N: int
    hilbert_dim: int


# Each ruling curve is the complete intersection of two divisors, as (xi, f)
# coefficients, f first: a xi*f-curve is cut by f and xi, a line f^2 by f twice.
_CURVE_DIVISORS = (("xif", (0, 1), (1, 0)), ("ff", (0, 1), (0, 1)))


def _curve_divisors(e: int, curve_class: str) -> tuple:
    """(D1, D2) of the class, which is compared, never hashed; e < 0 or an
    unknown class is ``Inadmissible``."""
    require_scroll(e)
    for name, d1, d2 in _CURVE_DIVISORS:
        if curve_class == name:
            return d1, d2
    names = ", ".join(name for name, _, _ in _CURVE_DIVISORS)
    raise Inadmissible(f"unknown curve class {curve_class!r}", f"curve_class in ({names})")


def curve_resolution(e: int, curve_class: str):
    """Koszul resolution 0 -> O(-D1-D2) -> O(-D1) + O(-D2) -> O -> O_curve -> 0
    of a curve of the class, cut out by D1 and D2, as the list [R2, R1, R0] of
    formal sheaves; chi(O_curve) is its alternating chi sum."""
    (a1, b1), (a2, b2) = _curve_divisors(e, curve_class)
    F = cohomology.FormalSheaf.of
    return [F(e, [(line(-a1 - a2, -b1 - b2), 1)]),
            F(e, [(line(-a1, -b1), 1), (line(-a2, -b2), 1)]), F(e, [(line(0, 0), 1)])]


def chi_curve(e: int, curve_class: str) -> int:
    return cohomology.chi_alternating(curve_resolution(e, curve_class))


def curve_info(e: int, curve_class: str) -> CurveClassInfo:
    """Numerical record of a curve C in the class xi*f (a rational curve of
    H-degree e+1) or f^2 (a line), the complete intersection of D1 and D2: its
    class is D1 D2, chi(O_C) comes from the Koszul resolution and the normal
    bundle is O(D1) + O(D2) restricted to C, of degrees (D1.C, D2.C).  D1 and
    D2 are f or xi, nef for e >= 0, so both degrees are >= 0, h^1(N) = 0 and the
    Hilbert-scheme component is smooth of dimension h^0(N); e < 0 is
    ``Inadmissible``."""
    d1, d2 = (chow.divisor(e, a, b) for a, b in _curve_divisors(e, curve_class))
    curve = d1 * d2
    normal = (d1.pairing(curve), d2.pairing(curve))
    h0, degree = sum(normal) + 2, curve.pairing(chow.hyperplane(e))
    return CurveClassInfo(curve_class, degree, chi_curve(e, curve_class), normal, h0, 0, h0)


# ---------------------------------------------------------------------------
# The section construction and its Ext bookkeeping


class SerreBundle(NamedTuple):
    chern: ChernData
    in_theorem_range: bool


def serre_construction(e: int, alpha: int) -> SerreBundle:
    """Chern data of the bundle cut out by alpha+1 disjoint ruling curves.

    The section construction produces c1 = 2 xi + (1-e) f and
    c2 = (alpha+1) xi f; normalizing by the twist -xi + (e-1) f lands on
    instanton data (c1 = (e-1) f, c2 = alpha xi f, c3 = 0).  Stability is
    stated for alpha > e, unchecked: no suite or test proves or cites it.  The
    data is returned for every alpha, flagged by ``in_theorem_range``.
    """
    require_scroll(e), _int(alpha)
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
    require_scroll(e), _int(alpha), _int(beta)
    ext2 = comb(e - 2, 2) if e >= 4 else 0
    defect = (6 + 2 * e) * alpha + 4 * beta - (e - 1) ** 2 - 3
    return ExtDimensions(1, defect, ext2, 0)


def chi_end_grr(e: int, alpha: int, beta: int) -> int:
    """chi(E ⊗ E^dual) from Grothendieck-Riemann-Roch, via Chow arithmetic.

    With c1(End) = c3(End) = 0 and c2(End) = 4 c2 - c1^2 the theorem reads
    chi = c1(T) c2(T) / 6 - c1(T) (4 c2 - c1^2) / 2.
    """
    require_scroll(e), _int(alpha), _int(beta)
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

    The O facet at alpha = 0 (below it ``twisted_bounds`` refuses h^1(E)):
    chi(E) = ``min_pullback_beta(e)`` - charge, so it is chi(E) at alpha = beta = 0.
    """
    require_scroll(e)
    return chow.chi_instanton(e, 0, 0, 0, 0)


def plane_moduli_dim(e: int, beta: int) -> int:
    """Dimension of the pullback locus, counted on the plane side.

    Untwisting by t = floor(e/2) lands in the moduli of plane bundles with
    c1 = 0 (e odd, dimension 4 c2 - 3) or c1 = -1 (e even, 4 c2 - 4).
    """
    require_scroll(e), _int(beta)
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
        _one_of(report.status, tuple(_STATUS_SHAPES), "status")
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
    * alpha = 0, beta >= (e^2+e)/2 + 1 (the O facet, ``min_pullback_beta``):
      pullback instantons exist for every e, earnest, and their moduli locus
      is smooth of dimension 4 beta + 2e - e^2 - 4 (reported in ext1): for E
      pulled back from a stable plane bundle F, Ext^2(E, E) = H^2(P^2, End F)
      = H^0(End F(-3))^dual = 0 (Serre duality; stability kills the twist).
    * Everything else (e >= 4 with alpha > e, or 0 < alpha <= e, or small
      beta) is open: status unknown rather than an extrapolated answer.

    ``earnest`` is whether h2(E(-(e+1)f)) = 0, None where undecided.  On the
    Serre route it is False where ``twisted_bounds`` puts that h2 above 0 (for
    e >= 1 it is at least chi = C(e,2) - beta, as h0 and h3 are forced there);
    else True for e <= 1, by the chase h^*(E(-(e+1)f)) = (0, 0, C(e,2), 0),
    whose h2 each modification keeps, and None above.
    """
    _require_params(p)
    e, alpha, beta = p.e, p.alpha, p.beta
    if alpha < 0:
        return ExistenceReport(INADMISSIBLE)
    if e <= 3 and alpha > e and beta >= 0:
        ext1 = ext_dimensions(e, alpha, beta).ext1_minus_ext2
        h2_lo = twisted_bounds(p, line(0, -(e + 1)))[2][0]
        earnest = False if h2_lo > 0 else (True if e <= 1 else None)
        return ExistenceReport(EXISTS, ext1, 0, 0, earnest, ROUTE_SERRE)
    if alpha == 0 and beta >= min_pullback_beta(e):
        ext1 = ext_dimensions(e, 0, beta).ext1_minus_ext2
        return ExistenceReport(EXISTS_PULLBACK, ext1, None, None, True, ROUTE_PULLBACK)
    return ExistenceReport(UNKNOWN)
