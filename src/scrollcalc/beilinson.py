"""Exceptional collections, their dual orthogonality, and instanton monads.

X_e carries three dual pairs of full exceptional collections built from
line bundles and Omega twists.  As X_e is a P^1-bundle over P^2, each is a
plane collection E_0, E_1, E_2 and its twist E_(3+i) = E_i ⊗ O(-xi + t f)
(D. Orlov, Projective bundles, monoidal transformations, and derived
categories of coherent sheaves, 1992).  With s_i = 2 on that twisted half of
the geometric side and s_i = 0 otherwise, the pairing is

    Ext^k(E_i, F_j) = H^(k - s_i)(E_i ⊗ F_j) = C  iff  i = j = k,

which ``orthogonality_check`` verifies cell by cell through the closed
cohomology forms.  A cohomology table against a pair then degenerates, for
an instanton, to a three-term monad; the surviving first-page entries live
in the h^1 row and their dimensions are minus the twisted Euler
characteristic.  Three monad variants are produced (one per pair; the third
needs alpha = 0 and is a pullback from the plane), plus the non-earnest
monad in which the h^2 groups enter as free parameters.

``_pair`` gives a variant's geometric and dual collections, and the table
frame comes from them: twist i = 0..4 of a variant is E_(4-i) of its
geometric collection, in table column i + 1 under its dual F_(4-i) of the
partner, and the monad positions are the same in every variant.  The frame
holds every cell but the five h^1 values; it depends on (e, variant,
gamma_zero) alone and is built once and cached.  The h^1 candidates, the
table's value cells and both monad builders read twist i by its index.
"""

from functools import lru_cache
from typing import NamedTuple, Optional

from . import chow, cohomology, instanton
from .chow import ChowClass, _new
from .cohomology import FormalSheaf, Summand, _summand_record, les_chase, line, omega
from .errors import Inadmissible, _decoder, _int, _keys, _one_of, _rebuild, require_scroll

GEOMETRIC_SHIFTS = (0, 0, 0, 2, 2, 2)  # s_i of E_0..E_5: 2 exactly on the twisted half

DUAL_PAIRS = {1: (1, 2), 2: (3, 4), 3: (5, 6)}

# The two plane shapes E_0, E_1, E_2 of a collection, before their twist by O(c f).
_LINES = (line(0, 0), line(0, -1), line(0, -2))
_OMEGA = (line(0, 0), omega(0, 1), line(0, -1))


def collection(e: int, index: int) -> tuple:
    """The six standard collections as (E_0, ..., E_5), numbered as the three
    dual pairs (1, 2), (3, 4), (5, 6), the odd index the geometric side.  Each
    is one row (shape, c, t): E_0..E_2 are the plane shape twisted by O(c f),
    and E_3..E_5, shifted by ``GEOMETRIC_SHIFTS``, are those twisted by
    O(-xi + t f) (Orlov's projective-bundle decomposition)."""
    require_scroll(e)
    if type(index) is not int or not 1 <= index <= 6:
        raise Inadmissible(f"collection index must be 1..6, got {index}", "index in 1..6")
    shape, c, t = (
        (_LINES, 1 - e, e), (_OMEGA, e - 1, 0), (_OMEGA, -e, e),
        (_LINES, e, 0), (_OMEGA, -e - 1, e + 1), (_LINES, e + 1, -1),
    )[index - 1]
    plane = tuple(Summand(s.kind, 0, s.b + c) for s in shape)
    return plane + tuple(Summand(s.kind, -1, s.b + t) for s in plane)


def _pair(e: int, variant: int) -> tuple:
    """The geometric and dual collections of the variant's dual pair."""
    if type(variant) is not int or variant not in DUAL_PAIRS:
        raise Inadmissible(f"variant must be 1, 2 or 3, got {variant}", "variant in (1, 2, 3)")
    return tuple(collection(e, k) for k in DUAL_PAIRS[variant])


def tensor_summands(x: Summand, y: Summand) -> Summand:
    if type(x) is not Summand or type(y) is not Summand:
        raise Inadmissible(f"cannot tensor {x!r} and {y!r}", "x and y are Summands")
    if x.kind == cohomology.OMEGA and y.kind == cohomology.OMEGA:
        raise Inadmissible("Omega ⊗ Omega products have no closed form here", "at most one omega")
    kind = cohomology.OMEGA if cohomology.OMEGA in (x.kind, y.kind) else cohomology.LINE
    return Summand(kind, x.a + y.a, x.b + y.b)


class OrthogonalityReport(NamedTuple):
    e: int
    pair: tuple
    violations: tuple  # tuple of (i, j, m, got, expected)

    @property
    def ok(self) -> bool:
        return not self.violations


def orthogonality_check(e: int, pair: int) -> OrthogonalityReport:
    """Every group H^m(E_i ⊗ F_j), m = 0..3, of pair 1, 2 or 3 against the
    expected delta pattern; bad cells are the report's ``violations``."""
    ecoll, fcoll = _pair(e, pair)
    violations = []
    for i, (x, si) in enumerate(zip(ecoll, GEOMETRIC_SHIFTS)):
        for j, y in enumerate(fcoll):
            for m, got in enumerate(cohomology.h_vector(e, tensor_summands(x, y))):
                want = 1 if (i == j and m == i - si) else 0
                if got != want:
                    violations.append((i, j, m, got, want))
    return OrthogonalityReport(e, DUAL_PAIRS[pair], tuple(violations))


# ---------------------------------------------------------------------------
# Strongness of the mixed dual collection
#
# The fifteen forward Ext groups between members of the second collection,
# each reduced to a single cohomology group on X_e.  Line-bundle groups are
# closed-form; Omega-twist groups are chased along the dualized Euler
# sequence at the appropriate twist (with Omega^dual = Omega(3f)); the one
# End(Omega)-type group is reachable only by the chase.


class StrongnessItem(NamedTuple):
    source: str
    target: str
    group: str
    route: str  # "closed-form" | "chase" | "chase-only"
    ok: bool


def _euler_dual_chase(e, t) -> bool:
    """Whether the chase proves h^1 = h^2 = h^3 = 0 for the quotient of the
    dualized Euler sequence 0 -> O(-3f) -> O(-2f)^3 -> Omega -> 0 tensored
    by the summand t."""
    F = FormalSheaf.of
    seq = [F(e, [(t._replace(b=t.b - 3), 1)]), F(e, [(t._replace(b=t.b - 2), 3)]), None]
    return all(hi == 0 for _, hi in les_chase(seq, 2)[1:])


class StrongnessReport(NamedTuple):
    e: int
    items: tuple

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.items)


def strongness_check(e: int) -> StrongnessReport:
    """Check Ext^i = 0 (i > 0) between all forward pairs of the mixed
    collection of the first dual pair; a failed pair is an item not ``ok``."""
    coll = collection(e, 2)
    names = [s.render() for s in coll]
    items = []
    # The Ext between F_i and F_j, i > j in collection order, equals
    # H^*(F_i^dual ⊗ F_j), one summand unless both are Omega twists.
    for i in range(5, 0, -1):
        for j in range(i - 1, -1, -1):
            src, tgt = coll[i], coll[j]
            if src.kind == tgt.kind == cohomology.OMEGA:
                # Ext^i(Omega(-xi+ef), Omega(ef)) = H^i(Omega^dual ⊗ Omega(xi)); with
                # Omega^dual = Omega(3f) this is the cokernel of the dualized Euler
                # sequence tensored by Omega(xi + 3f):
                #     0 -> Omega(xi) -> Omega(xi+f)^3 -> Omega^dual ⊗ Omega(xi) -> 0.
                group, route = "Ω^∨⊗Ω(ξ)", "chase-only"
                ok = _euler_dual_chase(e, omega(1, 3))
            else:
                # Omega^dual = Omega(3f), so Omega(D)^dual = Omega(3f - D).
                shift = 3 if src.kind == cohomology.OMEGA else 0
                g = tensor_summands(Summand(src.kind, -src.a, shift - src.b), tgt)
                closed_form = g.kind == cohomology.LINE
                group, route = g.render(), "closed-form" if closed_form else "chase"
                # An Omega group is chased along the dualized Euler sequence twisted
                # to end at it, and cross-checked against the closed form.
                chased = closed_form or _euler_dual_chase(e, line(g.a, g.b))
                ok = chased and not any(cohomology.h_vector(e, g)[1:])
            items.append(StrongnessItem(names[i], names[j], group, route, ok))
    return StrongnessReport(e, tuple(items))


# ---------------------------------------------------------------------------
# h^1 values of the twisted instanton


# Twist i of variant v is E_(4-i) of the geometric collection of
# DUAL_PAIRS[v], with dual F_(4-i) and monad position MONAD_POSITIONS[i];
# only its label is written out, a key of ``h1_values`` and a name in refusals.
VARIANT_LABELS = {
    1: ("-xi", "-xi+f", "-(e+1)f", "-ef", "-(e-1)f"),
    2: ("omega(-xi+f)", "-xi", "-(e+1)f", "omega(-(e-1)f)", "-ef"),
    3: ("omega(-xi+f)", "-xi", "-(e+2)f", "omega(-ef)", "-(e+1)f"),
}
# Beilinson's E_1 page holds the h^1 group against E_j at (p, q) = (-j, 1 + s_j): degree p + q.
MONAD_POSITIONS = tuple(1 + GEOMETRIC_SHIFTS[4 - i] - (4 - i) for i in range(5))

# The h^2 parameter of the non-earnest first variant at each twist index:
# gamma at -(e+1)f, eta at -ef, delta at -(e-1)f.
H2_PARAMS = (None, None, "gamma", "eta", "delta")


@lru_cache(maxsize=256, typed=True)
def _cached_candidates(e: int, alpha: int, beta: int, variant: int) -> tuple:
    """-chi at each twist in column order, keyed by (e, alpha, beta, variant), at
    most 256 entries: shared by a monad and its table.  Each caller checks its
    arguments in the call (``_int(alpha)``), since the cache hashes them before
    a check inside it could run: a list would escape as ``unhashable type``."""
    twists = _table_frame(e, variant, True)[1][1:]
    return tuple(-instanton.twisted_chi(e, alpha, beta, s) for s in twists)


def h1_values(e: int, alpha: int, beta: int, variant: int = 1) -> dict:
    """The five h^1 dimensions populating the table of the given variant,
    keyed by twist label (in column order): -chi(E ⊗ s) at each twist s.

    These are exactly the multiplicities of the variant's monad.  h^1 = -chi
    assumes that h^0, h^2 and h^3 vanish at the twist; ``instanton.twisted_bounds``
    names which of them no axiom forces.  A negative candidate, which no
    instanton meeting that premise has, is reported as ``Inadmissible``
    carrying the violated bound, on every call.  The variant, e, alpha and
    beta are checked in that order, before ``_cached_candidates`` is read.
    """
    if type(variant) is not int or variant not in DUAL_PAIRS:
        _pair(e, variant)  # raises
    require_scroll(e)
    if variant == 3 and alpha != 0:
        raise Inadmissible(
            f"the pullback variant requires alpha = 0, got alpha = {alpha}", "alpha == 0"
        )
    labels = VARIANT_LABELS[variant]
    values = _cached_candidates(e, _int(alpha), _int(beta), variant)
    for label, cand in zip(labels, values):
        if cand < 0:
            raise Inadmissible(
                f"h1 at twist {label} is {cand} < 0 for "
                f"(e, alpha, beta) = ({e}, {alpha}, {beta})",
                f"h1[{label}] >= 0",
            )
    return dict(zip(labels, values))


# ---------------------------------------------------------------------------
# The cohomology table


class Cell(NamedTuple):
    kind: str  # "star" | "value" | "zero" | "unknown"
    value: Optional[int] = None
    tag: Optional[str] = None

    def render(self) -> str:
        if self.kind == "star":
            return "*"
        if self.kind == "zero":
            return "0"
        if self.kind == "value":
            return str(self.value)
        return self.tag or "?"


STAR = Cell("star")


class BeilinsonTable(NamedTuple):
    """The 6x6 first-page table of an instanton against a dual pair.

    Rows follow the displayed staircase: shifted columns stack H^3..H^0 in
    rows 0..3, unshifted ones in rows 2..5, stars elsewhere.  Column c
    corresponds to collection index i = 5 - c, so the leftmost column is
    the twist by -H that the instanton condition kills outright.
    """

    e: int
    alpha: int
    beta: int
    variant: int
    gamma_zero: bool
    top_labels: tuple  # dual-side sheaf per column
    bottom_labels: tuple  # geometric-side twist per column
    shifts: tuple  # per column
    cells: tuple  # 6 rows x 6 columns of Cell

    def value_positions(self):
        return tuple(
            (r, c)
            for r in range(6)
            for c in range(6)
            if self.cells[r][c].kind == "value"
        )

    def render(self, ascii_only: bool = False, raw: bool = False) -> str:
        if raw:
            grid = [
                ["*" if cell.kind == "star" else f"H{(3 - r) if si else (5 - r)}"
                 for cell, si in zip(row, self.shifts)]
                for r, row in enumerate(self.cells)
            ]
        else:
            grid = [[cell.render() for cell in row] for row in self.cells]
        top = _rendered_labels(self.top_labels, ascii_only)
        bottom = _rendered_labels(self.bottom_labels, ascii_only)
        widths = [max(map(len, column)) for column in zip(top, bottom, *grid)]
        def fmt(cells):
            return "| " + " | ".join(map(str.center, cells, widths)) + " |"
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        return "\n".join([sep, fmt(top), sep, *map(fmt, grid), sep, fmt(bottom), sep])


@lru_cache(maxsize=256)
def _rendered_labels(labels: tuple, ascii_only: bool) -> tuple:
    """Rendered column labels, keyed by (labels, ascii_only), at most 256 entries."""
    return tuple(s.render(ascii_only) for s in labels)


@lru_cache(maxsize=64, typed=True)
def _table_frame(e: int, variant: int, gamma_zero: bool) -> tuple:
    """(top, bottom, shifts, cells, slots) of a table, keyed by (e, variant,
    gamma_zero), at most 64 entries: ``cells`` holds every cell but the five
    h^1 values, which ``slots`` lists as (row, column); column c holds twist
    c - 1, so ``bottom[1:]`` are the five twists and ``top[1:]`` their duals."""
    ecoll, fcoll = _pair(e, variant)
    top, bottom, shifts = fcoll[::-1], ecoll[::-1], GEOMETRIC_SHIFTS[::-1]
    cells = [[STAR] * 6 for _ in range(6)]
    slots = []
    for c, s in enumerate(bottom):
        si = shifts[c]
        for r in range(0, 4) if si else range(2, 6):
            m = (3 - r) if si else (5 - r)
            # Column 0 is -H, where every group is tagged minus-h.
            tag = instanton.forced_vanishing(e, s, m)
            if tag is None and m == 1:
                slots.append((r, c))
                continue
            if tag is None and m == 0:
                # Lone low-e boundary cells (only e = 0 reaches here, where
                # the region predicates stop short of b = 1).
                tag = "h0-small-e"
            if tag is None and m == 2:
                if variant == 3:
                    tag = "alpha-zero-chain"
                elif not gamma_zero:
                    cells[r][c] = Cell("unknown", tag=H2_PARAMS[c - 1])
                    continue
                else:
                    tag = "gamma-hypothesis" if s.b == -(e + 1) else "gamma-chain"
            cells[r][c] = Cell("zero", tag=tag)
    return top, bottom, shifts, tuple(map(tuple, cells)), tuple(slots)


def beilinson_table(
    e: int, alpha: int, beta: int, variant: int = 1, gamma_zero: bool = True
) -> BeilinsonTable:
    """Populate the table for the given variant.

    With ``gamma_zero`` (the earnest case) every non-star cell resolves to a
    symbolic zero with the rule that kills it, or to an h^1 value; exactly
    five value cells survive, in the fixed staircase positions.  With
    ``gamma_zero=False`` (first variant only) the three h^2 cells of the
    unshifted block become the free parameters gamma, eta, delta and the
    h^1 cells below them hold the base values still owed their corrections.
    """
    if type(gamma_zero) is not bool:
        _one_of(gamma_zero, (True, False), "gamma_zero")
    if not gamma_zero and variant != 1:
        raise Inadmissible("the non-earnest table is only laid out for variant 1", "variant == 1")
    if gamma_zero:
        values = tuple(h1_values(e, alpha, beta, variant).values())
    else:
        require_scroll(e)
        values = _cached_candidates(e, _int(alpha), _int(beta), 1)
        if alpha < 0:
            raise Inadmissible("alpha must be non-negative", "alpha >= 0")
    # The arguments are checked and the rest comes from the frame: build unchecked.
    top, bottom, shifts, frame, slots = _table_frame(e, variant, gamma_zero)
    cells = [list(row) for row in frame]
    for r, c in slots:
        cells[r][c] = _new(Cell, ("value", values[c - 1], None))
    return _new(BeilinsonTable, (
        e, alpha, beta, variant, gamma_zero, top, bottom, shifts, tuple(map(tuple, cells))
    ))


# ---------------------------------------------------------------------------
# Monads


# The keys of Monad.to_dict(), and the "checks" that `monad --json` adds (not read back).
_MONAD_KEYS = (
    "e", "alpha", "beta", "variant", "A", "B", "C", "C1", "gamma", "delta", "eta", "checks"
)


class Monad(NamedTuple("Monad", [
    ("e", int), ("alpha", int), ("beta", int), ("variant", Optional[int]),
    ("A", FormalSheaf), ("B", FormalSheaf), ("C", FormalSheaf),
    ("c_tail", Optional[FormalSheaf]), ("extra", Optional[tuple])])):
    """A three-term complex A -> B -> C with the instanton as middle
    cohomology.  For the non-earnest variant C is the kernel of a surjection
    C -> C1 of sheaves, stored as the pair (C, C1); plain monads have
    ``c_tail`` None.  ``extra`` carries (gamma, delta, eta) when present.
    Every construction, ``_replace`` and ``_make`` included, checks each field:
    int e >= 0, int alpha and beta; variant in (1, 2, 3, None); sheaves on
    X_e; extra None or three ints.  ``monad_shape`` and ``monad_general``,
    whose fields are all checked on the way in, build it unchecked."""

    __slots__ = ()

    def __new__(cls, e, alpha, beta, variant, A, B, C, c_tail=None, extra=None):
        require_scroll(e)
        _int(alpha), _int(beta)
        _one_of(variant, (1, 2, 3, None), "variant")
        tail = () if c_tail is None else (("c_tail", c_tail),)
        for name, sheaf in (("A", A), ("B", B), ("C", C), *tail):
            if type(sheaf) is not FormalSheaf or sheaf.e != e:
                raise Inadmissible(f"{name} is not a FormalSheaf on X_{e}: {sheaf!r}",
                                   "sheaves are FormalSheafs on X_e")
        if extra is not None and (type(extra) is not tuple or len(extra) != 3):
            raise Inadmissible(f"extra {extra!r} is not three ints", "extra is None or 3 ints")
        for x in extra or ():
            _int(x)
        return tuple.__new__(cls, (e, alpha, beta, variant, A, B, C, c_tail, extra))

    _make = classmethod(_rebuild)

    def render(self, ascii_only: bool = False) -> str:
        arrow = "->" if ascii_only else "→"
        tail = (
            ""
            if self.c_tail is None or not self.c_tail.terms
            else f" [{arrow} {self.c_tail.render(ascii_only)}]"
        )
        return (
            f"0 {arrow} {self.A.render(ascii_only)} {arrow} "
            f"{self.B.render(ascii_only)} {arrow} {self.C.render(ascii_only)}"
            f"{tail} {arrow} 0"
        )

    def to_dict(self) -> dict:
        out = {
            "e": self.e,
            "alpha": self.alpha,
            "beta": self.beta,
            "variant": self.variant,
            "A": self.A._rows(),
            "B": self.B._rows(),
            "C": self.C._rows(),
        }
        if self.c_tail is not None:
            out["C1"] = self.c_tail._rows()
        if self.extra is not None:
            out["gamma"], out["delta"], out["eta"] = self.extra
        return out

    @staticmethod
    @_decoder
    def from_dict(data: dict) -> "Monad":
        e = _keys(data, _MONAD_KEYS)["e"]
        rows = FormalSheaf._from_rows  # A, B and C are required, the tail C1 is not
        tail = rows(e, data["C1"]) if "C1" in data else None
        extra = tuple(data[k] for k in ("gamma", "delta", "eta")) if "gamma" in data else None
        return Monad(e, data["alpha"], data["beta"], data.get("variant"),
                     rows(e, data["A"]), rows(e, data["B"]), rows(e, data["C"]), tail, extra)


def _monad_sheaves(e: int, exponents, params, variant: int) -> list:
    """A, B, C and the tail C1: the dual of twist i enters its position with
    ``exponents[i]`` and reenters one position later with ``params[i]``
    (position 2 is the tail); zero terms are dropped.  Every part is checked (the duals
    are ``Summand``s, distinct within a position, and the exponents and
    parameters ints >= 0), so each sheaf is built unchecked: its terms, sorted."""
    buckets = {-1: [], 0: [], 1: [], 2: []}
    duals = _table_frame(e, variant, True)[0][1:]
    for dual, position, k, param in zip(duals, MONAD_POSITIONS, exponents, params):
        if k:
            buckets[position].append((dual, k))
        if param:
            buckets[position + 1].append((dual, param))
    return [_new(FormalSheaf, (e, tuple(sorted(buckets[p])))) for p in (-1, 0, 1, 2)]


def monad_shape(e: int, alpha: int, beta: int, variant: int = 1) -> Monad:
    """The variant's monad, multiplicities taken from ``h1_values`` (the
    Riemann-Roch route), never from display strings."""
    values = h1_values(e, alpha, beta, variant).values()
    A, B, C, _ = _monad_sheaves(e, values, (0,) * 5, variant)
    return _new(Monad, (e, alpha, beta, variant, A, B, C, None, None))


def monad_general(
    e: int, alpha: int, beta: int, gamma: int, delta: int, eta: int
) -> Monad:
    """The monad of a (possibly non-earnest) instanton with prescribed
    h^2 values gamma, eta, delta at the twists -(e+1)f, -ef, -(e-1)f.

    Each h^2 group bumps the h^1 exponent in its own column by the same
    amount and reappears as a summand one position later, so every
    correction cancels out of the rank, Chern and chi defects.  At
    gamma = delta = eta = 0 this degenerates to the first variant.  A parameter
    other than 0 where h^2 is forced is refused, its ``forced_vanishing`` tag the bound.
    """
    given = {"gamma": gamma, "delta": delta, "eta": eta}
    for name, val in (*given.items(), ("alpha", alpha)):
        if _int(val) < 0:
            raise Inadmissible(f"{name} = {val} < 0", f"{name} >= 0")
    require_scroll(e)
    params = tuple(given.get(name, 0) for name in H2_PARAMS)
    for name, label, s in zip(H2_PARAMS, VARIANT_LABELS[1], _table_frame(e, 1, True)[1][1:]):
        tag = name and given[name] and instanton._forced(e, s, 2)  # e checked, s from the frame
        if tag:
            raise Inadmissible(f"{name} = {given[name]}, but h2 at {label} is forced to 0", tag)
    exponents = tuple(k + p for k, p in zip(_cached_candidates(e, alpha, _int(beta), 1), params))
    for label, k in zip(VARIANT_LABELS[1], exponents):
        if k < 0:
            raise Inadmissible(f"exponent at twist {label} is {k} < 0", f"h1[{label}] >= 0")
    A, B, C, tail = _monad_sheaves(e, exponents, params, 1)
    return _new(Monad, (e, alpha, beta, None, A, B, C, tail, (gamma, delta, eta)))


class ConsistencyReport(NamedTuple):
    rank_defect: int
    c1_defect: ChowClass
    c2_defect: ChowClass
    chi_defect: int
    expected_c1: ChowClass
    expected_c2: ChowClass
    expected_chi: int

    @property
    def rank_ok(self) -> bool:
        return self.rank_defect == 2

    @property
    def c1_ok(self) -> bool:
        return self.c1_defect == self.expected_c1

    @property
    def c2_ok(self) -> bool:
        return self.c2_defect == self.expected_c2

    @property
    def chi_ok(self) -> bool:
        return self.chi_defect == self.expected_chi

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.c1_ok and self.c2_ok and self.chi_ok


def monad_consistency(m: Monad) -> ConsistencyReport:
    """Check that the middle cohomology of the monad has instanton data:
    rank 2, c1 = (e-1)f, c2 = alpha xi f + beta f^2, and the right chi.
    Its K-theory class is [B] + [C1] - [A] - [C], on which rank, chi and
    L = 6 log c are additive (Whitney's formula): one pass over the signed
    summands adds up their cached seven-int records (``_summand_record``),
    and c = exp(L/6) (``chow._exp6``), so c1 = L_1/6 and c2 = (12 L_2 +
    L_1^2)/72; the classes are built unchecked from checked ints."""
    if type(m) is not Monad:
        raise Inadmissible(f"expected a Monad, got {m!r}", "m is a Monad")
    e, alpha, beta = m.e, m.alpha, m.beta
    rank = chi = l1 = l2 = l3 = l4 = l5 = 0
    tail = m.c_tail.terms if m.c_tail is not None else ()
    for sign, terms in ((1, m.B.terms), (1, tail), (-1, m.A.terms), (-1, m.C.terms)):
        for s, k in terms:
            k *= sign
            r, x, d1, d2, d3, d4, d5 = _summand_record(e, s)
            rank, chi = rank + k * r, chi + k * x
            l1, l2, l3 = l1 + k * d1, l2 + k * d2, l3 + k * d3
            l4, l5 = l4 + k * d4, l5 + k * d5
    _, _, xi, f, xif, ff, _ = chow._exp6(e, l1, l2, l3, l4, l5)
    return ConsistencyReport(
        rank, _new(ChowClass, (e, 0, xi, f, 0, 0, 0)), _new(ChowClass, (e, 0, 0, 0, xif, ff, 0)),
        chi, _new(ChowClass, (e, 0, 0, e - 1, 0, 0, 0)),
        _new(ChowClass, (e, 0, 0, 0, alpha, beta, 0)), chow.chi_instanton(e, alpha, beta, 0, 0),
    )
