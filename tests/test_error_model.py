"""The package raises two exception classes and defines three.

A rejected input raises ``Inadmissible`` (naming its bound) and corrupted
Chern data raises ``NonIntegralValue``; a failed invariant is returned in a
report, never raised.  ``ScrollcalcError`` is only their base class.
"""

import ast
import json
import operator
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollcalc import beilinson as bl
from scrollcalc import chow, cli
from scrollcalc import cohomology as coh
from scrollcalc import instanton as inst
from scrollcalc.chow import ChernData, ChowClass
from scrollcalc.errors import Inadmissible

SRC = Path(__file__).resolve().parent.parent / "src" / "scrollcalc"
GOLDEN = Path(__file__).resolve().parent / "golden"

RAISED = {"Inadmissible", "NonIntegralValue"}
RECORDS = ("ChowClass", "ChernData", "Summand", "FormalSheaf", "Monad", "InstantonParams")
DEFINED = {"ScrollcalcError", "Inadmissible", "NonIntegralValue"}


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def other_raises():
    """``(file, line, name)`` of every raise naming another class, and of
    every ``assert``, which raises ``AssertionError`` (or, under ``python -O``,
    nothing)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append((path.name, node.lineno, "assert"))
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = _raised_name(node)
                if name not in RAISED:
                    found.append((path.name, node.lineno, name))
    return found


def test_only_the_two_error_classes_are_raised():
    assert other_raises() == []


def _scopes(match):
    """``(file, qualified scope)`` of every node of the package's source for
    which ``match(node)`` holds."""
    found = set()

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,), path)
                continue
            if match(child):
                found.add((path.name, ".".join(scope)))
            visit(child, scope, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (), path)
    return found


def _template(node):
    """A string literal's value, or an f-string's with each field as ``{expr}``."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else f"{{{ast.unparse(v.value)}}}"
                       for v in node.values)
    return None


def _raisers(bound: str):
    """Scopes of every raise in the package whose ``Inadmissible`` names
    ``bound`` as a literal (an f-string bound as its template)."""
    return _scopes(lambda node: isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                   and any(_template(arg) == bound for arg in node.exc.args))


@pytest.mark.parametrize("bound, owner", [
    ("kind in (line, omega)", ("cohomology.py", "Summand.__new__")),
    ("type(value) is int", ("errors.py", "_int")),
    ("summand is a Summand", ("cohomology.py", "FormalSheaf.__new__")),
    ("mult >= 0", ("cohomology.py", "FormalSheaf.__new__")),
    ("terms are (Summand, mult) pairs", ("cohomology.py", "FormalSheaf.__new__")),
    ("sheaves are FormalSheafs on X_e", ("beilinson.py", "Monad.__new__")),
    ("extra is None or 3 ints", ("beilinson.py", "Monad.__new__")),
    ("e >= 0", ("errors.py", "require_scroll")),
    ("c{i} is a ChowClass", ("chow.py", "ChernData.__init__")),
    ("c{i} homogeneous of codimension {i}", ("chow.py", "ChernData.__init__")),
    ("data is a ChernData", ("chow.py", "_require_chern")),
    ("div is a ChowClass", ("chow.py", "twist_chern")),
    ("other is a ChowClass", ("chow.py", "ChowClass._check")),
    ("m is a Monad", ("beilinson.py", "monad_consistency")),
    ("p is an InstantonParams", ("instanton.py", "_require_params")),
    ("e <= 3", ("instanton.py", "elementary_modification")),
    ("len(entries) == 3", ("cohomology.py", "les_chase")),
    ("target_position in 0..2", ("cohomology.py", "les_chase")),
    ("summands strictly increasing, mult >= 1", ("cohomology.py", "FormalSheaf._from_rows")),
])
def test_each_field_bound_is_raised_by_one_owner(bound, owner):
    # A summand's kind is checked where the summand is built, a sheaf's terms
    # where the sheaf is built, and an int field only through ``_int``; no
    # function re-checks a record it takes.
    assert _raisers(bound) == {owner}


def test_unchecked_chern_data_is_built_only_by_derived_builders():
    # ``twist_chern`` builds from checked operands, like the ring operators;
    # every other ``ChernData`` goes through the checking constructor.
    unchecked = _scopes(lambda node: isinstance(node, ast.Call) and node.args
                        and ast.unparse(node.func) in ("_new", "tuple.__new__")
                        and ast.unparse(node.args[0]) == "ChernData")
    assert unchecked == {("chow.py", "twist_chern")}


def test_monad_layer_records_are_built_unchecked_only_from_checked_parts():
    # The monad builders, the table, the sheaf row reader and the one-term
    # sheaves of the exact sequences build from checked parts; every other
    # record goes through its constructor.
    def unchecked(record):
        return _scopes(lambda node: isinstance(node, ast.Call) and node.args
                       and ast.unparse(node.func) in ("_new", "tuple.__new__")
                       and ast.unparse(node.args[0]) == record)

    assert unchecked("FormalSheaf") == {
        ("cohomology.py", "FormalSheaf._from_rows"), ("cohomology.py", "_one_term"),
        ("beilinson.py", "_monad_sheaves")}
    assert unchecked("Monad") == {
        ("beilinson.py", "monad_shape"), ("beilinson.py", "monad_general")}
    assert unchecked("Cell") == unchecked("BeilinsonTable") == {
        ("beilinson.py", "beilinson_table")}


def _nodes(kind):
    """Every ``kind`` node (``ast.ClassDef``, …) of the package's source."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, kind):
                yield node


def test_checking_records_share_one_make():
    # Each record that checks its fields builds through its constructor on
    # every path: ``_make`` (and so ``_replace``) is the one ``_rebuild``.
    makes = {
        cls.name: ast.unparse(stmt.value)
        for cls in _nodes(ast.ClassDef) for stmt in cls.body
        if isinstance(stmt, ast.Assign) and "_make" in [ast.unparse(t) for t in stmt.targets]
    }
    assert makes == dict.fromkeys(RECORDS, "classmethod(_rebuild)")
    defined = [node.name for node in _nodes(ast.FunctionDef)]
    assert "_make" not in defined and defined.count("_rebuild") == 1


def test_record_decoders_leave_the_field_checks_to_the_record():
    decoders = [
        (cls.name, stmt) for cls in _nodes(ast.ClassDef) if cls.name in RECORDS
        for stmt in cls.body if isinstance(stmt, ast.FunctionDef) and stmt.name == "from_dict"
    ]
    assert sorted(name for name, _ in decoders) == ["ChowClass", "FormalSheaf", "Monad"]
    for name, decoder in decoders:
        # by bare name, whatever module the call goes through
        called = {ast.unparse(node.func).rsplit(".", 1)[-1] for node in ast.walk(decoder)
                  if isinstance(node, ast.Call)}
        assert not called & {"_int", "_one_of", "require_scroll"}, name


def test_errors_module_defines_exactly_three_classes():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)}
    assert classes == DEFINED


def _rejected_inputs():
    """``(call, message, bound)``: one rejected input per input check of the
    library modules that has no test of its own bound elsewhere."""
    z, data = chow.zero(1), chow.instanton_chern(1, 2, 3)
    good = coh.FormalSheaf.of(1, [(coh.line(0, 0), 1)])
    on_xm1 = coh.FormalSheaf.of(-1, [(coh.line(0, 0), 2)])
    return [
        (lambda: chow.xi_class(1) * chow.xi_class(2),
         "cannot combine classes on X_1 and X_2", "same e"),
        (lambda: chow.hyperplane(1) ** -1,
         "negative powers are not defined in the Chow ring", "n >= 0"),
        (lambda: ChowClass(1, one=2).inverse(),
         "only classes with constant term 1 are invertible", "one == 1"),
        (lambda: ChernData(0, z, z, z), "rank must be positive", "rank >= 1"),
        (lambda: ChernData(2.0, z, z, z), "expected an int, got 2.0", "type(value) is int"),
        (lambda: ChowClass(1, xi=2.5), "expected an int, got 2.5", "type(value) is int"),
        (lambda: ChowClass(1, xi=True), "expected an int, got True", "type(value) is int"),
        (lambda: bl.Monad(-1, 0, 0, None, on_xm1, on_xm1, on_xm1),
         "the scroll parameter e must be non-negative", "e >= 0"),
        (lambda: ChernData(2, 5, z, z), "c1 5 is not a ChowClass", "c1 is a ChowClass"),
        (lambda: ChernData(2, z, tuple(z), z),
         "c2 (1, 0, 0, 0, 0, 0, 0) is not a ChowClass", "c2 is a ChowClass"),
        (lambda: ChernData(2, z, z, None), "c3 None is not a ChowClass", "c3 is a ChowClass"),
        (lambda: chow.twist_chern(data, (1, 0, 1, 0, 0, 0, 0)),
         "twisting divisor (1, 0, 1, 0, 0, 0, 0) is not a ChowClass", "div is a ChowClass"),
        (lambda: chow.twist_chern(tuple(data), chow.divisor(1, 1, 0)),
         f"twist_chern takes a ChernData, got {tuple(data)!r}", "data is a ChernData"),
        (lambda: chow.hyperplane(1) ** 1.5, "expected an int, got 1.5", "type(value) is int"),
        (lambda: chow.hyperplane(1) ** True, "expected an int, got True", "type(value) is int"),
        (lambda: chow.hyperplane(1).scale(0.5), "expected an int, got 0.5", "type(value) is int"),
        (lambda: chow.hyperplane(1) * True, "expected an int, got True", "type(value) is int"),
        (lambda: 1.5 * chow.hyperplane(1), "expected an int, got 1.5", "type(value) is int"),
        *((lambda op=op: op(z, (1, 0, 1, 0, 0, 0, 0)),
           "cannot combine a ChowClass with (1, 0, 1, 0, 0, 0, 0)", "other is a ChowClass")
          for op in (operator.add, operator.sub, ChowClass.pairing)),
        *((lambda op=op: op((1, 0, 1, 0, 0, 0, 0), z),
           "cannot combine a ChowClass with (1, 0, 1, 0, 0, 0, 0)", "other is a ChowClass")
          for op in (operator.add, operator.sub)),
        (lambda: z + 1, "cannot combine a ChowClass with 1", "other is a ChowClass"),
        (lambda: sum([z, z]), "cannot combine a ChowClass with 0", "other is a ChowClass"),
        (lambda: ChernData(2, chow.zero(2), z, z),
         "Chern classes live on different scrolls", "same e"),
        (lambda: ChernData(2, z, ChowClass(1, xi=1), z),
         "c2 is not homogeneous of codimension 2", "c2 homogeneous of codimension 2"),
        (lambda: chow.twist_chern(data, ChowClass(1, ff=1)),
         "twisting divisor must be a codimension-1 class", "codim(div) == 1"),
        (lambda: chow.twist_chern(data, chow.divisor(2, 1, 0)),
         "twisting divisor lives on a different scroll", "same e"),
        *((lambda r=r: chow.twist_chern(ChernData(r, z, z, z), chow.divisor(1, 1, 0)),
           "twist_chern is the rank-2 specialization", "rank == 2") for r in (1, 3, 4)),
        (lambda: chow.chi_rr(ChernData(3, z, z, z)),
         "chi_rr is the rank-2 specialization", "rank == 2"),
        (lambda: chow.chi_rr(None), "chi_rr takes a ChernData, got None", "data is a ChernData"),
        (lambda: chow.chi_rr(tuple(data)),
         f"chi_rr takes a ChernData, got {tuple(data)!r}", "data is a ChernData"),
        (lambda: ChowClass(1, one=3, xi=1) ** (chow.POWER_MAX + 1),
         f"powers above {chow.POWER_MAX} of a class with constant term 3 are not computed",
         f"n <= {chow.POWER_MAX} or |one| <= 1"),
        (lambda: ChowClass(1, one=-2) ** 10**7,
         f"powers above {chow.POWER_MAX} of a class with constant term -2 are not computed",
         f"n <= {chow.POWER_MAX} or |one| <= 1"),
        (lambda: coh.FormalSheaf.of(1, [(coh.line(0, 0), -1)]),
         "negative multiplicity -1 for Summand(kind='line', a=0, b=0)", "mult >= 0"),
        (lambda: coh.Summand("zz", 0, 2), "unknown kind 'zz'", "kind in (line, omega)"),
        (lambda: coh.Summand("line", 0.5, 2), "expected an int, got 0.5", "type(value) is int"),
        (lambda: coh.omega(0, None), "expected an int, got None", "type(value) is int"),
        (lambda: coh.FormalSheaf.of(1.5, []), "expected an int, got 1.5", "type(value) is int"),
        (lambda: coh.FormalSheaf.of(1, [(coh.line(0, 0), 1.5)]),
         "expected an int, got 1.5", "type(value) is int"),
        (lambda: coh.FormalSheaf(1, ((("zz", 0, 0), 1),)),
         "term summand ('zz', 0, 0) is not a Summand", "summand is a Summand"),
        (lambda: coh.FormalSheaf.of(1, [(("line", 0, 0), 1)]),
         "term summand ('line', 0, 0) is not a Summand", "summand is a Summand"),
        (lambda: good._replace(e=1.5), "expected an int, got 1.5", "type(value) is int"),
        (lambda: coh.FormalSheaf(1, ((coh.line(0, 0), -2),)),
         "negative multiplicity -2 for Summand(kind='line', a=0, b=0)", "mult >= 0"),
        (lambda: coh.FormalSheaf._make([1, ((coh.omega(0, 0), True),)]),
         "expected an int, got True", "type(value) is int"),
        (lambda: coh.FormalSheaf(1, 5),
         "terms 5 are not (Summand, mult) pairs", "terms are (Summand, mult) pairs"),
        (lambda: coh.FormalSheaf.of(1, [coh.line(0, 0)]),
         "terms [Summand(kind='line', a=0, b=0)] are not (Summand, mult) pairs",
         "terms are (Summand, mult) pairs"),
        (lambda: bl.collection(1.5, 1), "expected an int, got 1.5", "type(value) is int"),
        (lambda: bl.h1_values(1, 1, 2, True),
         "variant True is not one of (1, 2, 3)", "variant in (1, 2, 3)"),
        (lambda: coh.FormalSheaf.of(1, []).chern_data(),
         "the zero sheaf has no Chern data record", "rank >= 1"),
        (lambda: coh.les_chase([good] * 4, 1),
         "only three-term exact sequences are chased", "len(entries) == 3"),
        (lambda: coh.les_chase([good, good, None], 5),
         "bad target position 5", "target_position in 0..2"),
        (lambda: coh.les_chase([None, good, None], 1),
         "sequence has more than one non-computable entry", "one unknown entry"),
        (lambda: coh.les_chase([good, coh.FormalSheaf.of(2, [(coh.line(0, 0), 1)]), None], 2),
         "the known entries live on different scrolls", "same e"),
        (lambda: bl.tensor_summands(coh.omega(0, 0), coh.omega(0, 0)),
         "Omega ⊗ Omega products have no closed form here", "at most one omega"),
        (lambda: bl.tensor_summands(1, 2), "cannot tensor 1 and 2", "x and y are Summands"),
        (lambda: bl.tensor_summands(coh.line(0, 0), ("line", 0, 0)),
         "cannot tensor Summand(kind='line', a=0, b=0) and ('line', 0, 0)",
         "x and y are Summands"),
        (lambda: inst.serre_construction("x", 1), "expected an int, got 'x'", "type(value) is int"),
        (lambda: inst.serre_construction(1, "x"), "expected an int, got 'x'", "type(value) is int"),
        (lambda: inst.serre_construction(-1, 1),
         "the scroll parameter e must be non-negative", "e >= 0"),
        (lambda: inst.InstantonParams(0, 1.5, 0), "expected an int, got 1.5", "type(value) is int"),
        (lambda: inst.InstantonParams(0, 1, "2"), "expected an int, got '2'", "type(value) is int"),
        (lambda: bl.h1_values(1, 1.5, 2), "expected an int, got 1.5", "type(value) is int"),
        (lambda: bl.monad_shape(1, 1, 2.5), "expected an int, got 2.5", "type(value) is int"),
        (lambda: bl.beilinson_table(1, 1, 0.5, 1, gamma_zero=False),
         "expected an int, got 0.5", "type(value) is int"),
        (lambda: bl.monad_general(1, 2, 5, 1.5, 0, 0),
         "expected an int, got 1.5", "type(value) is int"),
        (lambda: bl.monad_general(1, True, 5, 0, 0, 0),
         "expected an int, got True", "type(value) is int"),
        (lambda: inst.twisted_bounds((1, 2, 3), coh.line(0, 0)),
         "expected an InstantonParams, got (1, 2, 3)", "p is an InstantonParams"),
        (lambda: inst.twisted_bounds(inst.InstantonParams(1, 2, 0), (0, 0)),
         "twist summand (0, 0) is not a Summand", "s is a Summand"),
        (lambda: inst.twisted_bounds(inst.InstantonParams(0, 0, 0), coh.line(0, 0)),
         "h1(E ⊗ O) = -1 < 0 at InstantonParams(e=0, alpha=0, beta=0)", "h1(E ⊗ O) >= 0"),
        (lambda: bl.monad_general(0, 1, 4, 1, 2, 3),
         "gamma = 1, but h2 at -(e+1)f is forced to 0", "h2-bundle"),
        (lambda: inst.curve_resolution(0, "zz"),
         "unknown curve class 'zz'", "curve_class in (xif, ff)"),
        (lambda: inst.curve_info(0, "zz"),
         "unknown curve class 'zz'", "curve_class in (xif, ff)"),
        (lambda: inst.curve_info(0, ["xif"]),
         "unknown curve class ['xif']", "curve_class in (xif, ff)"),
        (lambda: inst.curve_resolution(-1, "xif"),
         "the scroll parameter e must be non-negative", "e >= 0"),
        (lambda: inst.chi_curve(-1, "ff"), "the scroll parameter e must be non-negative", "e >= 0"),
        # Foreign inputs of the monad layer are refused before any cache.
        (lambda: bl.h1_values([1], 0, 0, 1), "expected an int, got [1]", "type(value) is int"),
        (lambda: bl.h1_values(1, 0, 0, [1]),
         "variant [1] is not one of (1, 2, 3)", "variant in (1, 2, 3)"),
        (lambda: bl.beilinson_table([1], 0, 0, 1),
         "expected an int, got [1]", "type(value) is int"),
        (lambda: bl.beilinson_table([1], 0, 0, 1, False),
         "expected an int, got [1]", "type(value) is int"),
        (lambda: bl.beilinson_table(1, 0, 0, 1, [1]),
         "gamma_zero [1] is not one of (True, False)", "gamma_zero in (True, False)"),
        (lambda: bl.beilinson_table(1, 0, 0, 1, 1),
         "gamma_zero 1 is not one of (True, False)", "gamma_zero in (True, False)"),
        (lambda: bl.monad_shape(1, 0, 0, {}),
         "variant {} is not one of (1, 2, 3)", "variant in (1, 2, 3)"),
        (lambda: bl.monad_general([1], 1, 1, 0, 0, 0),
         "expected an int, got [1]", "type(value) is int"),
        (lambda: bl.monad_consistency(5), "expected a Monad, got 5", "m is a Monad"),
        (lambda: bl.monad_consistency(tuple(_GENERAL)),
         f"expected a Monad, got {tuple(_GENERAL)!r}", "m is a Monad"),
        (lambda: inst.existence_report((1, 2, 3)),
         "expected an InstantonParams, got (1, 2, 3)", "p is an InstantonParams"),
        # Foreign arguments of the chase and of the other instanton helpers.
        (lambda: coh.les_chase(5, 1),
         "only three-term exact sequences are chased", "len(entries) == 3"),
        (lambda: coh.les_chase([good, good, None], [1]),
         "bad target position [1]", "target_position in 0..2"),
        (lambda: coh.les_chase([good, good, None], 1.5),
         "bad target position 1.5", "target_position in 0..2"),
        (lambda: coh.les_chase([good, None, good], True),
         "bad target position True", "target_position in 0..2"),
        (lambda: inst.is_ulrich_twist((1, 2, 3)),
         "expected an InstantonParams, got (1, 2, 3)", "p is an InstantonParams"),
        (lambda: inst.elementary_modification((1, 2, 3), 4),
         "expected an InstantonParams, got (1, 2, 3)", "p is an InstantonParams"),
        (lambda: inst.elementary_modification(inst.InstantonParams(1, 2, 0), 4.0),
         "expected an int, got 4.0", "type(value) is int"),
        (lambda: inst.elementary_modification(inst.InstantonParams(6, 7, 0), 4),
         "the modification is stated for e <= 3, got e = 6", "e <= 3"),
        (lambda: inst.ext_dimensions([1], 0, 0), "expected an int, got [1]", "type(value) is int"),
        (lambda: inst.chi_end_grr(1, 0, True), "expected an int, got True", "type(value) is int"),
        (lambda: inst.ext_dimensions(-1, 0, 0),
         "the scroll parameter e must be non-negative", "e >= 0"),
        (lambda: inst.chi_end_grr(-1, 0, 0),
         "the scroll parameter e must be non-negative", "e >= 0"),
        (lambda: inst.min_pullback_beta(-3),
         "the scroll parameter e must be non-negative", "e >= 0"),
        (lambda: inst.min_pullback_beta("x"), "expected an int, got 'x'", "type(value) is int"),
        (lambda: inst.plane_moduli_dim("x", 0), "expected an int, got 'x'", "type(value) is int"),
        (lambda: inst.plane_moduli_dim(2, 1.5), "expected an int, got 1.5", "type(value) is int"),
        (lambda: inst.plane_moduli_dim(-1, 4),
         "the scroll parameter e must be non-negative", "e >= 0"),
        (lambda: coh.seq_euler_dual(0, 0, "x"), "expected an int, got 'x'", "type(value) is int"),
        (lambda: coh.seq_koszul(0, 0, "x"), "expected an int, got 'x'", "type(value) is int"),
        (lambda: coh.seq_relative_euler("x", 0, 0),
         "expected an int, got 'x'", "type(value) is int"),
        (lambda: coh.seq_euler_dual(1, 2, 1.5), "expected an int, got 1.5", "type(value) is int"),
        (lambda: bl.h1_values(1, [1], 0), "expected an int, got [1]", "type(value) is int"),
        (lambda: bl.beilinson_table(1, 1, {}, 1, False),
         "expected an int, got {}", "type(value) is int"),
        (lambda: bl.monad_general(1, 2, [5], 0, 0, 0),
         "expected an int, got [5]", "type(value) is int"),
        (lambda: chow.instanton_chern([1], 0, 0),
         "expected an int, got [1]", "type(value) is int"),
        (lambda: inst.stability_test_region(1, (0, 1, 0, 1), [1]),
         "strict [1] is not one of (True, False)", "strict in (True, False)"),
        (lambda: inst.stability_test_region(1, (0, 1, 0, 1), 1),
         "strict 1 is not one of (True, False)", "strict in (True, False)"),
        (lambda: inst.stability_test_region(1, (0, 1, 1, 0)),
         "empty window: b_min = 1 > b_max = 0", "b_min <= b_max"),
    ]


def test_rejected_inputs_name_their_bound():
    for call, message, bound in _rejected_inputs():
        with pytest.raises(Inadmissible) as info:
            call()
        assert (str(info.value), info.value.bound) == (message, bound)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chow", "--e", "1", "--a", "1"],
         "--a and --b must be given together [violated bound: --a iff --b]"),
        (["chi", "--e", "1", "--a", "0", "--b", "0", "--alpha", "1"],
         "--alpha and --beta must be given together [violated bound: --alpha iff --beta]"),
    ],
)
def test_flag_pairs_exit_2_naming_their_bound(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Ints (small and up to 10^18), bools, floats, strings (the two summand kinds
# among them), None, and lists and dicts (unhashable), fed to one field at a time.
_FIELD_VALUES = st.one_of(
    st.integers(-10**18, 10**18), st.integers(-3, 8), st.booleans(), st.floats(),
    st.text(max_size=3), st.sampled_from(coh.KINDS), st.none(),
    st.lists(st.integers(-3, 8), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 8), max_size=2),
)

# Each entry point with valid arguments; every argument is a fuzzed field.
_GENERAL = bl.monad_general(3, 4, 5, 1, 2, 1)
_LINE_SHEAF = coh.FormalSheaf.of(1, [(coh.line(0, 0), 1)])
_ENTRY_POINTS = {
    "ChowClass": (ChowClass, (1, 1, 2, -3, 0, 4, 5)),
    "Summand": (coh.Summand, ("omega", 1, -2)),
    "FormalSheaf.of": (lambda e, m: coh.FormalSheaf.of(e, [(coh.line(0, 1), m)]), (1, 2)),
    "InstantonParams": (inst.InstantonParams, (1, 2, 0)),
    "collection": (bl.collection, (1, 2)),
    "h1_values": (bl.h1_values, (1, 1, 2, 1)),
    "beilinson_table": (bl.beilinson_table, (1, 1, 2, 1, True)),
    "monad_shape": (bl.monad_shape, (1, 1, 2, 1)),
    "monad_consistency": (bl.monad_consistency, (_GENERAL,)),
    "existence_report": (inst.existence_report, (inst.InstantonParams(1, 2, 0),)),
    "twisted_bounds": (inst.twisted_bounds, (inst.InstantonParams(1, 2, 0), coh.line(0, -2))),
    "monad_general": (bl.monad_general, (3, 4, 5, 1, 2, 1)),
    "Monad": (lambda e, alpha, beta: bl.Monad(e, alpha, beta, *_GENERAL[3:]), (3, 4, 5)),
    "ChernData": (ChernData, tuple(chow.instanton_chern(1, 2, 3))),
    "twist_chern": (chow.twist_chern, (chow.instanton_chern(1, 2, 3), chow.divisor(1, 1, -2))),
    "chi_rr": (chow.chi_rr, (chow.instanton_chern(1, 2, 3),)),
    "ChowClass.__add__": (chow.hyperplane(1).__add__, (chow.xi_class(1),)),
    "ChowClass.pairing": (chow.hyperplane(1).pairing, (chow.xi_class(1),)),
    "ChowClass.scale": (chow.hyperplane(1).scale, (3,)),
    "ChowClass.__pow__": (chow.hyperplane(1).__pow__, (3,)),  # constant term 0: any n is cheap
    "les_chase": (coh.les_chase, ([_LINE_SHEAF, _LINE_SHEAF, None], 2)),
    "is_ulrich_twist": (inst.is_ulrich_twist, (inst.InstantonParams(1, 2, 0),)),
    "elementary_modification": (inst.elementary_modification, (inst.InstantonParams(1, 2, 0), 13)),
    "ext_dimensions": (inst.ext_dimensions, (1, 2, 5)),
    "chi_end_grr": (inst.chi_end_grr, (1, 2, 5)),
    "instanton_chern": (chow.instanton_chern, (1, 2, 5)),
    "stability_test_region": (inst.stability_test_region, (1, (-2, 2, -2, 2), False)),
    "serre_construction": (inst.serre_construction, (2, 3)),
    "tensor_summands": (bl.tensor_summands, (coh.omega(1, -2), coh.line(0, 3))),
    "seq_euler": (coh.seq_euler, (1, 2, -1)),
    "seq_euler_dual": (coh.seq_euler_dual, (1, 2, -1)),
    "seq_koszul": (coh.seq_koszul, (1, 2, -1)),
    "seq_relative_euler": (coh.seq_relative_euler, (1, 2, -1)),
    "curve_resolution": (inst.curve_resolution, (1, "xif")),
    "curve_info": (inst.curve_info, (2, "ff")),
    "min_pullback_beta": (inst.min_pullback_beta, (2,)),
    "plane_moduli_dim": (inst.plane_moduli_dim, (2, 5)),
}


@pytest.mark.parametrize("name, field", [
    (name, i) for name, (_, args) in _ENTRY_POINTS.items() for i in range(len(args))
])
@settings(max_examples=30)  # per field: enough to draw each kind of value
@given(value=_FIELD_VALUES)
def test_entry_point_fields_answer_or_name_a_bound(name, field, value):
    call, args = _ENTRY_POINTS[name]
    args = list(args)
    args[field] = value
    try:
        call(*args)
    except Inadmissible as exc:
        assert exc.bound
    else:  # a call that answers took a field of the valid type
        assert type(value) is type(_ENTRY_POINTS[name][1][field])


def _paths(node, path=()):
    """The path of every value inside a JSON payload, containers included."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_PAYLOADS = {
    "ChowClass": (ChowClass.from_dict, ChowClass(1, one=1, xi=2, ff=-3).to_dict()),
    "FormalSheaf": (coh.FormalSheaf.from_dict, coh.FormalSheaf.of(
        1, [(coh.line(1, 0), 2), (coh.omega(0, 1), 1)]).to_dict()),
    "Monad": (bl.Monad.from_dict, bl.monad_general(3, 4, 5, 1, 2, 1).to_dict()),
    "ExistenceReport": (inst.ExistenceReport.from_dict,
                        inst.existence_report(inst.InstantonParams(1, 2, 0)).to_dict()),
}


@pytest.mark.parametrize("name", sorted(_PAYLOADS))
@given(data=st.data(), value=_FIELD_VALUES)
def test_payload_fields_decode_or_name_a_bound(name, data, value):
    decode, payload = _PAYLOADS[name]
    path = data.draw(st.sampled_from(sorted(_paths(payload), key=repr)))
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        decode(payload)
    except Inadmissible as exc:
        assert exc.bound


# Not a dict, at a position of a payload that holds one.
_NOT_A_DICT = (["e", 0], "e", None)


def _decoder_refusals():
    """``[payload, path, value, message, bound]`` for each value of
    ``_NOT_A_DICT`` at each dict position of each payload, the root included."""
    found = []
    for name, (decode, payload) in sorted(_PAYLOADS.items()):
        for path in [(), *sorted(_paths(payload), key=repr)]:
            copy = json.loads(json.dumps(payload))
            node = copy
            for key in path[:-1]:
                node = node[key]
            if not isinstance(node[path[-1]] if path else copy, dict):
                continue
            for value in _NOT_A_DICT:
                if path:
                    node[path[-1]] = value
                with pytest.raises(Inadmissible) as info:
                    decode(copy if path else value)
                found.append([name, list(path), value, str(info.value), info.value.bound])
    return found


def test_decoder_refusals_keep_their_message_and_bound():
    # Recorded before ``_keys`` tested a dict by set inclusion: each refusal
    # keeps its bound, and its message too on the Python that recorded them
    # (the messages quote the interpreter's own TypeError text).
    recorded = json.loads((GOLDEN / "decoder_refusals.json").read_text(encoding="utf-8"))
    got = _decoder_refusals()
    assert [row[:3] + row[4:] for row in got] == [row[:3] + row[4:] for row in recorded["refusals"]]
    if list(sys.version_info[:2]) == recorded["python"]:
        assert got == recorded["refusals"]
