"""The package raises two exception classes and defines three.

A rejected input raises ``Inadmissible`` (naming its bound) and corrupted
Chern data raises ``NonIntegralValue``; a failed invariant is returned in a
report, never raised.  ``ScrollcalcError`` is only their base class.
"""

import ast
from pathlib import Path

import pytest

from scrollcalc import beilinson as bl
from scrollcalc import chow, cli
from scrollcalc import cohomology as coh
from scrollcalc import instanton as inst
from scrollcalc.chow import ChernData, ChowClass
from scrollcalc.errors import Inadmissible

SRC = Path(__file__).resolve().parent.parent / "src" / "scrollcalc"

RAISED = {"Inadmissible", "NonIntegralValue"}
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


def test_errors_module_defines_exactly_three_classes():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)}
    assert classes == DEFINED


def _rejected_inputs():
    """``(call, message, bound)``: one rejected input per input check of the
    library modules that has no test of its own bound elsewhere."""
    z, data = chow.zero(1), chow.instanton_chern(1, 2, 3)
    good = coh.FormalSheaf.of(1, [(coh.line(0, 0), 1)])
    return [
        (lambda: chow.xi_class(1) * chow.xi_class(2),
         "cannot combine classes on X_1 and X_2", "same e"),
        (lambda: chow.hyperplane(1) ** -1,
         "negative powers are not defined in the Chow ring", "n >= 0"),
        (lambda: ChowClass(1, one=2).inverse(),
         "only classes with constant term 1 are invertible", "one == 1"),
        (lambda: ChernData(0, z, z, z), "rank must be positive", "rank >= 1"),
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
        (lambda: coh.FormalSheaf.of(1, [(coh.line(0, 0), -1)]),
         "negative multiplicity -1 for Summand(kind='line', a=0, b=0)", "mult >= 0"),
        (lambda: coh.FormalSheaf.of(1, [(coh.Summand("zz", 0, 2), 1)]),
         "unknown kind 'zz'", "kind in (line, omega)"),
        (lambda: coh.h_vector(1, coh.Summand("zz", 0, 2)),
         "unknown kind 'zz'", "kind in (line, omega)"),
        (lambda: coh.FormalSheaf.of(1, []).chern_data(),
         "the zero sheaf has no Chern data record", "rank >= 1"),
        (lambda: coh.les_chase([good] * 4, 1),
         "only three-term exact sequences are chased", "len(entries) == 3"),
        (lambda: coh.les_chase([good, good, None], 5),
         "bad target position 5", "target_position in 0..2"),
        (lambda: coh.les_chase([None, good, None], 1),
         "sequence has more than one non-computable entry", "one unknown entry"),
        (lambda: bl.tensor_summands(coh.omega(0, 0), coh.omega(0, 0)),
         "Omega ⊗ Omega products have no closed form here", "at most one omega"),
        (lambda: inst.forced_vanishing(0, "x", 0, 0, 0),
         "unknown kind 'x'", "kind in (line, omega)"),
        (lambda: inst.earnest_criterion(-1),
         "a cohomology dimension cannot be negative", "h2 >= 0"),
        (lambda: inst.curve_resolution(0, "zz"),
         "unknown curve class 'zz'", "curve_class in (xif, ff)"),
        (lambda: inst.curve_info(0, "zz"),
         "unknown curve class 'zz'", "curve_class in (xif, ff)"),
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
