"""How a verify suite counts its cases and words its failures."""

import ast
import string
from pathlib import Path

import pytest

from scrollcalc import chow, cohomology, verification
from scrollcalc.cohomology import FormalSheaf, line

SOURCE = Path(verification.__file__).read_text(encoding="utf-8")


class _Unprintable:
    """A check argument that fails the test if its text is ever built."""

    def __format__(self, spec):
        raise AssertionError("formatted on a passing case")

    def __repr__(self):
        raise AssertionError("repr taken on a passing case")

    __str__ = __repr__


def test_check_formats_its_message_only_when_the_case_fails():
    r = verification.SuiteResult("s")
    r.check(True, "at {} and {!r}", _Unprintable(), _Unprintable())
    assert (r.cases, r.failures) == (1, [])
    with pytest.raises(AssertionError, match="formatted on a passing case"):
        r.check(False, "at {}", _Unprintable())


def test_check_failure_text_equals_the_f_string():
    e, a, b, name = 2, -3, 10, "twisted Euler"
    sheaf = FormalSheaf.of(e, [(line(a, b), 2)])
    r = verification.SuiteResult("s")
    r.check(False, "line duality at {}", (e, a, b))
    r.check(False, "delta_H({},{},{})", e, a, b)
    r.check(False, "chi additivity of {} at {}", name, (e, a, b))
    r.check(False, "chi_rr disagrees with cohomology on {}", sheaf)
    r.check(False, "{!r} at {:>4}", name, a)
    assert r.failures == [
        f"line duality at {(e,a,b)}",
        f"delta_H({e},{a},{b})",
        f"chi additivity of {name} at {(e,a,b)}",
        f"chi_rr disagrees with cohomology on {sheaf}",
        f"{name!r} at {a:>4}",
    ]
    # the report keeps its four fields: the CLI's JSON is ``vars`` of it
    assert vars(r) == {"name": "s", "cases": 5, "failures": r.failures, "findings": []}


def _check_calls():
    for node in ast.walk(ast.parse(SOURCE)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "check"):
            yield node


def test_every_check_passes_a_template_and_its_values():
    # A string literal as the message (no f-string, no ``.format(...)`` call)
    # keeps the passing path free of string work; its fields match the
    # values passed, so a failing case formats without error.
    calls = list(_check_calls())
    assert calls
    for call in calls:
        where = f"line {call.lineno}"
        message = call.args[1]
        assert isinstance(message, ast.Constant) and type(message.value) is str, where
        fields = [f for _, f, _, _ in string.Formatter().parse(message.value) if f is not None]
        assert all(f == "" for f in fields), where  # automatic numbering only
        assert len(fields) == len(call.args) - 2, where


def test_no_suite_spells_its_own_name():
    # ``_suite`` names each result after its function (the CLI, the golden
    # report and the benchmark read that name), so no literal spells one.
    literals = {n.value for n in ast.walk(ast.parse(SOURCE)) if isinstance(n, ast.Constant)}
    names = [f.__name__.replace("_", "-") for f in verification.ALL_SUITES]
    assert len(names) == 18 and literals.isdisjoint(names)


def test_a_bare_suite_has_no_wrapped_attribute():
    # A wrapper put on from outside (the benchmark's tracer) is told apart
    # from a bare suite by ``__wrapped__``, so ``_suite`` must not set it.
    for f in verification.ALL_SUITES:
        assert not hasattr(f, "__wrapped__"), f.__name__
        assert f.__module__ == "scrollcalc.verification" and f.__qualname__ == f.__name__
    assert verification.chow_riemann_roch_cross.__doc__.startswith("Twisted Riemann-Roch")


def _count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


def test_the_two_heaviest_suites_keep_their_grids(monkeypatch):
    # A speed-up must not come from a smaller grid: every closed-form value
    # of the (alpha, beta) box, every probe, every sequence is still made.
    counts = {}
    for name in ("chi_instanton", "twist_chern", "chi_rr"):
        _count_calls(monkeypatch, chow, name, counts)
    _count_calls(monkeypatch, cohomology, "chi_alternating", counts)
    verification.chow_riemann_roch_cross(verification.DEFAULT_SEED)
    verification.coh_chi_additivity(verification.DEFAULT_SEED)
    assert counts == {
        "chi_instanton": 214_326,  # 6 scrolls x 21 x 21 twists x 81 (alpha, beta)
        "twist_chern": 18_522,  # the same 2,646 twists x 7 probes
        "chi_rr": 18_822,  # those, and 300 random sheaves
        "chi_alternating": 4_056,  # 6 x 13 x 13 twists x 4 sequences
    }


# Each suite's case count, which may only grow: a speed-up must not come from
# a smaller grid, and the benchmark counts a ``verify`` run of fewer than
# 31,670 cases as incorrect.
CASES_AT_LEAST = {
    "chow-ring-axioms": 1080,
    "chow-degree-identities": 63,
    "chow-slope-oracle": 3094,
    "chow-riemann-roch-cross": 5592,
    "coh-serre-duality": 3087,
    "coh-chi-additivity": 4056,
    "coh-omega-consistency": 1759,
    "coh-nonnegativity": 4032,
    "beilinson-orthogonality": 18,
    "beilinson-strongness": 90,
    "beilinson-monads": 1308,
    "beilinson-general-monad": 756,
    "instanton-charge-ulrich": 1404,
    "instanton-stability-region": 3087,
    "instanton-ext-grr": 854,
    "instanton-modification": 390,
    "instanton-existence-vs-monad": 347,
    "serialization-roundtrip": 1000,
}


def test_no_suite_loses_cases(verify_results):
    cases = {r.name: r.cases for r in verify_results}
    assert cases.keys() == CASES_AT_LEAST.keys()
    assert {n: c for n, c in cases.items() if c < CASES_AT_LEAST[n]} == {}
    assert sum(cases.values()) >= 31_670
