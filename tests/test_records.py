"""Record semantics: validation, immutability, serialization, import cost."""

import itertools
import json
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scrollcalc import beilinson as bl
from scrollcalc import chow
from scrollcalc import cohomology as coh
from scrollcalc import instanton as inst
from scrollcalc.chow import ChernData, ChowClass
from scrollcalc.errors import Inadmissible


def test_chern_data_checks():
    c1, c2, c3 = chow.divisor(1, 0, 0), ChowClass(1, xif=2, ff=3), chow.zero(1)
    assert ChernData(2, c1, c2, c3) == (2, c1, c2, c3)
    assert ChernData(rank=2, c1=c1, c2=c2, c3=c3) == chow.instanton_chern(1, 2, 3)
    for rank in (0, -1):
        with pytest.raises(ValueError, match="^rank must be positive$"):
            ChernData(rank, c1, c2, c3)
    bad = {1: ChowClass(1, one=1, f=1), 2: ChowClass(1, xi=1), 3: ChowClass(1, ff=1)}
    for i, cls in bad.items():
        args = [c1, c2, c3]
        args[i - 1] = cls
        with pytest.raises(ValueError) as info:
            ChernData(2, *args)
        assert info.type is Inadmissible
        assert str(info.value) == f"c{i} is not homogeneous of codimension {i}"
        assert info.value.bound == f"c{i} homogeneous of codimension {i}"
    for args in ((ChowClass(2, f=1), c2, c3), (c1, c2, chow.zero(0))):
        with pytest.raises(Inadmissible, match="^Chern classes live on different"):
            ChernData(2, *args)


@pytest.mark.parametrize("args, message, bound", [
    ((True, 5, chow.zero(1), chow.zero(1)), "expected an int, got True", "type(value) is int"),
    ((2, chow.zero(1), None, chow.zero(2)), "c2 None is not a ChowClass", "c2 is a ChowClass"),
    ((2, ChowClass(1, one=1), chow.zero(2), chow.zero(1)),
     "Chern classes live on different scrolls", "same e"),
    ((2, chow.zero(1), ChowClass(1, xi=1), ChowClass(1, ff=1)),
     "c2 is not homogeneous of codimension 2", "c2 homogeneous of codimension 2"),
])
def test_chern_data_checks_in_order(args, message, bound):
    # Each input breaks two rules; the first in the order rank, types,
    # scroll, homogeneity (and c1 before c2 before c3) is the one named.
    with pytest.raises(Inadmissible) as info:
        ChernData(*args)
    assert (str(info.value), info.value.bound) == (message, bound)


def test_instanton_params_check():
    assert inst.InstantonParams(0, 0, 0) == (0, 0, 0)
    for args in ((-1, 0, 0), (-7, 3, 2)):
        with pytest.raises(Inadmissible) as info:
            inst.InstantonParams(*args)
        assert str(info.value) == "the scroll parameter e must be non-negative"
        assert info.value.bound == "e >= 0"
    with pytest.raises(Inadmissible):
        inst.InstantonParams(e=-1, alpha=0, beta=0)


def test_replace_and_make_run_the_checks():
    data = chow.instanton_chern(1, 2, 3)
    assert data._replace(c3=chow.zero(1)) == data
    assert ChernData._make(data) == data
    with pytest.raises(ValueError, match="^rank must be positive$"):
        data._replace(rank=0)
    with pytest.raises(ValueError, match="^c1 is not homogeneous"):
        ChernData._make([2, ChowClass(1, one=1), data.c2, data.c3])
    p = inst.InstantonParams(1, 2, 0)
    assert p._replace(beta=4) == inst.InstantonParams._make([1, 2, 4])
    for build in (lambda: inst.InstantonParams._make([-1, 0, 0]), lambda: p._replace(e=-1)):
        with pytest.raises(Inadmissible) as info:
            build()
        assert info.value.bound == "e >= 0"
    x = ChowClass(1, one=1, xi=2)
    assert x._replace(f=3) == ChowClass._make([1, 1, 2, 3, 0, 0, 0]) == ChowClass(1, 1, 2, 3)
    assert type(x._replace(f=3)) is ChowClass
    for build in (lambda: x._replace(xi=2.5), lambda: x._replace(e="1"),
                  lambda: ChowClass._make([1, 0, 0, 0, 0, 0, True])):
        with pytest.raises(Inadmissible) as info:
            build()
        assert info.value.bound == "type(value) is int"
    s = coh.omega(1, -2)
    assert s._replace(kind="line", a=3) == coh.Summand._make(["line", 3, -2]) == coh.line(3, -2)
    assert type(s._replace(b=0)) is coh.Summand
    for build, bound in (
        (lambda: s._replace(kind="zz"), "kind in (line, omega)"),
        (lambda: coh.Summand._make(["zz", 0, 0]), "kind in (line, omega)"),
        (lambda: s._replace(a=1.0), "type(value) is int"),
        (lambda: coh.Summand._make(["line", 0, True]), "type(value) is int"),
    ):
        with pytest.raises(Inadmissible) as info:
            build()
        assert info.value.bound == bound
    sheaf = coh.FormalSheaf.of(1, [(s, 2), (coh.line(0, 0), 1)])
    assert sheaf._replace(e=2) == coh.FormalSheaf._make([2, sheaf.terms])
    assert sheaf._replace(terms=((s, 1), (s, 1))).terms == ((s, 2),)
    assert type(sheaf._replace(e=2)) is coh.FormalSheaf
    for build, bound in (
        (lambda: sheaf._replace(e=1.5), "type(value) is int"),
        (lambda: coh.FormalSheaf._make([True, sheaf.terms]), "type(value) is int"),
        (lambda: sheaf._replace(terms=((tuple(s), 1),)), "summand is a Summand"),
        (lambda: coh.FormalSheaf._make([1, ((s, -1),)]), "mult >= 0"),
        (lambda: coh.FormalSheaf._make([1, ((s, 1.0),)]), "type(value) is int"),
    ):
        with pytest.raises(Inadmissible) as info:
            build()
        assert info.value.bound == bound
    m, g = bl.monad_shape(1, 1, 2, 1), bl.monad_general(1, 2, 5, 1, 2, 1)
    assert m._replace(alpha=5) == bl.Monad._make([*m[:1], 5, *m[2:]])
    assert bl.Monad._make(g) == g and type(m._replace(beta=0)) is bl.Monad
    on_x2 = coh.FormalSheaf.of(2, [(s, 1)])
    for build, message, bound in (
        (lambda: m._replace(A="x"), "A is not a FormalSheaf on X_1: 'x'",
         "sheaves are FormalSheafs on X_e"),
        (lambda: m._replace(B=on_x2), f"B is not a FormalSheaf on X_1: {on_x2!r}",
         "sheaves are FormalSheafs on X_e"),
        (lambda: g._replace(c_tail=()), "c_tail is not a FormalSheaf on X_1: ()",
         "sheaves are FormalSheafs on X_e"),
        (lambda: m._replace(e=2), f"A is not a FormalSheaf on X_2: {m.A!r}",
         "sheaves are FormalSheafs on X_e"),
        (lambda: m._replace(alpha=1.5), "expected an int, got 1.5", "type(value) is int"),
        (lambda: m._replace(e=-1), "the scroll parameter e must be non-negative", "e >= 0"),
        (lambda: bl.Monad._make([*m[:2], True, *m[3:]]),
         "expected an int, got True", "type(value) is int"),
        (lambda: m._replace(variant=True), "variant True is not one of (1, 2, 3, None)",
         "variant in (1, 2, 3, None)"),
        (lambda: g._replace(extra=[1, 2, 1]), "extra [1, 2, 1] is not three ints",
         "extra is None or 3 ints"),
        (lambda: g._replace(extra=(1, 2)), "extra (1, 2) is not three ints",
         "extra is None or 3 ints"),
        (lambda: g._replace(extra=(1, 2, "1")), "expected an int, got '1'", "type(value) is int"),
    ):
        with pytest.raises(Inadmissible) as info:
            build()
        assert (str(info.value), info.value.bound) == (message, bound)


def _records():
    m = bl.monad_shape(1, 1, 2, 1)
    return [
        chow.instanton_chern(1, 2, 3),
        inst.InstantonParams(1, 2, 0),
        bl.collection(1, 2)[0],
        bl.orthogonality_check(1, 1),
        bl.strongness_check(1),
        bl.beilinson_table(1, 1, 2),
        m,
        bl.monad_consistency(m),
        coh.FormalSheaf.of(1, [(coh.line(1, 0), 2)]),
        inst.curve_info(1, "xif"),
        inst.existence_report(inst.InstantonParams(1, 2, 0)),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_existence_report_dict_order_and_roundtrip():
    keys = ["status", "ext1", "ext2", "ext3", "earnest", "route"]
    for args in ((1, 2, 0), (2, 0, 4), (5, 6, 0), (0, -2, 0)):
        rep = inst.existence_report(inst.InstantonParams(*args))
        data = rep.to_dict()
        assert list(data) == keys
        assert inst.ExistenceReport.from_dict(json.loads(json.dumps(data))) == rep


def test_monad_json_roundtrip():
    monads = [bl.monad_shape(1, 1, 2, v) for v in (1, 2)]
    monads += [bl.monad_shape(2, 0, 5, 3), bl.monad_general(1, 2, 5, 1, 2, 1)]
    for m in monads:
        back = bl.Monad.from_dict(json.loads(json.dumps(m.to_dict())))
        assert back == m
        assert type(back.A) is coh.FormalSheaf
        assert back.extra is None or type(back.extra) is tuple


def test_decoders_reject_unknown_kinds():
    term = {"kind": "zz", "a": 0, "b": 0, "mult": 1}
    data = bl.monad_shape(1, 1, 2, 1).to_dict()
    data["B"] = data["B"] + [term]
    for decode in (
        lambda: coh.FormalSheaf.from_dict({"e": 0, "terms": [term]}),
        lambda: bl.Monad.from_dict(data),
    ):
        with pytest.raises(Inadmissible) as info:
            decode()
        assert str(info.value) == "unknown kind 'zz'"
        assert info.value.bound == "kind in (line, omega)"


def test_decoders_reject_malformed_payloads():
    # A missing key, a bad integer, an extra key or e < 0 is refused with a
    # bound; an Inadmissible raised inside a decoder passes through untouched.
    bad_int = {"e": 0, "terms": [{"kind": "line", "a": "x", "b": 0, "mult": 1}]}
    report = inst.existence_report(inst.InstantonParams(2, 3, 0)).to_dict()
    monad = bl.monad_shape(1, 1, 2, 1).to_dict()
    cases = [
        (lambda: coh.FormalSheaf.from_dict({"e": 0}),
         "malformed FormalSheaf payload: KeyError('terms')", "FormalSheaf.to_dict() layout"),
        (lambda: coh.FormalSheaf.from_dict(bad_int),
         "expected an int, got 'x'", "type(value) is int"),
        (lambda: bl.Monad.from_dict({"e": 0}),
         "malformed Monad payload: KeyError('alpha')", "Monad.to_dict() layout"),
        (lambda: ChowClass.from_dict({"e": 0}),
         "malformed ChowClass payload: KeyError('coeffs')", "ChowClass.to_dict() layout"),
        (lambda: inst.ExistenceReport.from_dict({**report, "x": 1}),
         "malformed ExistenceReport payload: TypeError(\"ExistenceReport.__new__() got an"
         " unexpected keyword argument 'x'\")", "ExistenceReport.to_dict() layout"),
        (lambda: bl.Monad.from_dict({**monad, "e": -1}),
         "the scroll parameter e must be non-negative", "e >= 0"),
    ]
    for decode, message, bound in cases:
        with pytest.raises(Inadmissible) as info:
            decode()
        assert (str(info.value), info.value.bound) == (message, bound)
    # ChowClass and FormalSheaf accept any e, like their constructors.
    assert ChowClass.from_dict({"e": -1, "coeffs": {"xi": 1}}) == ChowClass(-1, xi=1)
    assert coh.FormalSheaf.from_dict({"e": -1, "terms": []}) == coh.FormalSheaf.of(-1, [])


# A float, a bool or a string where an int belongs, an unknown key, an unknown
# status or variant: each is refused with a bound, never coerced or dropped.
_SHEAF = {"e": 0, "terms": [{"kind": "line", "a": 1.5, "b": True, "mult": 1}]}
_STATUSES = "('exists', 'exists_pullback', 'inadmissible', 'unknown')"
_VARIANTS = "(1, 2, 3, None)"


@pytest.mark.parametrize("decode, message, bound", [
    pytest.param(lambda: coh.FormalSheaf.from_dict(_SHEAF),
                 "expected an int, got 1.5", "type(value) is int", id="sheaf-float"),
    pytest.param(lambda: coh.FormalSheaf.from_dict(
                     {**_SHEAF, "terms": [{**_SHEAF["terms"][0], "a": 1}]}),
                 "expected an int, got True", "type(value) is int", id="sheaf-bool"),
    pytest.param(lambda: ChowClass.from_dict({"e": 0, "coeffs": {"xi": 2, "zz": 5}}),
                 "unknown payload keys ['zz']", "keys in ('1', 'xi', 'f', 'xif', 'ff', 'pt')",
                 id="chow-unknown-key"),
    pytest.param(lambda: ChowClass.from_dict({"e": 0.9, "coeffs": {"xi": 2}}),
                 "expected an int, got 0.9", "type(value) is int", id="chow-float"),
    pytest.param(lambda: inst.ExistenceReport.from_dict({"status": 5, "ext1": "x"}),
                 f"status 5 is not one of {_STATUSES}", f"status in {_STATUSES}",
                 id="existence-status"),
    pytest.param(lambda: inst.ExistenceReport.from_dict({"status": "exists", "ext1": "x"}),
                 "expected an int, got 'x'", "type(value) is int", id="existence-ext1"),
    pytest.param(lambda: bl.Monad.from_dict({"e": 1, "alpha": 1, "beta": 2}),
                 "malformed Monad payload: KeyError('A')", "Monad.to_dict() layout",
                 id="monad-without-sheaves"),
    pytest.param(lambda: bl.Monad.from_dict({**bl.monad_shape(1, 1, 2, 1).to_dict(),
                                             "variant": "q"}),
                 f"variant 'q' is not one of {_VARIANTS}", f"variant in {_VARIANTS}",
                 id="monad-variant"),
    pytest.param(lambda: bl.Monad.from_dict({**bl.monad_shape(1, 1, 2, 1).to_dict(),
                                             "variant": True}),
                 f"variant True is not one of {_VARIANTS}", f"variant in {_VARIANTS}",
                 id="monad-variant-bool"),
])
def test_decoders_refuse_to_coerce(decode, message, bound):
    with pytest.raises(Inadmissible) as info:
        decode()
    assert (str(info.value), info.value.bound) == (message, bound)


_LINE = {"kind": "line", "a": 0, "b": 0}
_ROW_MESSAGE = "repeated, out-of-order or zero-mult row"
_ROW_BOUND = "summands strictly increasing, mult >= 1"
_DOUBLED_A = bl.monad_shape(1, 1, 2, 1).to_dict()
_DOUBLED_A["A"] *= 2
_TAILED = bl.monad_general(0, 0, 3, 1, 1, 1).to_dict()  # A, B, C and the tail C1


def _out_of_order(rows):
    """``rows`` and two more distinct rows, a summand above every other and
    then one below: sorted, they would be a sheaf's terms."""
    return [*rows, {"kind": "omega", "a": 99, "b": 0, "mult": 1}, {**_LINE, "a": -99, "mult": 1}]


# A payload that to_dict never writes is refused, not merged or dropped.
@pytest.mark.parametrize("decode, message, bound", [
    pytest.param(lambda: coh.FormalSheaf.from_dict(
                     {"e": 0, "terms": [{**_LINE, "mult": 1}, {**_LINE, "mult": 2}]}),
                 _ROW_MESSAGE, _ROW_BOUND, id="sheaf-repeated"),
    pytest.param(lambda: coh.FormalSheaf.from_dict({"e": 0, "terms": [{**_LINE, "mult": 0}]}),
                 _ROW_MESSAGE, _ROW_BOUND, id="sheaf-mult-0"),
    pytest.param(lambda: coh.FormalSheaf.from_dict({"e": 0, "terms": [{**_LINE, "mult": -1}]}),
                 "negative multiplicity -1 for Summand(kind='line', a=0, b=0)", "mult >= 0",
                 id="sheaf-mult-negative"),
    pytest.param(lambda: bl.Monad.from_dict(_DOUBLED_A),
                 _ROW_MESSAGE, _ROW_BOUND, id="monad-doubled-A"),
    pytest.param(lambda: coh.FormalSheaf.from_dict({"e": 0, "terms": _out_of_order([])}),
                 _ROW_MESSAGE, _ROW_BOUND, id="sheaf-out-of-order"),
    *(pytest.param(lambda key=key: bl.Monad.from_dict(
          {**_TAILED, key: _out_of_order(_TAILED[key])}),
          _ROW_MESSAGE, _ROW_BOUND, id=f"monad-out-of-order-{key}")
      for key in ("A", "B", "C", "C1")),
    pytest.param(lambda: inst.ExistenceReport.from_dict(
                     {"status": "inadmissible", "ext1": 5, "earnest": True, "route": "pullback"}),
                 "inadmissible ext1 5 is not one of (None,)", "inadmissible ext1 in (None,)",
                 id="existence-inadmissible-with-fields"),
    pytest.param(lambda: inst.ExistenceReport.from_dict({"status": "unknown", "earnest": False}),
                 "unknown earnest False is not one of (None,)", "unknown earnest in (None,)",
                 id="existence-unknown-earnest"),
    pytest.param(lambda: inst.ExistenceReport.from_dict(
                     {"status": "exists", "ext2": 0, "ext3": 0, "earnest": True,
                      "route": "hartshorne-serre"}),
                 "expected an int, got None", "type(value) is int", id="existence-no-ext1"),
    pytest.param(lambda: inst.ExistenceReport.from_dict(
                     {"status": "exists", "ext1": 3, "ext2": 1, "ext3": 0, "earnest": True,
                      "route": "hartshorne-serre"}),
                 "exists ext2 1 is not one of (0,)", "exists ext2 in (0,)", id="existence-ext2"),
    pytest.param(lambda: inst.ExistenceReport.from_dict(
                     {"status": "exists", "ext1": 3, "ext2": 0, "ext3": 0, "earnest": 0,
                      "route": "hartshorne-serre"}),
                 "exists earnest 0 is not one of (True, False, None)",
                 "exists earnest in (True, False, None)", id="existence-earnest-0"),
    pytest.param(lambda: inst.ExistenceReport.from_dict(
                     {"status": "exists_pullback", "ext1": 3, "earnest": True,
                      "route": "hartshorne-serre"}),
                 "exists_pullback route 'hartshorne-serre' is not one of ('pullback',)",
                 "exists_pullback route in ('pullback',)", id="existence-pullback-route"),
])
def test_decoders_refuse_payloads_to_dict_never_writes(decode, message, bound):
    with pytest.raises(Inadmissible) as info:
        decode()
    assert (str(info.value), info.value.bound) == (message, bound)


def _reference_sheaf_decode(data):
    """``FormalSheaf.from_dict`` through the checked route: every row goes
    through ``FormalSheaf.of``, and rows that are not its terms as they stand
    are refused."""
    pairs = [(coh.Summand(t["kind"], t["a"], t["b"]), t["mult"]) for t in data["terms"]]
    sheaf = coh.FormalSheaf.of(data["e"], pairs)
    if sheaf.terms != tuple(pairs):
        raise Inadmissible(_ROW_MESSAGE, _ROW_BOUND)
    return sheaf


def _decoded(decode, data):
    """The decoded sheaf with the type of each part, or the refusal's (message, bound)."""
    try:
        sheaf = decode(data)
    except Inadmissible as exc:
        return str(exc), exc.bound
    return sheaf, type(sheaf), type(sheaf.terms), [tuple(map(type, t)) for t in sheaf.terms]


_POOL = [coh.Summand(kind, a, b) for kind in coh.KINDS for a in (-1, 0, 2) for b in (-1, 0, 3)]


@st.composite
def _sheaf_rows(draw):
    """Rows in to_dict's order, or shuffled or repeated; mults >= 1, or any of
    zero, negative and bool; an int e, or a bool, float, string or None."""
    rows = draw(st.lists(st.sampled_from(_POOL), max_size=5))
    distinct = sorted(set(rows))
    summands = draw(st.one_of(st.just(rows), st.just(distinct), st.permutations(distinct)))
    mult = draw(st.sampled_from([st.integers(1, 9), st.one_of(st.integers(-2, 3), st.booleans())]))
    e = draw(st.one_of(st.integers(-2, 6), st.sampled_from([True, 1.0, 2.5, "1", None])))
    return {"e": e, "terms": [{"kind": s.kind, "a": s.a, "b": s.b, "mult": draw(mult)}
                              for s in summands]}


@given(data=_sheaf_rows())
@example(data={"e": 1, "terms": [{"kind": "omega", "a": 0, "b": 0, "mult": 2},
                                 {"kind": "line", "a": 0, "b": 0, "mult": 1}]})  # out of order
def test_sheaf_decoder_answers_as_the_checked_route(data):
    assert _decoded(coh.FormalSheaf.from_dict, data) == _decoded(_reference_sheaf_decode, data)


def test_every_existence_report_decodes_to_itself():
    statuses, earnest = set(), set()
    for e, alpha, beta in itertools.product(range(5), range(-1, 7), range(-1, 9)):
        rep = inst.existence_report(inst.InstantonParams(e, alpha, beta))
        assert inst.ExistenceReport.from_dict(json.loads(json.dumps(rep.to_dict()))) == rep
        statuses.add(rep.status)
        if rep.status == "exists":
            earnest.add(rep.earnest)
    assert statuses == {"exists", "exists_pullback", "inadmissible", "unknown"}
    assert earnest == {True, False, None}


def test_cli_import_skips_dataclasses_inspect_and_fractions():
    # Measured against the modules this interpreter has before the import,
    # so that whatever site hooks load is not charged to the package.  The
    # package and the CLI load no compute module until a subcommand runs.
    probe = (
        "import sys; before = set(sys.modules); import scrollcalc; "
        "print(' '.join(sorted(set(sys.modules) - before))); import scrollcalc.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    package, cli = (set(line.split()) for line in proc.stdout.splitlines())
    assert package == {"scrollcalc"}
    assert {m for m in cli if m.startswith("scrollcalc")} == {
        "scrollcalc", "scrollcalc.cli", "scrollcalc.errors"
    }
    assert not cli & {"dataclasses", "inspect", "fractions", "json", "argparse"}


def test_package_exports_resolve_on_first_use():
    import scrollcalc

    assert scrollcalc.ChowClass is ChowClass and scrollcalc.beilinson is bl
    assert scrollcalc.ExistenceReport is inst.ExistenceReport
    namespace = {}
    exec("from scrollcalc import *", namespace)
    assert {name: namespace[name] for name in scrollcalc.__all__} == {
        name: getattr(scrollcalc, name) for name in scrollcalc.__all__
    }
    assert namespace["cohomology"] is coh and namespace["Summand"] is coh.Summand
    assert not hasattr(scrollcalc, "nope")
    with pytest.raises(AttributeError, match="nope"):
        getattr(scrollcalc, "nope")
