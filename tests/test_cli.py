"""Command-line behavior: output formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from scrollcalc import beilinson, chow, cli, instanton, verification
from scrollcalc.beilinson import Monad, monad_shape
from scrollcalc.chow import ChowClass
from scrollcalc.cohomology import FormalSheaf, line, omega
from scrollcalc.errors import Inadmissible
from scrollcalc.instanton import ExistenceReport, InstantonParams, existence_report

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "scrollcalc", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(args, capsys):
    code = cli.main([*args, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_chi_line_bundle(capsys):
    assert cli.main(["chi", "--e", "0", "--a", "2", "--b", "2"]) == 0
    assert "18" in capsys.readouterr().out


def test_chi_instanton(capsys):
    code, data = run_json(
        ["chi", "--e", "1", "--a", "-1", "--b", "0", "--alpha", "3", "--beta", "2"],
        capsys,
    )
    assert code == 0 and data["chi"] == -3


def test_chow_subcommand_json(capsys):
    code, data = run_json(["chow", "--e", "2", "--a", "1", "--b", "-2"], capsys)
    assert code == 0
    assert data["delta_H"] == 1
    k = ChowClass.from_dict(data["constants"]["canonical"])
    assert k == ChowClass(2, xi=-2, f=-1)
    assert ChowClass.from_dict(data["divisor"]) == ChowClass(2, xi=1, f=-2)


def test_coh_subcommand(capsys):
    code, data = run_json(["coh", "--e", "1", "--a", "1", "--b", "0"], capsys)
    assert code == 0 and data["h"] == [4, 0, 0, 0] and data["chi"] == 4
    code, data = run_json(["coh", "--e", "2", "--a", "0", "--b", "0", "--omega"], capsys)
    assert code == 0 and data["h"] == [0, 1, 0, 0]
    sheaf = FormalSheaf.from_dict(data["sheaf"])
    assert sheaf.rank() == 2


def test_monad_json_checks(capsys):
    code, data = run_json(
        ["monad", "--e", "1", "--alpha", "1", "--beta", "2", "--variant", "1"], capsys
    )
    assert code == 0
    assert data["checks"] == {"rank": True, "c1": True, "c2": True, "chi": True}
    assert {t["kind"] for t in data["B"]} == {"line", "omega"}
    assert Monad.from_dict(data) == monad_shape(1, 1, 2, 1)


def test_monad_golden_display():
    code, out, _ = run_cli(
        ["monad", "--e", "1", "--alpha", "1", "--beta", "2", "--variant", "1"]
    )
    assert code == 0
    assert out == (GOLDEN / "monad_e1_v1.txt").read_text()


def test_table_golden_display():
    code, out, _ = run_cli(
        ["table", "--e", "1", "--alpha", "1", "--beta", "2", "--variant", "1"]
    )
    assert code == 0
    assert out == (GOLDEN / "table_e1_v1.txt").read_text()


def test_existence_subcommand(capsys):
    code, data = run_json(["existence", "--e", "2", "--alpha", "3", "--beta", "0"], capsys)
    assert code == 0
    assert data["status"] == "exists" and data["ext1"] == 26
    assert ExistenceReport.from_dict(data) == existence_report(InstantonParams(2, 3, 0))


def test_stability_subcommand(capsys):
    code, data = run_json(
        ["stability", "--e", "0", "--window", "0", "0", "0", "0"], capsys
    )
    assert code == 0 and data["region"] == [[0, 0]]


def test_curves_subcommand(capsys):
    code, data = run_json(["curves", "--e", "2"], capsys)
    assert code == 0
    by_class = {c["class"]: c for c in data["curves"]}
    assert by_class["xif"]["degree_H"] == 3
    assert by_class["ff"]["hilbert_dim"] == 2


def test_inadmissible_parameters_exit_2():
    code, out, err = run_cli(
        ["monad", "--e", "0", "--alpha", "0", "--beta", "0", "--variant", "1"]
    )
    assert code == 2
    assert "violated bound" in err


def test_bad_flags_exit_2():
    code, _, _ = run_cli(["monad", "--e", "1", "--alpha", "1", "--beta", "1", "--variant", "9"])
    assert code == 2
    code, _, _ = run_cli(["nonsense"])
    assert code == 2


@contextlib.contextmanager
def _digit_limit(digits):
    """CPython's int-to-str digit limit set to ``digits`` in the block and
    restored after it, whatever PYTHONINTMAXSTRDIGITS says; before Python
    3.10.7, which has no limit, the block runs as it is."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv, prog, message",
    [
        (["monad", "--e", "1", "--alpha", "1", "--beta", "2", "--variant", "9"],
         "scrollcalc monad", "argument --variant: invalid choice: 9 (choose from 1, 2, 3)"),
        (["chow", "--e", "1x"], "scrollcalc chow", "argument --e: invalid int value: '1x'"),
        (["chow", "--e", "1", "--bogus"], "scrollcalc", "unrecognized arguments: --bogus"),
        (["coh", "--a", "1", "--b", "0"], "scrollcalc coh",
         "the following arguments are required: --e"),
        (["nonsense"], "scrollcalc", "argument command: invalid choice: 'nonsense' "),
        ([], "scrollcalc", "the following arguments are required: command"),
        (["chow", "--e", "9" * 5000], "scrollcalc chow", "argument --e: invalid int value:"),
    ],
)
def test_malformed_flags_name_the_bound(argv, prog, message, capsys):
    # argparse's message, bound by the help of the parser that refused the flags
    with _digit_limit(4300):  # "9" * 5000 is refused whatever the environment's limit
        assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    head, sep, bound = err.rpartition(" [violated bound: ")
    assert (out, sep) == ("", " [violated bound: ")
    assert head.startswith(f"error: {message}") and "\n" not in head
    assert bound == f"flags of '{prog} --help']\n"


def _subparsers(parser):
    """{subcommand: its parser} of a ``cli.build_parser`` result."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_partial_parser_matches_the_full_one(name, capsys):
    # main builds argparse for --help, and prints its full text with exit 0
    full = cli.build_parser()
    assert list(_subparsers(full)) == [
        "chow", "coh", "chi", "monad", "table", "stability", "existence", "curves", "verify"
    ]
    for argv, parser in (([name, "--help"], _subparsers(full)[name]), (["--help"], full)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == (parser.format_help(), "")


def test_ascii_fallback():
    code, out, _ = run_cli(
        ["monad", "--e", "1", "--alpha", "1", "--beta", "2", "--ascii"]
    )
    assert code == 0
    assert "Omega" in out and "Ω" not in out and "ξ" not in out


JSON_GOLDENS = {
    "chow_e2_a1_b-2": ["chow", "--e", "2", "--a", "1", "--b", "-2"],
    "coh_e2_a-4_b2_omega": ["coh", "--e", "2", "--a", "-4", "--b", "2", "--omega"],
    "monad_e1_v1": ["monad", "--e", "1", "--alpha", "1", "--beta", "2"],
    "monad_e3_general": [
        "monad", "--e", "3", "--alpha", "4", "--beta", "5",
        "--gamma", "1", "--delta", "2", "--eta", "1",
    ],
    "table_e3_gamma_nonzero": [
        "table", "--e", "3", "--alpha", "1", "--beta", "4", "--gamma-nonzero"
    ],
    "existence_e2_a3_b0": ["existence", "--e", "2", "--alpha", "3", "--beta", "0"],
    "curves_e2": ["curves", "--e", "2"],
    "stability_e2": ["stability", "--e", "2", "--window", "-3", "3", "-3", "3"],
}


@pytest.mark.parametrize("name", sorted(JSON_GOLDENS))
def test_json_golden(name, capsys):
    assert cli.main([*JSON_GOLDENS[name], "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


NEGATIVE_E = [
    ["chow", "--e", "-1"],
    ["coh", "--e", "-1", "--a", "1", "--b", "0"],
    ["chi", "--e", "-2", "--a", "1", "--b", "0", "--alpha", "1", "--beta", "0"],
    ["monad", "--e", "-1", "--alpha", "1", "--beta", "2"],
    ["table", "--e", "-1", "--alpha", "1", "--beta", "2"],
    ["stability", "--e", "-3"],
    ["existence", "--e", "-1", "--alpha", "1", "--beta", "0"],
    ["curves", "--e", "-1"],
]


def test_bad_domain_exits_2_without_traceback(capsys):
    # Every subcommand with --e shares the e >= 0 check of InstantonParams.
    # In-process, an escaping exception would fail the test outright.
    assert sorted(a[0] for a in NEGATIVE_E) == sorted(set(cli._COMMANDS) - {"verify"})
    for args in NEGATIVE_E:
        code = cli.main(args)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == (
            "error: the scroll parameter e must be non-negative "
            "[violated bound: e >= 0]\n"
        )
    for args in (
        ["table", "--e", "1", "--alpha", "1", "--beta", "2", "--variant", "2",
         "--gamma-nonzero"],
        ["stability", "--e", "1", "--window", "5", "-5", "0", "0"],
        ["stability", "--e", "1", "--window", "0", "0", "3", "-3"],
        ["monad", "--e", "1", "--alpha", "1", "--beta", "2", "--variant", "3",
         "--gamma", "0"],
    ):
        code, _, err = run_cli(args)
        assert code == 2
        assert "violated bound" in err and "Traceback" not in err
    # the non-earnest monad is laid out for the first variant only
    code = cli.main(["monad", "--e", "1", "--alpha", "1", "--beta", "2",
                     "--variant", "2", "--delta", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith("[violated bound: variant == 1]\n")


def test_huge_stability_region_refused_in_bounded_time(capsys):
    start = time.perf_counter()
    code = cli.main(["stability", "--e", "1", "--window", "-3000", "3000", "-3000", "3000"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and elapsed < 0.5
    assert err.endswith("[violated bound: region cells <= 1000000]\n")


@pytest.mark.parametrize(
    "args",
    [
        ["coh", "--e", "1", "--a", "30000000", "--b", "0"],
        ["coh", "--e", "1", "--a", "30000000", "--b", "0", "--omega"],
        ["chi", "--e", "2", "--a", "-30000000", "--b", "7"],
        ["coh", "--e", "5", "--a", "1000000000000000000", "--b", "-3"],
    ],
)
def test_huge_twists_answer_in_bounded_time(args, capsys, rr_chi):
    start = time.perf_counter()
    code, data = run_json(args, capsys)
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < 0.5
    e, a, b = (int(args[args.index(flag) + 1]) for flag in ("--e", "--a", "--b"))
    summand = (omega if "--omega" in args else line)(a, b)
    assert data["chi"] == rr_chi(e, summand)


# One argv per subcommand whose flags are at the digit limit and whose
# answer is past it in both formats: ext1 = 6 alpha - 4, the cubic chi and
# D^3 in a, stability's 2 mu_H (JSON) and its twist's delta_H (text), both
# past the limit through e, and the xi f-curve's H-degree e + 1.
# 0 where the limit is off (PYTHONINTMAXSTRDIGITS=0) or absent (before 3.10.7).
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
NINES = "9" * DIGITS
OVERSIZED = {
    "existence": ["--e", "0", "--alpha", NINES, "--beta", "0"],
    "monad": ["--e", "0", "--alpha", NINES, "--beta", "0"],
    "table": ["--e", "0", "--alpha", NINES, "--beta", "0"],
    "coh": ["--e", "1", "--a", NINES, "--b", "0"],
    "chi": ["--e", "1", "--a", NINES, "--b", "0"],
    "chow": ["--e", "1", "--a", NINES, "--b", "0"],
    "stability": ["--e", NINES, "--window", "0", "0", "-" + NINES, "-" + NINES],
    "curves": ["--e", NINES],
}


@pytest.mark.skipif(DIGITS == 0, reason="int-to-str conversion has no digit limit")
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_an_answer_past_the_digit_limit_is_refused(name, fmt, capsys):
    assert sorted(OVERSIZED) == sorted(set(cli._COMMANDS) - {"verify"})
    argv = [name, *OVERSIZED[name], "--format", fmt]
    assert cli._read_flags(argv) is not None  # the flags are read; the answer is refused
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", (
        f"error: the answer has an integer of more than {DIGITS} digits "
        f"[violated bound: digits <= sys.get_int_max_str_digits() = {DIGITS}]\n"
    ))


@pytest.mark.skipif(DIGITS == 0, reason="int-to-str conversion has no digit limit")
def test_only_the_printed_format_meets_the_digit_limit(capsys):
    # At e = 0 only the text's delta_H of the one twist is past the limit.
    argv = ["stability", "--e", "0", "--window", "0", "0", "-" + NINES, "-" + NINES]
    assert cli.main(argv) == 2
    code, data = run_json(argv, capsys)
    assert code == 0 and data["region"] == [[0, -int(NINES)]]


def test_json_output_builds_no_text_line(monkeypatch, capsys):
    # Each text line of a stability answer calls delta_H once for its twist,
    # so a JSON answer must call it as often for 223 twists as for one.
    calls = []
    real = chow.delta_H
    monkeypatch.setattr(chow, "delta_H", lambda *args: calls.append(args) or real(*args))
    counts = {}
    for window in ("-5 -5 -5 -5", "-10 10 -10 10"):
        calls.clear()
        code, data = run_json(["stability", "--e", "1", "--window", *window.split()], capsys)
        counts[len(data["region"])] = len(calls)
    assert sorted(counts) == [1, 223] and counts[1] == counts[223]


def test_only_the_digit_limit_error_is_refused(monkeypatch):
    def handler(args):
        raise ValueError("not a conversion limit")

    monkeypatch.setitem(cli._COMMANDS, "chow", (*cli._COMMANDS["chow"][:2], handler))
    with pytest.raises(ValueError, match="not a conversion limit"):
        cli.main(["chow", "--e", "1"])


def test_the_literal_choices_are_the_tables():
    # Reading flags imports neither instanton nor beilinson, so the choices
    # are spelled in cli; they must be the curve table's rows and the variants.
    flags = {name: spec[1] for name, spec in cli._COMMANDS.items()}
    assert flags["curves"]["--curve-class"]["choices"] == tuple(
        name for name, _, _ in instanton._CURVE_DIVISORS)
    assert flags["monad"]["--variant"]["choices"] == tuple(beilinson.DUAL_PAIRS)
    assert flags["table"]["--variant"]["choices"] == tuple(beilinson.DUAL_PAIRS)


def test_curves_lists_every_row_of_the_curve_table(monkeypatch, capsys):
    # A xi^2-curve, cut by xi twice, stands for a class a later row adds.
    rows = (*instanton._CURVE_DIVISORS, ("xixi", (1, 0), (1, 0)))
    monkeypatch.setattr(instanton, "_CURVE_DIVISORS", rows)
    code, data = run_json(["curves", "--e", "2"], capsys)
    assert code == 0
    assert [c["class"] for c in data["curves"]] == ["xif", "ff", "xixi"]
    code, data = run_json(["curves", "--e", "2", "--curve-class", "ff"], capsys)
    assert [c["class"] for c in data["curves"]] == ["ff"]
    assert cli.main(["curves", "--e", "-1"]) == 2
    assert capsys.readouterr().err.endswith("[violated bound: e >= 0]\n")
    with pytest.raises(Inadmissible) as exc:
        instanton.curve_info(2, "zz")
    assert exc.value.bound == "curve_class in (xif, ff, xixi)"


PARSER = cli.build_parser()
# {subcommand: its flags but --help}
ALL_FLAGS = {name: [a for a in p._actions if a.option_strings[0] != "-h"]
             for name, p in _subparsers(PARSER).items()}
SUBCOMMAND_FLAGS = {name: flags for name, flags in ALL_FLAGS.items() if name != "verify"}
BIG = 10**18
# Window sides are at most 200 wide: a full window then renders in well under
# a second, while a near-cap one takes seconds (the cap has its own test).
WIDE = 200
# Two draws in three are small, so that most subcommands also answer.
small = st.integers(-2, 12)
flag_ints = st.integers(-BIG, BIG) | small | small
corners = st.integers(-BIG, BIG - WIDE) | small | small


@st.composite
def cli_argvs(draw):
    """A subcommand with each required flag and any optional ones: ints with
    |x| <= 10^18, a choice among the flag's choices, a switch set or not."""
    name = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    argv = [name]
    for action in SUBCOMMAND_FLAGS[name]:
        if not action.required and draw(st.booleans()):
            continue
        if action.nargs == 0:
            values = []
        elif action.choices:
            values = [draw(st.sampled_from(action.choices))]
        elif action.nargs == 4:
            a, b = draw(corners), draw(corners)
            width = st.integers(-3, WIDE)
            values = [a, a + draw(width), b, b + draw(width)]
        else:
            assert action.type is int
            values = [draw(flag_ints)]
        argv += [action.option_strings[0], *map(str, values)]
    return argv


@given(cli_argvs())
@settings(max_examples=300, deadline=1000)
def test_any_int_flags_answer_or_name_the_bound(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    event(f"{argv[0]}: exit {code}")
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert re.fullmatch(r"error: .+ \[violated bound: .+\]\n", err.getvalue())


# Each turns a canonical argv into one that _read_flags declines and argparse
# reads its own way (accepting ``+3`` or ``--e=2``) or refuses.
PERTURBATIONS = ("repeat", "abbreviate", "missing", "bad choice", "--e=2", "+3", " 4",
                 "٣", "1_0", "--", "-h", "9" * 5000)


@st.composite
def canonical_argvs(draw):
    """``(argv, groups, ints, choices)``: an argv of any subcommand that gives
    each required flag and any optional ones, in any order, in ``--flag
    value`` form; its flag groups, and the indices of its int and choice values."""
    name = draw(st.sampled_from(sorted(ALL_FLAGS)))
    argv, groups, ints, choices = [name], [], [], []
    for action in draw(st.permutations(ALL_FLAGS[name])):
        if not action.required and draw(st.booleans()):
            continue
        start = len(argv)
        argv.append(action.option_strings[0])
        if action.choices:
            choices.append(len(argv))
            argv.append(str(draw(st.sampled_from(action.choices))))
        elif action.nargs != 0:
            ints += range(len(argv), len(argv) + (action.nargs or 1))
            argv += [str(draw(flag_ints)) for _ in range(action.nargs or 1)]
        groups.append(argv[start:])
    return argv, groups, ints, choices


def _perturbed(draw, canonical, perturbation):
    """A copy of a ``canonical_argvs`` argv with one of PERTURBATIONS."""
    argv, groups, ints, choices = canonical
    argv = list(argv)
    at = draw(st.integers(1, len(argv)))
    if perturbation == "repeat":
        argv += draw(st.sampled_from(groups + [["--ascii"]])) * 2
    elif perturbation == "abbreviate":
        # a prefix of four or more characters is no flag itself (--a is one)
        flag = draw(st.sampled_from(
            [a.option_strings[0] for a in ALL_FLAGS[argv[0]] if len(a.option_strings[0]) > 4]))
        argv.insert(at, flag[:draw(st.integers(4, len(flag) - 1))])
    elif perturbation == "missing":  # the required --e, or verify's --seed value
        if "--e" in argv:
            del argv[argv.index("--e"):argv.index("--e") + 2]
        else:
            argv.append("--seed")
    elif perturbation == "bad choice":
        if choices:
            argv[draw(st.sampled_from(choices))] = "9"
        else:
            argv += ["--format", "9"]
    elif perturbation in ("--e=2", "--", "-h"):
        argv.insert(at, perturbation)
    elif ints:
        argv[draw(st.sampled_from(ints))] = perturbation
    else:
        argv += ["--seed", perturbation]  # verify without --seed
    return argv


@given(st.data())
@settings(max_examples=200)
def test_read_flags_agrees_with_argparse(data):
    canonical = data.draw(canonical_argvs())
    args = cli._read_flags(canonical[0])
    assert args is not None and vars(args) == vars(PARSER.parse_args(canonical[0]))
    with _digit_limit(4300):  # "9" * 5000 is past the limit in every environment
        for perturbation in PERTURBATIONS:
            assert cli._read_flags(_perturbed(data.draw, canonical, perturbation)) is None


def test_closed_pipe_exits_141_without_traceback():
    # The reader takes one line and closes the pipe while the output (several
    # MB) is still being written.
    with subprocess.Popen(
        [sys.executable, "-m", "scrollcalc", "stability", "--e", "1",
         "--window", "-300", "300", "-300", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"h0-test twists on X_1")
        proc.stdout.close()
        assert (proc.wait(), proc.stderr.read()) == (141, b"")


def test_console_script_exits_141_on_a_closed_pipe():
    # Exactly what the script generated from ``[project.scripts]`` runs,
    # piped into ``head -1``.
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, entry = re.search(r'^scrollcalc = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    script = f"import sys; from {module} import {entry}; sys.exit({entry}())"
    argv = [sys.executable, "-c", script, "stability", "--e", "1",
            "--window", "-300", "300", "-300", "300"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = subprocess.run(["head", "-1"], stdin=proc.stdout, capture_output=True)
        proc.stdout.close()
        assert head.stdout.startswith(b"h0-test twists on X_1")
        assert (proc.wait(), proc.stderr.read()) == (141, b"")


# One small query per subcommand; verify's fresh process is the session's
# ``verify_subprocess``, checked against the in-process run below.
FRESH = {
    "chow": ["--e", "2"],
    "coh": ["--e", "1", "--a", "1", "--b", "0", "--omega"],
    "chi": ["--e", "1", "--a", "-1", "--b", "0", "--alpha", "3", "--beta", "2"],
    "monad": ["--e", "1", "--alpha", "1", "--beta", "2"],
    "table": ["--e", "1", "--alpha", "1", "--beta", "2"],
    "stability": ["--e", "2", "--window", "-3", "3", "-3", "3"],
    "existence": ["--e", "2", "--alpha", "3", "--beta", "0"],
    "curves": ["--e", "2"],
}
# What ``python -m scrollcalc`` does, then the modules that the run added to
# sys.modules, printed as the last line of stderr.
PROBE = (
    "import atexit, runpy, sys; before = set(sys.modules); "
    "atexit.register(lambda: print(*sorted(set(sys.modules) - before), file=sys.stderr)); "
    "runpy.run_module('scrollcalc', run_name='__main__', alter_sys=True)"
)
# The package modules each subcommand's process loads: the e >= 0 check lives
# in errors, so each loads only what its handler runs.
_BASE = ("scrollcalc", "scrollcalc.cli", "scrollcalc.errors", "scrollcalc.chow")
_INSTANTON = {*_BASE, "scrollcalc.cohomology", "scrollcalc.instanton"}
E_CHECK = {
    "chow": set(_BASE),
    "coh": {*_BASE, "scrollcalc.cohomology"},
    "chi": {*_BASE, "scrollcalc.cohomology"},
    "monad": {*_INSTANTON, "scrollcalc.beilinson"},
    "table": {*_INSTANTON, "scrollcalc.beilinson"},
    "stability": _INSTANTON,
    "existence": _INSTANTON,
    "curves": _INSTANTON,
}


def _fresh_argv(name, fmt):
    return (name, *FRESH[name], *(["--format", "json"] if fmt == "json" else []))


def _run_fresh(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True
    )
    *errors, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, errors, set(loaded.split())


@pytest.fixture(scope="module")
def fresh_runs():
    """{argv: (exit code, stdout, other stderr lines, loaded modules)} of every
    FRESH query in text and in JSON, each in its own interpreter, four at a time."""
    argvs = [_fresh_argv(name, fmt) for name in FRESH for fmt in ("text", "json")]
    with ThreadPoolExecutor(4) as pool:
        return dict(zip(argvs, pool.map(_run_fresh, argvs)))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", list(FRESH))
def test_fresh_process_loads_only_its_subcommand(name, fmt, fresh_runs, capsys):
    # In-process, every module is loaded by now: only a fresh process shows a
    # lazy import that a handler is missing, or one that it does not need.
    argv = _fresh_argv(name, fmt)
    code, out, errors, loaded = fresh_runs[argv]
    assert (code, errors) == (0, [])
    assert cli.main(list(argv)) == 0
    assert out == capsys.readouterr().out
    assert {m for m in loaded if m.startswith("scrollcalc")} == E_CHECK[name]
    assert ("json" in loaded) == (fmt == "json")
    assert "argparse" not in loaded


def test_verify_runs_clean_and_deterministic(
    verify_results, verify_subprocess, render_verify
):
    # A fresh-process run reproduces the session's in-process run byte for byte.
    code, out = verify_subprocess
    assert (code, out) == render_verify()
    assert code == 0
    assert len(verify_results) == 18 and all(r.ok for r in verify_results)
    assert "seed=" in out and "all suites passed" in out


def test_suite_names_match_their_functions(verify_results):
    # The benchmark reads each suite's metrics under its function's name.
    assert [r.name for r in verify_results] == [
        f.__name__.replace("_", "-") for f in verification.ALL_SUITES
    ]


def test_verify_json_shape(render_verify):
    code, out = render_verify("--format", "json")
    assert code == 0
    assert out == (GOLDEN / "verify.json").read_text()
    data = json.loads(out)
    assert data["passed"] is True
    names = {s["name"] for s in data["suites"]}
    assert "chow-riemann-roch-cross" in names and "serialization-roundtrip" in names
