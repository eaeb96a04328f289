"""Command-line behavior: output formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from scrollcalc import cli, verification
from scrollcalc.beilinson import Monad, monad_shape
from scrollcalc.chow import ChowClass
from scrollcalc.cohomology import FormalSheaf, line, omega
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
    "monad_e1_general": [
        "monad", "--e", "1", "--alpha", "2", "--beta", "5",
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
    assert sorted(a[0] for a in NEGATIVE_E) == sorted(set(cli._HANDLERS) - {"verify"})
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


def _subcommand_flags():
    """{subcommand: its flags but --help}, for every subcommand but verify."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.option_strings[0] != "-h"]
            for name, p in sub.choices.items() if name != "verify"}


SUBCOMMAND_FLAGS = _subcommand_flags()
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
