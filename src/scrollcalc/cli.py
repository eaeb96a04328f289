"""Command-line front end.

Subcommands mirror the library: ``chow``, ``coh``, ``chi``, ``monad``,
``table``, ``stability``, ``existence``, ``curves`` and the self-check
``verify``.  Every subcommand answers in human-readable text (with a
``--ascii`` fallback for terminals without ξ and Ω) or in JSON via
``--format json``: its ``_cmd_*`` handler returns ``(exit code, JSON
payload, text lines)`` and prints nothing, and ``main``, the one place that
prints an answer, renders only the format asked for.

Convention used throughout: second Chern classes of instantons are written
on the basis xi*f, f^2, i.e. c2 = alpha*xi*f + beta*f^2 (an equivalent
convention with alpha attached to xi^2 differs by a factor of e in the
first coordinate and is *not* used here).

Exit codes: 0 success, 1 verification failure, 2 bad flags, inadmissible
parameter combinations or a printed answer (in the format asked for) with
an integer of more than ``sys.get_int_max_str_digits()`` digits, reported
as one ``error: … [violated bound: …]`` line; the ``scrollcalc`` script and
``python -m scrollcalc`` (``console_main``) exit 141 (128 + SIGPIPE),
silently, when their reader closes stdout early.

A process loads only what its subcommand runs: a well-formed argv is read
straight from the command table, argparse is built only for ``--help`` and
refused flags, and each handler imports its own modules.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import Inadmissible, ScrollcalcError, require_scroll


def build_parser() -> "argparse.ArgumentParser":
    """The parser of every subcommand, its help line and its flags; ``main``
    builds it only for an argv that ``_read_flags`` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """A parser whose flag errors raise ``Inadmissible``, so that ``main``
        reports them as one ``error: … [violated bound: …]`` line with exit
        code 2; the subparsers are built by the same class (argparse's
        default ``parser_class``)."""

        def error(self, message):
            raise Inadmissible(message, f"flags of '{self.prog} --help'")

    parser = _Parser(
        prog="scrollcalc",
        description=(
            "Exact intersection theory, sheaf cohomology and instanton-monad "
            "numerics on the scroll threefold P(O+O(e)) over the projective "
            "plane.  c2 convention: alpha*xi*f + beta*f^2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, spec in {**flags, **_COMMON}.items():
            p.add_argument(flag, **spec)
    return parser


def _ascii_int(text):
    """``int(text)`` for an ASCII ``-?[0-9]+`` that ``int`` accepts, else None."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more than sys.get_int_max_str_digits() digits
            pass
    return None


def _read_flags(argv):
    """The namespace that ``build_parser().parse_args(argv)`` gives, read from
    ``_COMMANDS`` without argparse; None unless ``argv`` names a subcommand
    and then gives each flag at most once, exactly and in ``--flag value``
    form, with ASCII ints, listed choices and every required flag.  argparse
    reads (or refuses) each argv declined here."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    specs = {**_COMMANDS[argv[0]][1], **_COMMON}
    given = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        spec = specs.get(flag)
        if spec is None or flag in given:
            return None
        if "action" in spec:  # store_true
            given[flag], i = True, i + 1
            continue
        n = spec.get("nargs", 1)
        values = argv[i + 1:i + 1 + n]
        if spec.get("type") is int:
            values = [_ascii_int(text) for text in values]
        if len(values) < n or None in values:
            return None
        if "choices" in spec and values[0] not in spec["choices"]:
            return None
        given[flag], i = (values if "nargs" in spec else values[0]), i + 1 + n
    if any(spec.get("required") and flag not in given for flag, spec in specs.items()):
        return None
    args = SimpleNamespace(command=argv[0])
    for flag, spec in specs.items():
        default = spec.get("default", False if "action" in spec else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _cmd_chow(args) -> tuple:
    from . import chow

    e = args.e
    a = args.ascii
    constants = {
        "canonical": chow.canonical_class(e),
        "hyperplane": chow.hyperplane(e),
        "exceptional": chow.exceptional_divisor(e),
        "c2_cotangent": chow.c2_cotangent(e),
    }
    payload = {
        "e": e,
        "constants": {k: v.to_dict() for k, v in constants.items()},
        "degree_H3": (chow.hyperplane(e) ** 3).degree(),
    }
    lines = [f"X_{e}: A(X) = Z[ξ,f]/(f³, ξ²−{e}ξf)" if not a else
             f"X_{e}: A(X) = Z[xi,f]/(f^3, xi^2-{e}*xi*f)"]
    for name, cls in constants.items():
        lines.append(f"  {name:13s} {cls.render(a)}")
    lines.append(f"  deg(H^3)      {payload['degree_H3']}")
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise Inadmissible("--a and --b must be given together", "--a iff --b")
        d = chow.divisor(e, args.a, args.b)
        d2 = d * d
        d3 = d2 * d
        payload.update(
            {
                "divisor": d.to_dict(),
                "divisor_squared": d2.to_dict(),
                "divisor_cubed": d3.to_dict(),
                "delta_H": chow.delta_H(e, args.a, args.b),
            }
        )
        lines.append(f"  D             {d.render(a)}")
        lines.append(f"  D^2           {d2.render(a)}")
        lines.append(f"  D^3           {d3.render(a)}")
        lines.append(f"  delta_H(D)    {payload['delta_H']}")
    return 0, payload, lines


def _cmd_coh(args) -> tuple:
    from . import cohomology

    s = (cohomology.omega if args.omega else cohomology.line)(args.a, args.b)
    sheaf = cohomology.FormalSheaf.of(args.e, [(s, 1)])
    vec = sheaf.coh_vector()
    payload = {
        "e": args.e,
        "sheaf": sheaf.to_dict(),
        "h": vec,
        "chi": vec.chi,
    }
    return 0, payload, [
        f"{sheaf.render(args.ascii)} on X_{args.e}: "
        f"h = ({vec.h0}, {vec.h1}, {vec.h2}, {vec.h3}), chi = {vec.chi}"
    ]


def _cmd_chi(args) -> tuple:
    from . import chow, cohomology

    if (args.alpha is None) != (args.beta is None):
        raise Inadmissible("--alpha and --beta must be given together", "--alpha iff --beta")
    if args.alpha is None:
        value = cohomology.chi_line(args.e, args.a, args.b)
        what = f"chi(O({args.a},{args.b}))"
    else:
        value = chow.chi_instanton(args.e, args.alpha, args.beta, args.a, args.b)
        what = f"chi(E({args.a},{args.b}))"
    return 0, {"e": args.e, "chi": value}, [f"{what} on X_{args.e} = {value}"]


def _cmd_monad(args) -> tuple:
    from . import beilinson

    general = [x for x in (args.gamma, args.delta, args.eta) if x is not None]
    if general:
        if args.variant != 1:
            raise Inadmissible(
                "the non-earnest monad is only laid out for variant 1", "variant == 1"
            )
        m = beilinson.monad_general(
            args.e,
            args.alpha,
            args.beta,
            args.gamma or 0,
            args.delta or 0,
            args.eta or 0,
        )
    else:
        m = beilinson.monad_shape(args.e, args.alpha, args.beta, args.variant)
    rep = beilinson.monad_consistency(m)
    lines = [
        m.render(args.ascii),
        f"rank defect {rep.rank_defect} (want 2); "
        f"c1 {rep.c1_defect.render(args.ascii)} "
        f"(want {rep.expected_c1.render(args.ascii)}); "
        f"c2 {rep.c2_defect.render(args.ascii)} "
        f"(want {rep.expected_c2.render(args.ascii)}); "
        f"chi {rep.chi_defect} (want {rep.expected_chi})",
        "checks: " + ("all pass" if rep.ok else "FAILED"),
    ]
    checks = {"rank": rep.rank_ok, "c1": rep.c1_ok, "c2": rep.c2_ok, "chi": rep.chi_ok}
    return 0 if rep.ok else 1, {**m.to_dict(), "checks": checks}, lines


def _cmd_table(args) -> tuple:
    from . import beilinson

    table = beilinson.beilinson_table(
        args.e, args.alpha, args.beta, args.variant, not args.gamma_nonzero
    )
    payload = {
        "e": args.e,
        "alpha": args.alpha,
        "beta": args.beta,
        "variant": args.variant,
        "gamma_zero": not args.gamma_nonzero,
        "cells": [[c._asdict() for c in row] for row in table.cells],
        "top": [s.render(True) for s in table.top_labels],
        "bottom": [s.render(True) for s in table.bottom_labels],
        "shifts": table.shifts,
    }
    return 0, payload, [table.render(args.ascii, raw=args.raw)]


def _cmd_stability(args) -> tuple:
    import itertools

    from . import chow, instanton

    region = instanton.stability_test_region(args.e, tuple(args.window), args.strict)
    payload = {
        "e": args.e,
        "window": args.window,
        "strict": args.strict,
        "two_mu_H": chow.delta_H(args.e, 0, args.e - 1),
        "region": region,
    }
    # one line per twist, rendered only when text output joins them
    lines = itertools.chain([
        f"h0-test twists on X_{args.e} "
        f"({'strict' if args.strict else 'non-strict'}), window {tuple(args.window)}:"
    ], (f"  ({a}, {b})  delta_H = {chow.delta_H(args.e, a, b)}" for a, b in region))
    return 0, payload, lines


def _cmd_existence(args) -> tuple:
    from . import instanton

    p = instanton.InstantonParams(args.e, args.alpha, args.beta)
    rep = instanton.existence_report(p)
    bits = [f"status: {rep.status}", f"charge: {p.charge}"]
    if rep.ext1 is not None:
        bits.append(f"ext1 (moduli dimension): {rep.ext1}")
    if rep.ext2 is not None:
        bits.append(f"ext2: {rep.ext2}, ext3: {rep.ext3}")
    if rep.status == instanton.EXISTS or rep.earnest is not None:
        bits.append(f"earnest: {'undecided' if rep.earnest is None else rep.earnest}")
    if rep.route is not None:
        bits.append(f"route: {rep.route}")
    return 0, rep.to_dict(), bits


def _cmd_curves(args) -> tuple:
    from . import instanton

    rows = instanton._CURVE_DIVISORS  # --curve-class picks one row, else every row
    infos = [instanton.curve_info(args.e, c) for c, _, _ in rows if args.curve_class in (None, c)]
    payload = {
        "e": args.e,
        "curves": [
            {
                "class": ci.curve_class,
                "degree_H": ci.degree_H,
                "chi_O": ci.chi_O,
                "normal_bundle_f_degrees": ci.normal_bundle,
                "h0_N": ci.h0_N,
                "h1_N": ci.h1_N,
                "hilbert_dim": ci.hilbert_dim,
            }
            for ci in infos
        ],
    }
    lines = []
    for ci in infos:
        lines.append(
            f"{ci.curve_class}: H-degree {ci.degree_H}, chi(O) = {ci.chi_O}, "
            f"N = O({ci.normal_bundle[0]}) + O({ci.normal_bundle[1]}), "
            f"h0(N) = {ci.h0_N}, h1(N) = {ci.h1_N}, "
            f"Hilbert dimension {ci.hilbert_dim}"
        )
    return 0, payload, lines


def _cmd_verify(args) -> tuple:
    from . import verification

    seed = verification.DEFAULT_SEED if args.seed is None else args.seed
    results = verification.run_all(seed)
    total = sum(r.cases for r in results)
    failed = [r for r in results if not r.ok]
    payload = {
        "seed": seed,
        "total_cases": total,
        "suites": [vars(r) for r in results],  # name, cases, failures, findings
        "passed": not failed,
    }
    lines = [f"scrollcalc verify  (seed={seed})"]
    for r in results:
        lines.append(f"{'ok  ' if r.ok else 'FAIL'} {r.name:32s} ({r.cases} cases)")
        lines += [f"     failure: {msg}" for msg in r.failures[:5]]
        lines += [f"     finding: {msg}" for msg in r.findings]
    status = f"FAILURES in {len(failed)} suite(s)" if failed else "all suites passed"
    lines.append(f"{status} ({total} cases)")
    return 0 if not failed else 1, payload, lines


_REQUIRED = {"type": int, "required": True}
_INT = {"type": int}
_VARIANT = {"type": int, "choices": (1, 2, 3), "default": 1}
_COMMON = {
    "--format": {"choices": ("text", "json"), "default": "text", "help": "output format"},
    "--ascii": {"action": "store_true", "help": "ASCII output (xi/Omega instead of ξ/Ω)"},
}
# name -> (help line, flags before --format and --ascii, handler); a handler
# returns (exit code, JSON payload, text lines) and main prints one of them
_COMMANDS = {
    "chow": ("intersection numbers and standard classes", {
        "--e": _REQUIRED,
        "--a": {**_INT, "help": "xi-coefficient of a divisor"},
        "--b": {**_INT, "help": "f-coefficient of a divisor"},
    }, _cmd_chow),
    "coh": ("cohomology of O(a xi + b f) or an Omega twist", {
        "--e": _REQUIRED, "--a": _REQUIRED, "--b": _REQUIRED,
        "--omega": {"action": "store_true", "help": "twist of pulled-back Omega^1"},
    }, _cmd_coh),
    "chi": ("Euler characteristic of a line bundle or a twisted instanton", {
        "--e": _REQUIRED, "--a": _REQUIRED, "--b": _REQUIRED,
        "--alpha": {**_INT, "help": "with --beta: instanton chi"},
        "--beta": _INT,
    }, _cmd_chi),
    "monad": ("monad of an instanton with given (alpha, beta)", {
        "--e": _REQUIRED, "--alpha": _REQUIRED, "--beta": _REQUIRED, "--variant": _VARIANT,
        "--gamma": {**_INT, "help": "h2 at -(e+1)f (non-earnest monad)"},
        "--delta": {**_INT, "help": "h2 at -(e-1)f (non-earnest monad)"},
        "--eta": {**_INT, "help": "h2 at -ef (non-earnest monad)"},
    }, _cmd_monad),
    "table": ("first-page cohomology table against a dual pair", {
        "--e": _REQUIRED, "--alpha": _REQUIRED, "--beta": _REQUIRED, "--variant": _VARIANT,
        "--gamma-nonzero": {
            "action": "store_true",
            "help": "keep the h2 cells symbolic (non-earnest case, variant 1)",
        },
        "--raw": {"action": "store_true", "help": "show the H^m staircase only"},
    }, _cmd_table),
    "stability": ("slope test region in a window", {
        "--e": _REQUIRED,
        "--window": {
            **_INT,
            "nargs": 4,
            "metavar": ("A_MIN", "A_MAX", "B_MIN", "B_MAX"),
            "default": (-10, 10, -10, 10),
        },
        "--strict": {"action": "store_true", "help": "strict inequality"},
    }, _cmd_stability),
    "existence": ("existence/moduli report for (e, alpha, beta)", {
        "--e": _REQUIRED, "--alpha": _REQUIRED, "--beta": _REQUIRED,
    }, _cmd_existence),
    "curves": ("ruling curve classes and their Hilbert data", {
        "--e": _REQUIRED,
        "--curve-class": {"choices": ("xif", "ff"), "help": "restrict to one class"},
    }, _cmd_curves),
    # the default seed, verification.DEFAULT_SEED, is read in _cmd_verify, so
    # that reading the flags loads no verification module
    "verify": ("run every invariant suite; exit 0 iff all pass", {
        "--seed": _INT,
    }, _cmd_verify),
}


def main(argv=None) -> int:
    """Run the subcommand that ``argv`` names, print its answer in the format
    asked for and return its exit code; argv is read from the command table,
    or by argparse when ``_read_flags`` declines it."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_flags(argv) or build_parser().parse_args(argv)
        if hasattr(args, "e"):
            require_scroll(args.e)
        code, payload, lines = _COMMANDS[args.command][2](args)
        if args.format == "json":
            import json

            answer = json.dumps(payload, indent=2, sort_keys=True)
        else:
            answer = "\n".join(lines)
    except ScrollcalcError as exc:
        bound = getattr(exc, "bound", "")
        suffix = f" [violated bound: {bound}]" if bound else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2
    except ValueError as exc:  # the printed answer has an integer too long for str(int)
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: the answer has an integer of more than {limit} digits "
              f"[violated bound: digits <= sys.get_int_max_str_digits() = {limit}]",
              file=sys.stderr)
        return 2
    print(answer)
    return code


def console_main() -> int:
    """``main()`` for the console script and ``python -m scrollcalc``; a closed
    stdout is pointed at devnull (a silent exit-time flush) and exits 141."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    return code
