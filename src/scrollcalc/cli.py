"""Command-line front end.

Subcommands mirror the library: ``chow``, ``coh``, ``chi``, ``monad``,
``table``, ``stability``, ``existence``, ``curves`` and the self-check
``verify``.  Every subcommand renders either human-readable text (with a
``--ascii`` fallback for terminals without ξ and Ω) or machine-readable
JSON via ``--format json``.

Convention used throughout: second Chern classes of instantons are written
on the basis xi*f, f^2, i.e. c2 = alpha*xi*f + beta*f^2 (an equivalent
convention with alpha attached to xi^2 differs by a factor of e in the
first coordinate and is *not* used here).

Exit codes: 0 success, 1 verification failure, 2 bad flags or inadmissible
parameter combinations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import beilinson, chow, cohomology, instanton, verification
from .errors import Inadmissible, ScrollcalcError


def _common(sub):
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub.add_argument(
        "--ascii", action="store_true", help="ASCII output (xi/Omega instead of ξ/Ω)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrollcalc",
        description=(
            "Exact intersection theory, sheaf cohomology and instanton-monad "
            "numerics on the scroll threefold P(O+O(e)) over the projective "
            "plane.  c2 convention: alpha*xi*f + beta*f^2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chow", help="intersection numbers and standard classes")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, help="xi-coefficient of a divisor")
    p.add_argument("--b", type=int, help="f-coefficient of a divisor")
    _common(p)

    p = sub.add_parser("coh", help="cohomology of O(a xi + b f) or an Omega twist")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--omega", action="store_true", help="twist of pulled-back Omega^1")
    _common(p)

    p = sub.add_parser(
        "chi", help="Euler characteristic of a line bundle or a twisted instanton"
    )
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--alpha", type=int, help="with --beta: instanton chi")
    p.add_argument("--beta", type=int)
    _common(p)

    p = sub.add_parser("monad", help="monad of an instanton with given (alpha, beta)")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--variant", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--gamma", type=int, help="h2 at -(e+1)f (non-earnest monad)")
    p.add_argument("--delta", type=int, help="h2 at -(e-1)f (non-earnest monad)")
    p.add_argument("--eta", type=int, help="h2 at -ef (non-earnest monad)")
    _common(p)

    p = sub.add_parser("table", help="first-page cohomology table against a dual pair")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--variant", type=int, choices=(1, 2, 3), default=1)
    p.add_argument(
        "--gamma-nonzero",
        action="store_true",
        help="keep the h2 cells symbolic (non-earnest case, variant 1)",
    )
    p.add_argument("--raw", action="store_true", help="show the H^m staircase only")
    _common(p)

    p = sub.add_parser("stability", help="slope test region in a window")
    p.add_argument("--e", type=int, required=True)
    p.add_argument(
        "--window",
        type=int,
        nargs=4,
        metavar=("A_MIN", "A_MAX", "B_MIN", "B_MAX"),
        default=(-10, 10, -10, 10),
    )
    p.add_argument("--strict", action="store_true", help="strict inequality")
    _common(p)

    p = sub.add_parser("existence", help="existence/moduli report for (e, alpha, beta)")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    _common(p)

    p = sub.add_parser("curves", help="ruling curve classes and their Hilbert data")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--curve-class", choices=("xif", "ff"), help="restrict to one class")
    _common(p)

    p = sub.add_parser("verify", help="run every invariant suite; exit 0 iff all pass")
    p.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    _common(p)

    return parser


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_chow(args) -> int:
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
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_coh(args) -> int:
    s = (cohomology.omega if args.omega else cohomology.line)(args.a, args.b)
    sheaf = cohomology.FormalSheaf.of(args.e, [(s, 1)])
    vec = sheaf.coh_vector()
    payload = {
        "e": args.e,
        "sheaf": sheaf.to_dict(),
        "h": list(vec),
        "chi": vec.chi,
    }
    text = (
        f"{sheaf.render(args.ascii)} on X_{args.e}: "
        f"h = ({vec.h0}, {vec.h1}, {vec.h2}, {vec.h3}), chi = {vec.chi}"
    )
    _emit(args, payload, text)
    return 0


def _cmd_chi(args) -> int:
    if (args.alpha is None) != (args.beta is None):
        raise Inadmissible("--alpha and --beta must be given together", "--alpha iff --beta")
    if args.alpha is None:
        value = cohomology.chi_line(args.e, args.a, args.b)
        what = f"chi(O({args.a},{args.b}))"
    else:
        value = chow.chi_instanton(args.e, args.alpha, args.beta, args.a, args.b)
        what = f"chi(E({args.a},{args.b}))"
    _emit(args, {"e": args.e, "chi": value}, f"{what} on X_{args.e} = {value}")
    return 0


def _cmd_monad(args) -> int:
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
    text = "\n".join(
        [
            m.render(args.ascii),
            f"rank defect {rep.rank_defect} (want 2); "
            f"c1 {rep.c1_defect.render(args.ascii)} "
            f"(want {rep.expected_c1.render(args.ascii)}); "
            f"c2 {rep.c2_defect.render(args.ascii)} "
            f"(want {rep.expected_c2.render(args.ascii)}); "
            f"chi {rep.chi_defect} (want {rep.expected_chi})",
            "checks: " + ("all pass" if rep.ok else "FAILED"),
        ]
    )
    checks = {"rank": rep.rank_ok, "c1": rep.c1_ok, "c2": rep.c2_ok, "chi": rep.chi_ok}
    _emit(args, {**m.to_dict(), "checks": checks}, text)
    return 0 if rep.ok else 1


def _cmd_table(args) -> int:
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
        "shifts": list(table.shifts),
    }
    _emit(args, payload, table.render(args.ascii, raw=args.raw))
    return 0


def _cmd_stability(args) -> int:
    region = instanton.stability_test_region(args.e, tuple(args.window), args.strict)
    payload = {
        "e": args.e,
        "window": list(args.window),
        "strict": args.strict,
        "two_mu_H": chow.delta_H(args.e, 0, args.e - 1),
        "region": [list(p) for p in region],
    }
    lines = [
        f"h0-test twists on X_{args.e} "
        f"({'strict' if args.strict else 'non-strict'}), window {tuple(args.window)}:"
    ] + [f"  ({a}, {b})  delta_H = {chow.delta_H(args.e, a, b)}" for a, b in region]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_existence(args) -> int:
    p = instanton.InstantonParams(args.e, args.alpha, args.beta)
    rep = instanton.existence_report(p)
    bits = [f"status: {rep.status}", f"charge: {p.charge}"]
    if rep.ext1 is not None:
        bits.append(f"ext1 (moduli dimension): {rep.ext1}")
    if rep.ext2 is not None:
        bits.append(f"ext2: {rep.ext2}, ext3: {rep.ext3}")
    if rep.earnest is not None:
        bits.append(f"earnest: {rep.earnest}")
    if rep.route is not None:
        bits.append(f"route: {rep.route}")
    _emit(args, rep.to_dict(), "\n".join(bits))
    return 0


def _cmd_curves(args) -> int:
    classes = (args.curve_class,) if args.curve_class else ("xif", "ff")
    infos = [instanton.curve_info(args.e, c) for c in classes]
    payload = {
        "e": args.e,
        "curves": [
            {
                "class": ci.curve_class,
                "degree_H": ci.degree_H,
                "chi_O": ci.chi_O,
                "normal_bundle_f_degrees": list(ci.normal_bundle),
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
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    results = verification.run_all(args.seed)
    total = sum(r.cases for r in results)
    failed = [r for r in results if not r.ok]
    payload = {
        "seed": args.seed,
        "total_cases": total,
        "suites": [vars(r) for r in results],  # name, cases, failures, findings
        "passed": not failed,
    }
    lines = [f"scrollcalc verify  (seed={args.seed})"]
    for r in results:
        lines.append(f"{'ok  ' if r.ok else 'FAIL'} {r.name:32s} ({r.cases} cases)")
        lines += [f"     failure: {msg}" for msg in r.failures[:5]]
        lines += [f"     finding: {msg}" for msg in r.findings]
    status = f"FAILURES in {len(failed)} suite(s)" if failed else "all suites passed"
    lines.append(f"{status} ({total} cases)")
    _emit(args, payload, "\n".join(lines))
    return 0 if not failed else 1


_HANDLERS = {
    "chow": _cmd_chow,
    "coh": _cmd_coh,
    "chi": _cmd_chi,
    "monad": _cmd_monad,
    "table": _cmd_table,
    "stability": _cmd_stability,
    "existence": _cmd_existence,
    "curves": _cmd_curves,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "e"):
            instanton.require_scroll(args.e)
        return _HANDLERS[args.command](args)
    except ScrollcalcError as exc:
        bound = getattr(exc, "bound", "")
        suffix = f" [violated bound: {bound}]" if bound else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
