"""Output digests on fixed grids: byte-identity as a committed check.

Each grid is a deterministic list of library or CLI calls.  Every call gives
one item, ``[args, outcome]``, where the outcome is the call's result as
JSON-ready data, or, for a refusal, the ``ScrollcalcError`` class with its
message and bound.  A grid's digest is the SHA-256 of its items, one
``json.dumps(item, sort_keys=True)`` line each; ``golden/digests.json``
holds the item count and digest of every grid.

A change that alters an output changes a digest.  To see which items moved,
dump both trees' items and diff them:

    PYTHONPATH=src python tests/test_digests.py --dump DIR

writes ``DIR/<grid>.txt``, one line per item.  Without ``--dump`` the script
prints the digests in the format of ``golden/digests.json``.
"""

import contextlib
import hashlib
import io
import json
import sys
from itertools import product
from pathlib import Path

import pytest

from scrollcalc import beilinson, chow, cli, cohomology, instanton, verification
from scrollcalc.cohomology import line, omega
from scrollcalc.errors import ScrollcalcError

GOLDEN = Path(__file__).parent / "golden" / "digests.json"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ScrollcalcError as exc:
        return {"refused": type(exc).__name__, "message": str(exc),
                "bound": getattr(exc, "bound", "")}


def _existence():
    for e, alpha, beta in product(range(6), range(-1, 13), range(-1, 21)):
        yield (e, alpha, beta), _outcome(
            lambda: instanton.existence_report(instanton.InstantonParams(e, alpha, beta)).to_dict())


def _monad_shape():
    def run(*args):
        m = beilinson.monad_shape(*args)
        return [m.to_dict(), beilinson.monad_consistency(m).ok]

    for args in product(range(7), range(9), range(9), (1, 2, 3)):
        yield args, _outcome(run, *args)


def _monad_general():
    def run(*args):
        return beilinson.monad_general(*args).to_dict()

    for args in product(range(4), range(6), range(6), range(3), range(3), range(3)):
        yield args, _outcome(run, *args)


def _table():
    def run(*args):
        return beilinson.beilinson_table(*args).render()

    for args in product(range(5), range(7), range(7), (1, 2, 3), (True, False)):
        yield args, _outcome(run, *args)


_TWISTS = list(product(range(8), (line, omega), range(-12, 13), range(-16, 17)))


def _forced_vanishing():
    for e, kind, a, b in _TWISTS:
        s = kind(a, b)
        for i in range(4):
            yield (e, s, i), _outcome(instanton.forced_vanishing, e, s, i)


def _h_vector():
    for e, kind, a, b in _TWISTS:
        s = kind(a, b)
        yield (e, s), _outcome(lambda: list(cohomology.h_vector(e, s)))


def _riemann_roch():
    # chow-riemann-roch-cross's probes: both routes at every twist.
    ab = range(-verification.AB_MAX, verification.AB_MAX + 1)
    for e, a, b in product(range(verification.E_MAX + 1), ab, ab):
        d = chow.divisor(e, a, b)
        for p in verification.RR_PROBES:
            yield (e, *p, a, b), [
                _outcome(lambda: chow.chi_rr(chow.twist_chern(chow.instanton_chern(e, *p), d))),
                _outcome(chow.chi_instanton, e, *p, a, b),
            ]


def _sequence_chi():
    # coh-chi-additivity's grid: the chi of each entry of each named sequence.
    for e, a, b in product(range(verification.E_MAX + 1), range(-6, 7), range(-6, 7)):
        for name, fn in cohomology.NAMED_SEQUENCES.items():
            yield (name, e, a, b), _outcome(lambda: [s.chi() for s in fn(e, a, b)])


# Every subcommand but verify, which has its own golden: typical calls,
# edge twists, every flag, and refusals by the library and by argparse.
CLI_ARGV = [
    *(["chow", "--e", e] for e in ("0", "1", "2", "5")),
    ["chow", "--e", "2", "--a", "1", "--b", "-2"],
    ["chow", "--e", "3", "--a", "-4", "--b", "7"],
    ["chow", "--e", "0", "--a", "2"],
    *(["coh", "--e", e, "--a", a, "--b", b, *w]
      for e, a, b in (("0", "2", "2"), ("2", "-4", "2"), ("1", "-1", "-1"), ("3", "5", "-9"))
      for w in ([], ["--omega"])),
    ["chi", "--e", "0", "--a", "2", "--b", "2"],
    ["chi", "--e", "1", "--a", "-1", "--b", "0", "--alpha", "3", "--beta", "2"],
    ["chi", "--e", "4", "--a", "3", "--b", "-5", "--alpha", "0", "--beta", "8"],
    ["chi", "--e", "1", "--a", "0", "--b", "0", "--alpha", "3"],
    *(["monad", "--e", e, "--alpha", al, "--beta", be, "--variant", v]
      for e, al, be in (("0", "1", "2"), ("1", "0", "3"), ("2", "0", "4"), ("3", "4", "5"))
      for v in ("1", "2", "3")),
    ["monad", "--e", "1", "--alpha", "1", "--beta", "4", "--gamma", "1", "--delta", "0",
     "--eta", "2"],
    ["monad", "--e", "0", "--alpha", "-1", "--beta", "0"],
    *(["table", "--e", e, "--alpha", al, "--beta", be, "--variant", v, *flag]
      for e, al, be in (("1", "0", "3"), ("2", "0", "4"))
      for v in ("1", "2", "3")
      for flag in ([], ["--gamma-nonzero"], ["--raw"])),
    ["stability", "--e", "1"],
    ["stability", "--e", "2", "--window", "-3", "3", "-4", "4", "--strict"],
    ["stability", "--e", "0", "--window", "2", "1", "0", "0"],
    *(["existence", "--e", e, "--alpha", al, "--beta", be]
      for e, al, be in (("0", "1", "0"), ("2", "3", "0"), ("3", "4", "5"), ("4", "2", "2"),
                        ("1", "-1", "0"), ("5", "0", "12"))),
    ["curves", "--e", "2"],
    ["curves", "--e", "0", "--curve-class", "xif"],
    ["curves", "--e", "3", "--curve-class", "ff"],
    ["table", "--e", "3", "--alpha", "1", "--beta", "0"],
    ["chow", "--e", "-1"],
    ["coh", "--e", "1", "--a", "0"],
    ["monad", "--e", "1", "--alpha", "1", "--beta", "1", "--variant", "4"],
    ["existence", "--e", "x", "--alpha", "0", "--beta", "0"],
]


def _cli():
    for argv in CLI_ARGV:
        for fmt in (["--format", "text"], ["--format", "text", "--ascii"],
                    ["--format", "json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, *fmt])
            yield [*argv, *fmt], [code, out.getvalue(), err.getvalue()]


GRIDS = {
    "existence_report": _existence,
    "monad_shape": _monad_shape,
    "monad_general": _monad_general,
    "beilinson_table": _table,
    "forced_vanishing": _forced_vanishing,
    "h_vector": _h_vector,
    "riemann_roch": _riemann_roch,
    "sequence_chi": _sequence_chi,
    "cli": _cli,
}


def _lines(grid):
    for args, outcome in GRIDS[grid]():
        yield json.dumps([args, outcome], sort_keys=True, ensure_ascii=False)


def digest(grid) -> dict:
    h, n = hashlib.sha256(), 0
    for text in _lines(grid):
        h.update(text.encode() + b"\n")
        n += 1
    return {"items": n, "sha256": h.hexdigest()}


def test_the_golden_file_lists_every_grid():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(GRIDS)


@pytest.mark.parametrize("grid", GRIDS)
def test_grid_matches_its_golden_digest(grid):
    assert digest(grid) == json.loads(GOLDEN.read_text())[grid]


def main(argv) -> int:
    if argv[:1] == ["--dump"] and len(argv) == 2:
        out = Path(argv[1])
        out.mkdir(parents=True, exist_ok=True)
        for grid in GRIDS:
            (out / f"{grid}.txt").write_text("".join(t + "\n" for t in _lines(grid)))
        return 0
    if argv:
        print("usage: test_digests.py [--dump DIR]", file=sys.stderr)
        return 2
    print(json.dumps({grid: digest(grid) for grid in GRIDS}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
