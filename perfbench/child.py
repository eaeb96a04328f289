"""Fresh child process for the workloads that start one.

    python perfbench/child.py verify SEED SPANS         (SPANS "" = untraced)
    python perfbench/child.py cli QUERY_ID SPANS ARGV... (one traced CLI query)

Runs ``scrollcalc.cli.main`` with stdout captured and prints one JSON line:
the exit code, the captured stdout, the wall time of ``main`` (raw and
scaled by the CPU reference, see ``reference.py``), each verify suite's
scaled time and, when traced, the scaled per-function statistics.  The
import of the package is not timed here; the benchmark measures it as
set-up.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path

import reference


def _suite_timer(verification, ref: reference.Reference, timed: list) -> None:
    """Time each suite that ``run_all`` runs, sampling ``ref`` before each."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(seed):
            ref.tick()
            i, spent = len(ref.samples) - 1, ref.spent
            t0 = time.perf_counter()
            try:
                return fn(seed)
            finally:
                dt = time.perf_counter() - t0 - (ref.spent - spent)
                timed.append((dt, i, len(ref.samples) - 1))

        return run

    verification.ALL_SUITES = tuple(wrap(fn) for fn in verification.ALL_SUITES)


def main(argv: list) -> int:
    mode, ident, spans = argv[:3]
    from scrollcalc import cli, verification

    tr = None
    if spans:
        import tracer as tracing

        tr = tracing.Tracer()
        tracing.install(tr)
    ref = reference.cpu_reference()
    timed: list = []
    if mode == "verify":
        cli_argv = ["verify", "--seed", ident, "--format", "json"]
        _suite_timer(verification, ref, timed)
    else:
        cli_argv = argv[3:]
        tr.query = int(ident)

    buf = io.StringIO()
    ref.sample()
    spent = ref.spent
    # One suite takes most of a verify run, so the reference is also sampled
    # while suites run; not under the tracer, whose spans would include it.
    sampling = ref.sampling(0.05) if tr is None else contextlib.nullcontext()
    with sampling, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(cli_argv)
        except SystemExit as exc:
            code = exc.code
        raw_wall = time.perf_counter() - t0 - (ref.spent - spent)
    ref.sample()
    suites = [dt * ref.scale_around(i, j) for dt, i, j in timed]
    # The whole run is scaled by the suites' time-weighted reference.
    scale = sum(suites) / sum(dt for dt, _, _ in timed) if timed else ref.overall_scale()
    out = {"exit": code, "stdout": buf.getvalue(), "raw_wall_s": raw_wall,
           "wall_s": raw_wall * scale}
    if mode == "verify":
        try:
            names = [s["name"] for s in json.loads(out["stdout"])["suites"]]
        except (ValueError, KeyError):
            names = [fn.__name__ for fn in verification.ALL_SUITES]
        out["suite_s"] = dict(zip(names, suites))
        out["suite_funcs"] = [fn.__name__ for fn in verification.ALL_SUITES]
    if tr is not None:
        out["stats"] = tracing.scaled(tr.stats(), scale)
        out["inadmissible"] = tr.escaped("Inadmissible", "beilinson")
        tr.dump(Path(spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
