"""The four benchmark workloads: seeded inputs, timed passes, checks.

Every workload is a closed loop driven by one client in one process with no
threads: the next query starts when the previous one has finished.  A run
repeats a *pass* (the workload's fixed work) until its time is used up.
Pass ``k`` of seed ``s`` always gets the same inputs, drawn afresh from
``(workload, s, k)``, so no pass reuses another pass's queries.

Query latencies are scaled by a speed reference sampled between queries
(see ``reference.py``); a pass's wall time is the sum of its scaled query
latencies, so the reference samples themselves are never counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import time
from pathlib import Path

import checks
import reference
import tracer as tracing

CLI_SUBCOMMANDS = (
    "chow", "coh", "chi", "monad", "table", "stability", "existence", "curves"
)
COH_COMBOS = (("line", 1), ("line", -1), ("omega", 1), ("omega", -1))
CHILD = str(Path(__file__).with_name("child.py"))


class Context:
    """Where the program lives, how to start a fresh interpreter on it, and
    the run's two speed references."""

    def __init__(self, root: Path, python: str, env: dict, out: Path):
        self.root = root
        self.python = python
        self.env = env
        self.out = out
        self.cpu = reference.cpu_reference()
        self.spawn_ref = reference.spawn_reference(self.spawn)

    def spawn(self, args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [self.python, *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=170,
        )

    def child(self, *args) -> dict:
        """Run ``child.py`` and return the JSON object on its last stdout line."""
        proc = self.spawn([CHILD, *args])
        if proc.returncode != 0:
            raise RuntimeError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


class Pass:
    """One timed pass: scaled and raw wall time, one scaled latency per
    query, and the raw outputs for the checks."""

    def __init__(self, wall_s: float, raw_wall_s: float, latencies_s: list, outputs: list):
        self.wall_s = wall_s
        self.raw_wall_s = raw_wall_s
        self.latencies_s = latencies_s
        self.outputs = outputs


def timed_loop(queries, run_one, ref: reference.Reference, tracer=None) -> Pass:
    """Run the queries one after another, sampling ``ref`` between them."""
    timed, outputs = [], []
    clock = time.perf_counter
    for qid, q in enumerate(queries):
        ref.tick()
        if tracer is not None:
            tracer.query = qid
        t0 = clock()
        outputs.append(run_one(q))
        timed.append((clock() - t0, len(ref.samples) - 1))
    ref.sample()
    latencies = [dt * ref.scale_around(i) for dt, i in timed]
    return Pass(sum(latencies), sum(dt for dt, _ in timed), latencies, outputs)


def _rng(workload: str, seed: int, k) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


# ---------------------------------------------------------------------------
# cli-queries: one process per query


class CliQueries:
    name = "cli-queries"
    setup_module = "scrollcalc.cli"
    pass_size = 16  # two queries per subcommand, one of them with --format json
    min_passes = 7  # at least 100 latency samples per run

    def generate(self, seed: int, k: int) -> list:
        rng = _rng(self.name, seed, k)
        queries = []
        for sub in CLI_SUBCOMMANDS:
            for fmt in ("text", "json"):
                queries.append([sub, *self._flags(rng, sub), "--format", fmt])
        rng.shuffle(queries)
        return queries

    @staticmethod
    def _flags(rng: random.Random, sub: str) -> list:
        """Small inputs: e <= 5, |a|, |b| <= 10, alpha, beta <= 8."""

        def ab():
            return str(rng.randint(-10, 10))

        def par():
            return str(rng.randint(0, 8))

        flags = ["--e", str(rng.randint(0, 5))]
        if sub in ("chow", "coh", "chi"):
            if sub != "chow" or rng.random() < 0.5:
                flags += ["--a", ab(), "--b", ab()]
            if sub == "coh" and rng.random() < 0.5:
                flags.append("--omega")
            if sub == "chi" and rng.random() < 0.5:
                flags += ["--alpha", par(), "--beta", par()]
        elif sub in ("monad", "table"):
            variant = rng.randint(1, 3)
            flags += ["--alpha", "0" if variant == 3 else par(), "--beta", par()]
            if sub == "monad" and rng.random() < 0.25:
                for name in ("--gamma", "--delta", "--eta"):
                    flags += [name, str(rng.randint(0, 4))]
            else:
                flags += ["--variant", str(variant)]
            # --gamma-nonzero is documented for variant 1 only.
            if sub == "table" and variant == 1 and rng.random() < 0.25:
                flags.append("--gamma-nonzero")
            if sub == "table" and rng.random() < 0.25:
                flags.append("--raw")
        elif sub == "existence":
            flags += ["--alpha", par(), "--beta", par()]
        elif sub == "stability":
            a0, b0 = rng.randint(-10, 10), rng.randint(-10, 10)
            flags += ["--window", str(a0), str(rng.randint(a0, 10)), str(b0),
                      str(rng.randint(b0, 10))]
            if rng.random() < 0.5:
                flags.append("--strict")
        elif sub == "curves" and rng.random() < 0.5:
            flags += ["--curve-class", rng.choice(("xif", "ff"))]
        return flags

    def run_pass(self, ctx: Context, queries: list) -> Pass:
        def run_one(argv):
            proc = ctx.spawn(["-m", "scrollcalc", *argv])
            return proc.returncode, proc.stdout

        return timed_loop(queries, run_one, ctx.spawn_ref)

    def check(self, ctx: Context, queries: list, outputs: list) -> list:
        from scrollcalc import cli

        failures = []
        for argv, got in zip(queries, outputs):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            failures.append(checks.check_cli(argv, tuple(got), (code, buf.getvalue())))
        return failures

    def traced_pass(self, ctx: Context, queries: list, tag: str):
        def run_one(item):
            qid, argv = item
            return ctx.child("cli", str(qid), str(ctx.out / f"{tag}-q{qid}.spans"), *argv)

        done = timed_loop(list(enumerate(queries)), run_one, ctx.spawn_ref)
        stats = {}
        for res in done.outputs:
            tracing.merge_stats(stats, res["stats"])
        extras = {"inadmissible": sum(res["inadmissible"] for res in done.outputs)}
        return done, stats, extras, [(res["exit"], res["stdout"]) for res in done.outputs]


# ---------------------------------------------------------------------------
# verify: the full self-check in a fresh child process


class Verify:
    name = "verify"
    setup_module = "scrollcalc.cli"
    min_passes = 3

    def generate(self, seed: int, k: int) -> list:
        return [["verify", "--seed", str(seed), "--format", "json"]]

    def _pass(self, ctx: Context, queries: list, spans: str):
        res = ctx.child("verify", queries[0][2], spans)
        return Pass(res["wall_s"], res["raw_wall_s"], list(res["suite_s"].values()), [res]), res

    def run_pass(self, ctx: Context, queries: list) -> Pass:
        return self._pass(ctx, queries, "")[0]

    def check(self, ctx: Context, queries: list, outputs: list) -> list:
        # An attempt is one suite; a failed run fails each of its suites.
        failures = []
        for res in outputs:
            bad, _ = checks.check_verify(res["exit"], res["stdout"])
            failures += [bad] * max(len(res["suite_s"]), 1)
        return failures

    def traced_pass(self, ctx: Context, queries: list, tag: str):
        done, res = self._pass(ctx, queries, str(ctx.out / f"{tag}.spans"))
        _, payload = checks.check_verify(res["exit"], res["stdout"])
        extras = {
            "inadmissible": res["inadmissible"],
            "cases": {s["name"]: s["cases"] for s in payload.get("suites", [])},
            "total_cases": payload.get("total_cases", 0),
            "suite_funcs": res["suite_funcs"],
        }
        return done, res["stats"], extras, done.outputs


# ---------------------------------------------------------------------------
# In-process workloads


class InProcess:
    """A workload whose queries run in the benchmark's own process."""

    def run_pass(self, ctx: Context, queries: list) -> Pass:
        return timed_loop(queries, self.query_fn(), ctx.cpu)

    def traced_pass(self, ctx: Context, queries: list, tag: str):
        """Run one pass with the tracer installed in this process.  The
        wrappers stay in place, so this must be the run's last pass."""
        tr = tracing.Tracer()
        tracing.install(tr)
        done = timed_loop(queries, self.query_fn(), reference.cpu_reference(), tracer=tr)
        stats = tracing.scaled(tr.stats(), done.wall_s / done.raw_wall_s)
        extras = {"inadmissible": tr.escaped("Inadmissible", "beilinson")}
        tr.dump(ctx.out / f"{tag}.spans")
        return done, stats, extras, done.outputs


class LargeTwist(InProcess):
    name = "large-twist"
    setup_module = "scrollcalc"
    pass_size = 100
    min_passes = 2

    def generate(self, seed: int, k: int) -> list:
        """|a| log-uniform in [10, 10^6], stratified: query i of the pass
        draws from the i-th of ``pass_size`` equal slices of log|a|, and each
        run of four neighbouring slices gets the four (kind, sign) pairs in
        an order drawn once per seed and rotated by one each pass, so any
        four passes in a row give every slice every pair.  Cost grows with
        |a| and depends on the pair, so without this one seed would get far
        heavier queries, or another latency percentile, than another."""
        rng = _rng(self.name, seed, k)
        orders = _rng(self.name, seed, "orders")
        queries = []
        n, m = self.pass_size, len(COH_COMBOS)
        for block in range(0, n, m):
            combos = list(COH_COMBOS)
            orders.shuffle(combos)
            combos = combos[k % m:] + combos[:k % m]
            for j, (kind, sign) in enumerate(combos):
                u = (block + j + rng.random()) / n
                a = sign * round(10 ** (1 + 5 * u))
                queries.append([rng.randint(0, 5), kind, a, rng.randint(-50, 50)])
        rng.shuffle(queries)
        return queries

    def query_fn(self):
        """The path ``scrollcalc coh`` takes."""
        from scrollcalc import cohomology

        def query(q):
            e, kind, a, b = q
            summand = getattr(cohomology, kind)(a, b)
            return tuple(cohomology.FormalSheaf.of(e, [(summand, 1)]).coh_vector())

        return query

    def check(self, ctx: Context, queries: list, outputs: list) -> list:
        return [checks.check_coh(*q, h) for q, h in zip(queries, outputs)]


class MonadRoundtrip(InProcess):
    name = "monad-roundtrip"
    setup_module = "scrollcalc"
    pass_size = 1000
    min_passes = 2

    def generate(self, seed: int, k: int) -> list:
        """e <= 5, alpha <= 40, beta <= 60, variant 1-3 (alpha = 0 for the
        pullback variant 3); a quarter are general monads with gamma,
        delta, eta <= 4."""
        rng = _rng(self.name, seed, k)
        n = self.pass_size
        general = [i < n // 4 for i in range(n)]
        rng.shuffle(general)
        queries = []
        for is_general in general:
            e = rng.randint(0, 5)
            if is_general:
                queries.append(["general", e, rng.randint(0, 40), rng.randint(0, 60),
                                rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)])
            else:
                variant = rng.randint(1, 3)
                alpha = 0 if variant == 3 else rng.randint(0, 40)
                queries.append(["plain", e, alpha, rng.randint(0, 60), variant])
        return queries

    def query_fn(self):
        from scrollcalc import beilinson, instanton
        from scrollcalc.errors import Inadmissible

        def query(q):
            """Build, check, serialize, decode, tabulate, report.  Returns
            None for an inadmissible monad, which is an expected answer."""
            e, alpha, beta = q[1:4]
            try:
                if q[0] == "plain":
                    variant, gamma_zero = q[4], True
                    monad = beilinson.monad_shape(e, alpha, beta, variant)
                else:
                    variant, gamma_zero = 1, False
                    monad = beilinson.monad_general(e, alpha, beta, *q[4:])
                consistent = beilinson.monad_consistency(monad).ok
                decoded = beilinson.Monad.from_dict(
                    json.loads(json.dumps(monad.to_dict(), sort_keys=True))
                )
                table = beilinson.beilinson_table(e, alpha, beta, variant, gamma_zero)
                table.render()
                instanton.existence_report(instanton.InstantonParams(e, alpha, beta)).to_dict()
            except Inadmissible:
                return None
            return {"consistent": consistent, "monad": monad, "decoded": decoded,
                    "table": table, "variant": variant}

        return query

    def check(self, ctx: Context, queries: list, outputs: list) -> list:
        from scrollcalc import beilinson
        from scrollcalc.errors import Inadmissible

        failures = []
        for q, out in zip(queries, outputs):
            if out is None:
                failures.append([])
                continue
            table = out["table"]
            try:
                h1 = list(beilinson.h1_values(*q[1:4], out["variant"]).values())
            except Inadmissible:
                h1 = None
            cells = [table.cells[r][c].value for r, c in table.value_positions()]
            failures.append(checks.check_monad(q, {**out, "cells": cells, "h1": h1}))
        return failures


WORKLOADS = {w.name: w for w in (CliQueries(), Verify(), LargeTwist(), MonadRoundtrip())}
