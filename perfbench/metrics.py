"""Metric names and how each is computed from a run.

The names listed here are the ones ``BENCHMARK.json`` declares; a test
checks that the two agree.
"""

from __future__ import annotations

import statistics

# (name, unit): every untraced run prints all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)

SUITES = (
    "chow-ring-axioms",
    "chow-degree-identities",
    "chow-slope-oracle",
    "chow-riemann-roch-cross",
    "coh-serre-duality",
    "coh-chi-additivity",
    "coh-omega-consistency",
    "coh-nonnegativity",
    "beilinson-orthogonality",
    "beilinson-strongness",
    "beilinson-monads",
    "beilinson-general-monad",
    "instanton-charge-ulrich",
    "instanton-stability-region",
    "instanton-ext-grr",
    "instanton-modification",
    "instanton-existence-vs-monad",
    "serialization-roundtrip",
)

IMPORTED = ("scrollcalc", "errors", "chow", "cohomology", "beilinson", "instanton",
            "verification", "cli")
SOURCES = ("__init__", "__main__", "errors", "chow", "cohomology", "beilinson",
           "instanton", "verification", "cli")

# Span metrics: (function, which of "calls"/"self_s").
SPAN_METRICS = (
    ("chow.ChowClass.__mul__", ("calls", "self_s")),
    ("chow.chi_rr", ("calls", "self_s")),
    ("chow.twist_chern", ("self_s",)),
    ("chow.ChernData.__init__", ("calls", "self_s")),
    ("chow.ChowClass.inverse", ("self_s",)),
    ("chow.chi_instanton", ("calls", "self_s")),
    ("cohomology.FormalSheaf.total_chern", ("self_s",)),
    ("cohomology.h_line", ("calls", "self_s")),
    ("cohomology.h_omega_twist", ("calls", "self_s")),
    ("cohomology.h_line_p2", ("calls",)),
    ("cohomology.h_omega_p2", ("calls",)),
    ("cohomology.FormalSheaf.chi", ("self_s",)),
    ("cohomology.les_chase", ("calls",)),
    ("beilinson.monad_shape", ("calls", "self_s")),
    ("beilinson.monad_general", ("calls", "self_s")),
    ("beilinson.monad_consistency", ("calls", "self_s")),
    ("beilinson.h1_values", ("calls", "self_s")),
    ("beilinson.beilinson_table", ("calls", "self_s")),
    ("beilinson.Monad.to_dict", ("self_s",)),
    ("beilinson.Monad.from_dict", ("self_s",)),
    ("instanton.existence_report", ("calls", "self_s")),
    ("instanton.forced_vanishing", ("calls",)),
    ("cli.main", ("self_s",)),
    ("cli.build_parser", ("self_s",)),
)


def _per_layer_units():
    for func, kinds in SPAN_METRICS:
        for kind in kinds:
            yield f"{func}.{kind}", "count" if kind == "calls" else "s"
    yield "beilinson.monad_consistency.per_monad", "ratio"
    yield "beilinson.inadmissible.count", "count"
    for suite in SUITES:
        yield f"verification.{suite}.s", "s"
        yield f"verification.{suite}.cases", "count"
    yield "verification.cases", "count"
    for mod in IMPORTED:
        yield f"cli.import.{mod}_s", "s"
    yield "cli.interpreter_s", "s"
    for src in SOURCES:
        yield f"src.lines.{src}", "lines"
    yield "src.lines.total", "lines"
    yield "trace.overhead_s", "s"


PER_LAYER = tuple(_per_layer_units())


def end_to_end(setup_s: list, passes: list, per_pass: int) -> dict:
    """Medians over the run: set-up spawns, pass walls, every query latency."""
    latencies = [x for p in passes for x in p.latencies_s]
    wall = statistics.median(p.wall_s for p in passes)
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall,
        "throughput_qps": per_pass / wall,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
    }


def per_layer(stats: dict, extras: dict) -> dict:
    """Per-layer values from the traced pass's statistics; a function the
    traced pass never ran reads 0."""
    row = lambda name: stats.get(name, {})  # noqa: E731
    out = {}
    for func, kinds in SPAN_METRICS:
        for kind in kinds:
            out[f"{func}.{kind}"] = row(func).get(kind, 0)
    built = sum(
        row(f"beilinson.{f}").get("calls", 0) - row(f"beilinson.{f}").get("raised", 0)
        for f in ("monad_shape", "monad_general")
    )
    checks_run = row("beilinson.monad_consistency").get("calls", 0)
    out["beilinson.monad_consistency.per_monad"] = checks_run / built if built else 0.0
    out["beilinson.inadmissible.count"] = extras.get("inadmissible", 0)
    cases = extras.get("cases", {})
    for suite in SUITES:
        func = "verification." + suite.replace("-", "_")
        out[f"verification.{suite}.s"] = row(func).get("total_s", 0.0)
        out[f"verification.{suite}.cases"] = cases.get(suite, 0)
    out["verification.cases"] = extras.get("total_cases", 0)
    for mod in IMPORTED:
        out[f"cli.import.{mod}_s"] = extras["import_s"].get(mod, 0.0)
    out["cli.interpreter_s"] = extras["interpreter_s"]
    for src in (*SOURCES, "total"):
        out[f"src.lines.{src}"] = extras["src_lines"].get(src, 0)
    out["trace.overhead_s"] = extras["overhead_s"]
    return out
