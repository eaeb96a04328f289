"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from run import inputs_hash  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return Context(ROOT, sys.executable, env, ROOT / ".perfbench_out")


# ---------------------------------------------------------------------------
# Inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    w = WORKLOADS[name]
    assert w.generate(7, 0) == w.generate(7, 0)
    assert inputs_hash(w, 7) == inputs_hash(w, 7)
    if name != "verify":  # verify's only input is the seed itself
        assert w.generate(7, 1) != w.generate(7, 0)
    assert inputs_hash(w, 8) != inputs_hash(w, 7)


def test_large_twist_inputs_cover_the_stated_ranges():
    queries = WORKLOADS["large-twist"].generate(3, 0)
    assert len(queries) == 100
    assert all(10 <= abs(a) <= 10**6 and 0 <= e <= 5 and -50 <= b <= 50
               for e, _, a, b in queries)
    kinds = [(k, a > 0) for _, k, a, _ in queries]
    assert all(kinds.count(c) == 25 for c in set(kinds)) and len(set(kinds)) == 4
    # Four passes in a row give each |a| slice each (kind, sign) pair once.
    # Slice i of a pass holds its i-th largest |a| (the top 80 slices have
    # |a| > 100, far enough apart that rounding cannot reorder them).
    slices = [set() for _ in range(80)]
    for k in range(4):
        ranked = sorted(WORKLOADS["large-twist"].generate(3, k), key=lambda q: -abs(q[2]))
        for pairs, (_, kind, a, _) in zip(slices, ranked):
            pairs.add((kind, a > 0))
    assert all(len(pairs) == 4 for pairs in slices)


# ---------------------------------------------------------------------------
# Span accounting


def test_self_time_on_a_synthetic_span_tree():
    #   0 [0,10] root with children 1 [1,4], 3 [3.5,6] (overlapping 1) and
    #     4 [9,12] (running past its parent's end);
    #   1 has child 2 [2,3];  5 [20,21] is a second root.
    starts = [0.0, 1.0, 2.0, 3.5, 9.0, 20.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0, 21.0]
    parents = [-1, 0, 1, 0, 0, -1]
    got = dict(tracer.self_times(starts, ends, parents))
    # Children of 0 cover [1,6] and [9,10]: 6 of its 10.
    assert got == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 3.0, 5: 1.0})


def test_wrapped_calls_give_self_times_that_add_up():
    tr = tracer.Tracer()

    def leaf(n):
        return sum(range(n))

    wleaf = tr.span_wrapper(leaf, "m.leaf")

    def outer():
        return wleaf(20000) + wleaf(30000) + sum(range(50000))

    wouter = tr.span_wrapper(outer, "m.outer")
    wouter()
    stats = tr.stats()
    assert stats["m.leaf"]["calls"] == 2 and stats["m.outer"]["calls"] == 1
    total = stats["m.outer"]["total_s"]
    assert stats["m.outer"]["self_s"] + stats["m.leaf"]["self_s"] == pytest.approx(total)
    assert 0 < stats["m.outer"]["self_s"] < total


def test_install_wraps_every_binding_site():
    code = f"""
import json, sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]
import tracer
from scrollcalc import beilinson, cohomology, verification
original = cohomology.les_chase
tr = tracer.Tracer()
tracer.install(tr)
assert beilinson.les_chase is cohomology.les_chase is not original
assert beilinson.line is cohomology.line is verification.line
assert all(hasattr(f, "__wrapped__") for f in verification.ALL_SUITES)
beilinson.strongness_check(2)
print(json.dumps(tr.stats()))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert stats["cohomology.les_chase"]["calls"] > 0  # bound in beilinson by import
    assert stats["cohomology.h_line_p2"]["calls"] > 0  # counted, no span
    assert stats["cohomology.h_line_p2"]["total_s"] == 0
    assert stats["beilinson.strongness_check"]["calls"] == 1


def test_reference_scales_by_the_samples_around_the_work():
    values = iter([1.0, 2.0, 4.0, 8.0, 16.0])
    ref = reference.Reference(lambda: next(values), nominal=4.0, every=0.0)
    for _ in range(5):
        ref.sample()
    assert ref.scale_around(2) == 4.0 / 6.0  # samples 1..4: median(2, 4, 8, 16)
    assert ref.scale_around(0) == 4.0 / 2.0  # samples 0..2: median(1, 2, 4)


# ---------------------------------------------------------------------------
# Checkers


def test_riemann_roch_reference_matches_the_package():
    from scrollcalc import cohomology

    for e in range(6):
        for a in range(-12, 13):
            for b in range(-12, 13):
                assert checks.rr_chi_line(e, a, b) == cohomology.chi_line(e, a, b)


def _answer(e, kind, a, b):
    from scrollcalc import cohomology

    s = getattr(cohomology, kind)(a, b)
    return tuple(cohomology.FormalSheaf.of(e, [(s, 1)]).coh_vector())


@pytest.mark.parametrize("q", [(2, "line", 40, -7), (3, "line", -40, 5),
                               (1, "omega", 40, 3), (4, "omega", -40, -9)])
def test_coh_checker_counts_wrong_answers(q):
    good = _answer(*q)
    assert checks.check_coh(*q, good) == []
    wrong = [
        (good[0] + 1,) + good[1:],  # chi off by one
        (-1,) + good[1:],  # negative dimension
        good[:3],  # missing entry
    ]
    if q[2] >= 0:
        wrong.append(good[:3] + (good[3] + 1,))  # h3 on a >= 0
    lt = WORKLOADS["large-twist"]
    for bad in wrong:
        assert checks.check_coh(*q, bad)
        assert sum(1 for f in lt.check(None, [list(q), list(q)], [good, bad]) if f) == 1


def test_monad_checker_counts_wrong_answers():
    mr = WORKLOADS["monad-roundtrip"]
    queries = [["plain", 1, 3, 4, 1], ["general", 2, 5, 6, 1, 2, 0], ["plain", 0, 0, 0, 3]]
    query = mr.query_fn()
    outputs = [query(q) for q in queries]
    assert outputs[2] is None  # inadmissible: an expected answer
    assert not any(mr.check(None, queries, outputs))
    out = outputs[0]
    other = query(["plain", 1, 3, 5, 1])
    for bad in ({**out, "consistent": False}, {**out, "decoded": other["monad"]},
                {**out, "table": other["table"]}):
        failures = mr.check(None, queries, [bad, outputs[1], outputs[2]])
        assert [bool(f) for f in failures] == [True, False, False]


def test_cli_checker_counts_wrong_answers(ctx):
    cq = WORKLOADS["cli-queries"]
    queries = [["coh", "--e", "1", "--a", "3", "--b", "-2", "--format", "json"],
               ["existence", "--e", "2", "--alpha", "3", "--beta", "1", "--format", "text"]]
    done = cq.run_pass(ctx, queries)
    assert not any(cq.check(ctx, queries, done.outputs))
    code, out = done.outputs[0]
    for bad in ((code + 1, out), (code, out.replace("1", "2"))):
        failures = cq.check(ctx, queries, [bad, done.outputs[1]])
        assert [bool(f) for f in failures] == [True, False]


def test_verify_checker_counts_wrong_answers():
    good = {"passed": True, "total_cases": checks.MIN_VERIFY_CASES,
            "suites": [{"name": "x", "cases": 1, "failures": [], "findings": []}]}
    assert checks.check_verify(0, json.dumps(good))[0] == []
    for code, payload in ((1, good), (0, {**good, "passed": False}),
                          (0, {**good, "total_cases": checks.MIN_VERIFY_CASES - 1})):
        assert checks.check_verify(code, json.dumps(payload))[0]
    assert checks.check_verify(0, "Traceback ...")[0]
    res = {"exit": 0, "stdout": json.dumps({**good, "passed": False}), "suite_s": {"x": 1.0, "y": 2.0}}
    assert sum(1 for f in WORKLOADS["verify"].check(None, [], [res]) if f) == 2


# ---------------------------------------------------------------------------
# A second seed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_second_seed_passes_every_check(name, ctx):
    w = WORKLOADS[name]
    queries = w.generate(20261017, 0)
    done = w.run_pass(ctx, queries)
    failures = w.check(ctx, queries, done.outputs)
    assert failures and not any(failures), [f for f in failures if f][:3]
    assert len(done.latencies_s) == len(failures)


# ---------------------------------------------------------------------------
# Metric names


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert spec["paths"] == [HERE.name]


def test_per_layer_reports_every_metric_on_an_empty_trace():
    extras = {"import_s": {}, "interpreter_s": 0.05, "src_lines": {"total": 1},
              "overhead_s": 0.1}
    values = metrics.per_layer({}, extras)
    assert set(values) == {name for name, _ in metrics.PER_LAYER}
