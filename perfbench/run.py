"""scrollcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/scrollcalc``.  The run
measures set-up (fresh interpreters importing the package), then repeats the
workload's pass until ``--seconds`` have gone by, then checks every answer.
With ``--trace 1`` it then runs one more pass with every public function of
the layer modules wrapped, and reports per-layer metrics instead.

Times are scaled by a speed reference measured beside them (``reference.py``),
so they read as seconds on a machine of fixed speed; raw times are recorded
too.  Medians: ``setup_s`` over the set-up interpreters, ``wall_s`` over the
passes; latency percentiles pool every query of the run.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``failed / attempted`` is the error rate.  The line before it records the
machine, the load at the start, raw times and a hash of the inputs.  Spans
of a traced run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS, Context

SETUP_SPAWNS = 7  # timed fresh interpreters per run; the median is reported
PROBE_SPAWNS = 5  # -X importtime interpreters in the traced run


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg": list(os.getloadavg()),
    }


def inputs_hash(workload, seed: int) -> str:
    """Hash of the first pass's inputs; the same seed gives the same hash."""
    text = json.dumps(workload.generate(seed, 0), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def spawn_times(ctx: Context, code: str, n: int) -> tuple[list, list]:
    """Scaled and raw wall times of ``n`` fresh interpreters running
    ``code``, after one untimed run that leaves the bytecode cache warm."""
    ref = ctx.spawn_ref
    timed = []
    for i in range(n + 1):
        ref.sample()
        t0 = time.perf_counter()
        proc = ctx.spawn(["-c", code])
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"python -c {code!r} failed: {proc.stderr[-2000:]}")
        if i:
            timed.append((dt, len(ref.samples) - 1))
    ref.sample()
    return [dt * ref.scale_around(i) for dt, i in timed], [dt for dt, _ in timed]


def import_times(ctx: Context) -> dict:
    """Median cumulative ``-X importtime`` of each scrollcalc module, in
    scaled seconds."""
    ref = ctx.spawn_ref
    timed = []
    for _ in range(PROBE_SPAWNS):
        ref.sample()
        proc = ctx.spawn(["-X", "importtime", "-c", "import scrollcalc.cli"])
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)$", line.rstrip())
            if m and m.group(2).split(".")[0] == "scrollcalc":
                timed.append((m.group(2).split(".")[-1], int(m.group(1)) * 1e-6,
                              len(ref.samples) - 1))
    ref.sample()
    runs: dict = {}
    for mod, dt, i in timed:
        runs.setdefault(mod, []).append(dt * ref.scale_around(i))
    return {mod: statistics.median(v) for mod, v in runs.items()}


def source_lines(root: Path) -> dict:
    pkg = root / "src" / "scrollcalc"
    counts = {}
    for path in sorted(pkg.glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    out = {src: counts.get(src, 0) for src in metrics.SOURCES}
    out["total"] = sum(counts.values())
    return out


def run(args, root: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    ctx = Context(root, sys.executable, env, out_dir)
    sys.path.insert(0, src)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "inputs_sha256": inputs_hash(workload, args.seed)}

    setup, setup_raw = spawn_times(ctx, f"import {workload.setup_module}", SETUP_SPAWNS)
    passes, failures = [], []
    busy = 0.0  # time spent in passes; checking between them does not count
    while len(passes) < workload.min_passes or busy < args.seconds:
        queries = workload.generate(args.seed, len(passes))
        t0 = time.perf_counter()
        done = workload.run_pass(ctx, queries)
        busy += time.perf_counter() - t0
        # Check now and drop the outputs, so that the heap, and the garbage
        # collector's work, does not grow from pass to pass.
        failures += workload.check(ctx, queries, done.outputs)
        done.outputs = None
        passes.append(done)

    per_pass = len(passes[0].latencies_s)
    values = metrics.end_to_end(setup, passes, per_pass)
    record.update(
        passes=len(passes),
        per_pass=per_pass,
        latency_samples=sum(len(p.latencies_s) for p in passes),
        raw={"setup_s": statistics.median(setup_raw),
             "wall_s": statistics.median(p.raw_wall_s for p in passes)},
    )

    if args.trace:
        queries = workload.generate(args.seed, len(passes))
        tag = f"{workload.name}-seed{args.seed}"
        done, stats, extras, outputs = workload.traced_pass(ctx, queries, tag)
        failures += workload.check(ctx, queries, outputs)
        if workload.name == "verify":
            suites = sum(stats.get("verification." + f, {}).get("total_s", 0.0)
                         for f in extras["suite_funcs"])
            record["suite_sum_over_wall"] = suites / done.wall_s
            if not 0.9 <= suites / done.wall_s <= 1.0:
                failures.append([f"suite times add to {suites:.3f} s of a {done.wall_s:.3f} s run"])
        extras.update(
            import_s=import_times(ctx),
            src_lines=source_lines(root),
            overhead_s=done.wall_s - values["wall_s"],
        )
        # The bare interpreter is the spawn reference itself, so it is raw.
        extras["interpreter_s"] = statistics.median(ctx.spawn_ref.samples)
        record["traced_wall_s"] = done.wall_s
        record["untraced_wall_s"] = values["wall_s"]
        values = metrics.per_layer(stats, extras)
        units = dict(metrics.PER_LAYER)
    else:
        units = dict(metrics.END_TO_END)
    record["reference_s"] = {
        "cpu": statistics.median(ctx.cpu.samples) if ctx.cpu.samples else None,
        "spawn": statistics.median(ctx.spawn_ref.samples),
    }

    failed = sum(1 for f in failures if f)
    record["error_rate"] = failed / len(failures) if failures else 1.0
    record["failures"] = [m for f in failures for m in f][:20]
    result = {
        "correct": bool(failures) and failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "scrollcalc" / "__init__.py").is_file():
        print(f"error: no scrollcalc package under {root / 'src'}", file=sys.stderr)
        return 2
    record, result = run(args, root)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
