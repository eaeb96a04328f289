"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of the scrollcalc layer modules from
outside the package; ``src/`` is never edited.  Each wrapped call records a
span (name, start, end, parent span, query id).  Spans are stored by id in
start order in flat arrays, kept in memory, and written out once at the end.

``cohomology.h_line_p2`` and ``cohomology.h_omega_p2`` run about a million
times per large query, so they are counted but get no span; their time is
part of the self time of the caller.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("chow", "cohomology", "beilinson", "instanton", "verification", "cli")
COUNT_ONLY = frozenset({"cohomology.h_line_p2", "cohomology.h_omega_p2"})
# Dunder methods that do real work; every other dunder is left alone.
WRAPPED_DUNDERS = frozenset({"chow.ChowClass.__mul__", "chow.ChernData.__init__"})


class Tracer:
    """In-memory span store.  Span ids index the arrays and grow with start time."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.queries = array("q")
        self.stack = [-1]
        self.query = -1
        self.counts: dict[str, list[int]] = {}
        self.raised: list[tuple[int, str]] = []  # (span id, exception type)

    def span_wrapper(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        stack, starts, ends = self.stack, self.starts, self.ends
        parents, queries, name_of = self.parents, self.queries, self.name_of
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1])
            queries.append(tracer.query)
            name_of.append(idx)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised.append((sid, type(exc).__name__))
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def count_wrapper(self, fn, name: str):
        counter = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            counter[0] += 1
            return fn(*args)

        return wrapper

    def stats(self) -> dict:
        """Per-name ``{"calls", "raised", "self_s", "total_s"}``; count-only
        names get their calls and nothing else."""
        out: dict = defaultdict(new_row)
        for sid, self_s in self_times(self.starts, self.ends, self.parents):
            row = out[self.names[self.name_of[sid]]]
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += self.ends[sid] - self.starts[sid]
        for sid, _ in self.raised:
            out[self.names[self.name_of[sid]]]["raised"] += 1
        for name, (n,) in self.counts.items():
            out[name]["calls"] += n
        return dict(out)

    def escaped(self, exc_name: str, layer: str) -> int:
        """Exceptions of type ``exc_name`` that left ``layer`` (raised by a
        span of that layer whose parent belongs to another layer)."""
        prefix = layer + "."
        n = 0
        for sid, name in self.raised:
            if name != exc_name:
                continue
            if not self.names[self.name_of[sid]].startswith(prefix):
                continue
            parent = self.parents[sid]
            if parent < 0 or not self.names[self.name_of[parent]].startswith(prefix):
                n += 1
        return n

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.name_of, self.starts, self.ends, self.parents, self.queries)
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "arrays": [
                ["name", "H"], ["start", "d"], ["end", "d"], ["parent", "q"], ["query", "q"]
            ],
            "counts": {k: v[0] for k, v in self.counts.items()},
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays:
                arr.tofile(fh)


def self_times(starts, ends, parents):
    """Yield ``(span id, self time)`` for every span.

    Span ``k`` runs from ``starts[k]`` to ``ends[k]`` under span
    ``parents[k]`` (``-1`` for a root); ids must grow with start time, as
    the tracer assigns them.  Self time is the span's duration minus the
    part of it that the union of its children's intervals covers.
    """
    heap: list = []  # (end, id) of spans that can still receive children
    cover: dict = {}  # id -> [covered so far, run start, run end]

    def finish(j):
        covered, run_s, run_e = cover.pop(j)
        if run_e > run_s:
            covered += run_e - run_s
        return j, (ends[j] - starts[j]) - covered

    for k in range(len(starts)):
        s = starts[k]
        while heap and heap[0][0] <= s:
            yield finish(heapq.heappop(heap)[1])
        p = parents[k]
        if p >= 0 and p in cover:
            c = cover[p]
            cs, ce = max(s, starts[p]), min(ends[k], ends[p])
            if ce > cs:
                if cs > c[2]:
                    c[0] += c[2] - c[1]
                    c[1], c[2] = cs, ce
                elif ce > c[2]:
                    c[2] = ce
        cover[k] = [0.0, s, s]
        heapq.heappush(heap, (ends[k], k))
    while heap:
        yield finish(heapq.heappop(heap)[1])


def _targets(module, layer: str):
    """``(owner, attribute, span name)`` for every wrapped callable of a layer."""
    for name, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            if name.startswith("_"):
                continue
            for attr, member in list(vars(obj).items()):
                full = f"{layer}.{name}.{attr}"
                if attr.startswith("_") and full not in WRAPPED_DUNDERS:
                    continue
                func = getattr(member, "__func__", member)
                if callable(func) and not isinstance(member, (property, type)):
                    yield obj, attr, full
        elif callable(obj) and not name.startswith("_"):
            yield module, name, f"{layer}.{name}"


def _rebind(modules, original, replacement) -> None:
    """Point every module-level binding of ``original`` at ``replacement``,
    including entries of module-level tuples (``verification.ALL_SUITES``)
    and dicts (``cohomology.NAMED_SEQUENCES``)."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
            elif isinstance(value, tuple) and any(v is original for v in value):
                setattr(
                    mod, name, tuple(replacement if v is original else v for v in value)
                )
            elif isinstance(value, dict):
                for key, v in list(value.items()):
                    if v is original:
                        value[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of the layer modules, at every
    place it is bound."""
    layer_mods = {layer: importlib.import_module(f"scrollcalc.{layer}") for layer in LAYERS}
    package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "scrollcalc"]
    for layer, module in layer_mods.items():
        for owner, attr, full in list(_targets(module, layer)):
            member = vars(owner)[attr]
            func = getattr(member, "__func__", member)
            make = tracer.count_wrapper if full in COUNT_ONLY else tracer.span_wrapper
            new = make(func, full)
            if isinstance(member, staticmethod):
                setattr(owner, attr, staticmethod(new))
            elif isinstance(member, classmethod):
                setattr(owner, attr, classmethod(new))
            else:
                setattr(owner, attr, new)
            if owner is module:
                _rebind(package, func, new)


def scaled(stats: dict, factor: float) -> dict:
    """``stats`` with every time multiplied by ``factor``."""
    return {
        name: {**row, "self_s": row["self_s"] * factor, "total_s": row["total_s"] * factor}
        for name, row in stats.items()
    }


def new_row() -> dict:
    return {"calls": 0, "raised": 0, "self_s": 0.0, "total_s": 0.0}


def merge_stats(into: dict, stats: dict) -> None:
    for name, row in stats.items():
        dst = into.setdefault(name, new_row())
        for key in dst:
            dst[key] += row[key]
