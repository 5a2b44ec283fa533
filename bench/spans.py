"""Spans around calls into mpart's public functions, recorded from outside.

`install` replaces each function where its callers look it up (the module
attribute) with a wrapper that records one span: name, start, end, parent
span and a small outcome flag. Spans are kept in flat arrays in memory and
written out when the run ends; self time is derived from the span tree."""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
from array import array
from pathlib import Path

import common
import metrics

# (module, attribute, span name). A function is wrapped in every module whose
# code calls it through a module-level name, so nested calls are seen too.
TARGETS = [
    ("mpart.graph", "canonical_form", "graph.canonical_form"),
    ("mpart.obstruction", "canonical_form", "graph.canonical_form"),
    ("mpart.graph", "enumerate_graphs", "graph.enumerate_graphs"),
    ("mpart.obstruction", "enumerate_graphs", "graph.enumerate_graphs"),
    ("mpart.graph", "enumerate_split_graphs", "graph.enumerate_split_graphs"),
    ("mpart.obstruction", "enumerate_split_graphs", "graph.enumerate_split_graphs"),
    ("mpart.graph", "delete_vertex", "graph.delete_vertex"),
    ("mpart.obstruction", "delete_vertex", "graph.delete_vertex"),
    ("mpart.solver", "solve", "solver.solve"),
    ("mpart.obstruction", "solve", "solver.solve"),
    ("mpart.solver", "solve_split", "solver.solve_split"),
    ("mpart.recognize", "is_bipartite", "recognize.is_bipartite"),
    ("mpart.obstruction", "is_bipartite", "recognize.is_bipartite"),
    ("mpart.recognize", "is_chordal", "recognize.is_chordal"),
    ("mpart.obstruction", "is_chordal", "recognize.is_chordal"),
    ("mpart.recognize", "split_partition", "recognize.split_partition"),
    ("mpart.obstruction", "classify_minimality", "obstruction.classify_minimality"),
    ("mpart.obstruction", "enumerate_minimal_obstructions",
     "obstruction.enumerate_minimal_obstructions"),
    ("mpart.obstruction", "save_catalog", "obstruction.save_catalog"),
    ("mpart.obstruction", "report_to_json", "obstruction.report_to_json"),
]
NAMES = sorted({name for _, _, name in TARGETS})

# outcome flags kept per span
NONE_RESULT = 1  # solve returned None (obstructed)
MINIMAL = 2  # classify_minimality said 'minimal'


def _record() -> dict:
    return {"calls": 0, "self_s": 0.0, "durations": [], "flagged": 0}


def _flag(name: str, result) -> int:
    if name == "solver.solve" and result is None:
        return NONE_RESULT
    if name == "obstruction.classify_minimality" and result and result[0] == "minimal":
        return MINIMAL
    return 0


class Tracer:
    """In-memory span store. `tag` labels the spans opened while it is set,
    so one function's spans can be split by input kind."""

    def __init__(self):
        self.name = array("H")
        self.tag = array("B")
        self.flag = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags = [""]
        self.current_tag = 0
        self.bytes_out: dict[str, int] = {}
        self._stack = [-1]

    def set_tag(self, tag: str) -> None:
        if tag not in self.tags:
            self.tags.append(tag)
        self.current_tag = self.tags.index(tag)

    def wrap(self, name: str, fn):
        name_id = NAMES.index(name)
        names, tags, flags = self.name, self.tag, self.flag
        parents, starts, ends, stack = self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            tags.append(self.current_tag)
            parents.append(stack[-1])
            stack.append(idx)
            flags.append(0)
            ends.append(0.0)
            starts.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()
                flags[idx] = _flag(name, result)
                self._count_bytes(name, result)

        traced.__wrapped_by_bench__ = True
        return traced

    def _count_bytes(self, name: str, result) -> None:
        if name == "obstruction.report_to_json" and isinstance(result, str):
            self.bytes_out[name] = self.bytes_out.get(name, 0) + len(result.encode())
        elif name == "obstruction.save_catalog" and result is not None:
            size = sum(f.stat().st_size for f in Path(result).iterdir() if f.is_file())
            self.bytes_out[name] = self.bytes_out.get(name, 0) + size

    def install(self):
        """Wrap every target that exists; return an undo function."""
        saved = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None or getattr(fn, "__wrapped_by_bench__", False):
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

        def undo():
            for module, attr, fn in saved:
                setattr(module, attr, fn)

        return undo

    # --- persistence ------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            header = {"count": len(self.name), "tags": self.tags, "bytes": self.bytes_out}
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.tag, self.flag, self.parent, self.start, self.end):
                arr.tofile(f)

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        t = cls()
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            t.tags, t.bytes_out = header["tags"], header["bytes"]
            for arr in (t.name, t.tag, t.flag, t.parent, t.start, t.end):
                arr.fromfile(f, header["count"])
        return t

    # --- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict:
        """Per span name (and per name/tag): calls, self seconds, durations,
        outcome counts; plus solve calls made directly by classify_minimality."""
        own = self.self_times()
        out: dict[str, dict] = {}
        classify_id = NAMES.index("obstruction.classify_minimality")
        solve_id = NAMES.index("solver.solve")
        solves_in_classify = 0
        for i, name_id in enumerate(self.name):
            keys = [NAMES[name_id]]
            if self.tag[i]:
                keys.append(f"{NAMES[name_id]}.{self.tags[self.tag[i]]}")
            for key in keys:
                rec = out.setdefault(key, _record())
                rec["calls"] += 1
                rec["self_s"] += own[i]
                rec["durations"].append(self.end[i] - self.start[i])
                rec["flagged"] += 1 if self.flag[i] else 0
            p = self.parent[i]
            if name_id == solve_id and p >= 0 and self.name[p] == classify_id:
                solves_in_classify += 1
        out["_solves_in_classify"] = solves_in_classify
        out["_bytes"] = dict(self.bytes_out)
        return out


def cpu_seconds(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def merge(summaries: list[dict]) -> dict:
    """Sum several `Tracer.summary` results (one per traced process)."""
    out: dict = {"_solves_in_classify": 0, "_bytes": {}}
    for s in summaries:
        for key, rec in s.items():
            if key == "_solves_in_classify":
                out[key] += rec
            elif key == "_bytes":
                for k, v in rec.items():
                    out[key][k] = out[key].get(k, 0) + v
            else:
                acc = out.setdefault(key, _record())
                acc["calls"] += rec["calls"]
                acc["self_s"] += rec["self_s"]
                acc["durations"].extend(rec["durations"])
                acc["flagged"] += rec["flagged"]
    return out


def layer_values(summary: dict, extra: dict) -> dict:
    """Every per-layer metric of metrics.PER_LAYER from a span summary; a layer
    this workload does not reach reads 0. `extra` holds the values measured
    outside the spans (pool CPU, CLI start-up, overhead)."""
    def rec(name):
        return summary.get(name, _record())

    def ratio(a, b):
        return a / b if b else 0.0

    solve = rec("solver.solve")
    classify = rec("obstruction.classify_minimality")
    solve_tail = common.tail(solve["durations"])
    values = {
        "solver.solve.p50_us": common.p50(solve["durations"]) * 1e6 if solve["calls"] else 0.0,
        "solver.solve.tail_us": solve_tail[1] * 1e6 if solve_tail else 0.0,
        "solver.solve.obstructed_ratio": ratio(solve["flagged"], solve["calls"]),
        "obstruction.minimal_ratio": ratio(classify["flagged"], classify["calls"]),
        "obstruction.solves_per_candidate": ratio(summary.get("_solves_in_classify", 0),
                                                  classify["calls"]),
        "obstruction.save_catalog.bytes": summary.get("_bytes", {}).get(
            "obstruction.save_catalog", 0),
        "obstruction.report_to_json.bytes": summary.get("_bytes", {}).get(
            "obstruction.report_to_json", 0),
    }
    values.update(extra)
    for name in metrics.PER_LAYER:
        if name in values:
            continue
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            values[name] = rec(base)[stat]
        else:
            values[name] = 0.0
    return values


def report_layers(workload, ops, summary, extra, outcome):
    """Print every per-layer metric with the end-to-end metric and workload it
    should move; return the result-line pieces."""
    values = layer_values(summary, extra)
    print(f"traced {len(ops)} operations (a fixed prefix of the seeded schedule), "
          f"tracing overhead {extra['trace.overhead_pct']:.1f}%")
    print(f"  {'metric':<48} {'value':>14} {'unit':<6} should move -> on workload")
    for name, (unit, _, moves, where) in metrics.PER_LAYER.items():
        v = values[name]
        shown = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"  {name:<48} {shown:>14} {unit:<6} {moves} -> {where}")
    outcome.error_rate_line()
    units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
    return outcome, values, units
