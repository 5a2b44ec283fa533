"""catalog-warm and catalog-cold: minimal-obstruction catalogs of seeded
(matrix, class) pairs at the class limits.

catalog-warm calls `enumerate_minimal_obstructions(..., jobs=1)` in this
process after set-up has filled the candidate caches. catalog-cold runs each
pair as a fresh `python -m mpart enumerate --jobs $(nproc)` process writing to
a temporary data directory inside the checkout."""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import check
import common
import spans

GROUPS = 19  # catalog-cold: the 228 matrices in 19 groups of 12
PANEL = 10  # catalog-warm: permutation classes of matrices in a pass
# Classes enumerated for each matrix, in this order. A catalog-cold pass is
# one matrix in its three classes, one cold process each: those whose cold
# cost is dominated by generating all graphs n <= 8. Cobipartite is left to
# catalog-warm: cold, it generates the same graphs as bipartite. The split
# generator's cold cost is in catalog-warm's setup_s.
CLASSES = {"catalog-warm": common.CLASSES,
           "catalog-cold": ("all", "bipartite", "chordal")}
# Matrices in catalog-warm's traced prefix; catalog-cold traces its first pass.
TRACE_OPS = {"catalog-warm": 3}
TMP = common.ROOT / ".bench_tmp"


def setup(workload: str, seed: int) -> None:
    """Cold import; on catalog-warm also fill every candidate cache by
    enumerating a 1x1 matrix in each class at its limit."""
    common.use_checkout_sources()
    import mpart.cli  # noqa: F401  (the cold processes import the same modules)
    from mpart import obstruction, pattern

    if workload == "catalog-warm":
        trivial = pattern.parse_matrix("0")
        for cls in common.CLASSES:
            obstruction.enumerate_minimal_obstructions(trivial, cls, common.CLASS_LIMITS[cls])


def relabelings(rows: str) -> list[str]:
    """The distinct matrices that renumber the parts of `rows` (the same
    permutation applied to rows and columns). They are among the 228 and
    have the same minimal obstructions, since only the part names differ."""
    r = rows.split(";")
    out = []
    for p in itertools.permutations(range(len(r))):
        v = ";".join("".join(r[p[i]][p[j]] for j in range(len(r))) for i in range(len(r)))
        if v not in out:
            out.append(v)
    return out


def warm_panel(reference: dict) -> list[list[str]]:
    """PANEL of the 65 permutation classes of the 228 matrices, each as the
    list of its members: the classes ranked by mean recorded cost (summed
    over the five classes of graphs), taken at evenly spaced ranks so that
    cheap and costly matrices both appear."""
    classes = {}
    for rows in common.matrix_rows():
        classes.setdefault(min(relabelings(rows)), []).append(rows)
    cost = {k: sum(reference[f"{r}|{c}"]["seconds"] for r in members for c in common.CLASSES)
            / len(members) for k, members in classes.items()}
    ranked = sorted(classes, key=lambda k: (cost[k], k))
    return [classes[ranked[int((i + 0.5) * len(ranked) / PANEL)]] for i in range(PANEL)]


def schedule(workload: str, seed: int, reference: dict):
    """Endless passes.

    catalog-warm: a pass is a list of matrices, the panel of permutation
    classes, each as a seeded member, in a seeded order. Members of a class
    differ only in part names, so the seed changes the matrices but hardly
    the work of a pass.

    catalog-cold: a pass is a list of (matrix, class) processes, one matrix
    in each of the workload's classes. The matrices come from GROUPS groups
    of the same size and recorded cost (summed over those classes), each in a
    seeded order, the groups in a seeded order without reuse until all are
    used."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog-warm":
        panel = warm_panel(reference)
        while True:
            yield rng.sample([rng.choice(members) for members in panel], PANEL)
    classes = CLASSES[workload]
    cost = {r: sum(reference[f"{r}|{c}"]["seconds"] for c in classes)
            for r in common.matrix_rows()}
    groups = common.balanced_groups(common.matrix_rows(), cost, GROUPS)
    while True:
        for g in rng.sample(range(GROUPS), GROUPS):
            for k in common.balanced_order(len(groups[g]), rng):
                yield [(groups[g][k], cls) for cls in classes]


def catalog_problems(rows: str, cls: str, text: str, reference: dict) -> list[str]:
    """Compare `report_to_json` / CLI JSON output with the reference digest
    and check its certificates independently."""
    try:
        data = json.loads(text)
        counts = {int(n): c for n, c in data["counts"].items()}
        obs = [(o["graph6"], o["witnesses"]) for o in data["obstructions"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable catalog output: {type(exc).__name__}: {exc}"]
    problems = []
    want = reference[f"{rows}|{cls}"]["digest"]
    got = common.catalog_digest([g6 for g6, _ in obs], counts)
    if got != want:
        problems.append(f"catalog digest {got} != reference {want}")
    problems += check.catalog_problems(rows.split(";"), cls, obs)
    return problems


# --- catalog-warm -----------------------------------------------------------

def warm_op(rows: str, cls: str):
    """(seconds, report) of one in-process enumeration; the report is an error
    string if the call raised."""
    from mpart import obstruction, pattern

    M = pattern.parse_matrix(rows)
    t0 = time.perf_counter()
    try:
        report = obstruction.enumerate_minimal_obstructions(
            M, cls, common.CLASS_LIMITS[cls], jobs=1)
    except Exception as exc:  # a failed operation is counted, not fatal
        report = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, report


def warm_check(done, outcome, reference) -> None:
    from mpart import obstruction

    for rows, cls, report in done:
        problems = [report] if isinstance(report, str) else catalog_problems(
            rows, cls, obstruction.report_to_json(report), reference)
        outcome.record(f"{rows} {cls}", problems)


# --- catalog-cold -----------------------------------------------------------

def cold_cmd(rows: str, cls: str, data_dir: Path) -> list[str]:
    return ["enumerate", "--matrix", rows, "--class", cls,
            "--max-n", str(common.CLASS_LIMITS[cls]), "--jobs", str(len(os.sched_getaffinity(0))),
            "--data-dir", str(data_dir)]


def cold_op(rows: str, cls: str, reference: dict, traced: bool):
    """Run one cold enumeration process; returns (seconds, problems, child
    trace summary or None)."""
    work = TMP / f"{os.getpid()}-{time.monotonic_ns()}"
    data_dir = work / "data"
    argv = cold_cmd(rows, cls, data_dir)
    if traced:
        spans_file = work / "spans.bin"
        cmd = [sys.executable, str(common.BENCH_DIR / "traced_cli.py"), str(spans_file),
               repr(time.monotonic())] + argv
    else:
        cmd = [sys.executable, "-m", "mpart"] + argv
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=common.ROOT, env=common.child_env(),
                                  capture_output=True, text=True, timeout=170)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, ["no answer within 170 s"], None
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            return seconds, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"], None
        problems = catalog_problems(rows, cls, proc.stdout, reference)
        if problems:
            return seconds, problems, None
        written = sorted(line for f in data_dir.rglob("n*.g6")
                         for line in f.read_text().split())
        printed = sorted(o["graph6"] for o in json.loads(proc.stdout)["obstructions"])
        if written != printed:
            problems.append(f"catalog files hold {len(written)} graphs, output {len(printed)}")
        if not any(data_dir.rglob("manifest.json")):
            problems.append("no manifest.json written")
        child = None
        if traced:
            child = json.loads((work / "spans.bin.json").read_text())
            child["summary"] = spans.Tracer.load(spans_file).summary()
        return seconds, problems, child
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()


# --- the loop ---------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool):
    reference = common.load_json("catalogs.json")
    passes = schedule(workload, seed, reference)
    if traced:
        common.use_checkout_sources()
        setup_tracer = spans.Tracer()
        undo = setup_tracer.install()
        try:
            setup(workload, seed)
        finally:
            undo()
        return run_traced(workload, passes, reference, setup_tracer)

    t0 = time.perf_counter()
    setup(workload, seed)
    own_setup = time.perf_counter() - t0

    outcome = common.Outcome()
    enum_t = []  # one entry per catalog
    op_t = []  # one entry per operation: a matrix's five catalogs, or a cold process
    done = []
    if workload == "catalog-warm":
        for matrices in common.passes_until(passes, seconds):
            for rows in matrices:
                total = 0.0
                for cls in CLASSES[workload]:
                    dt, report = warm_op(rows, cls)
                    done.append((rows, cls, report))
                    enum_t.append(dt)
                    total += dt
                op_t.append(total)
    else:
        for processes in common.passes_until(passes, seconds):
            for rows, cls in processes:
                dt, problems, _ = cold_op(rows, cls, reference, traced=False)
                outcome.record(f"{rows} {cls}", problems)
                enum_t.append(dt)
                op_t.append(dt)
    if workload == "catalog-warm":
        warm_check(done, outcome, reference)
    rss = common.peak_rss_mb(children=workload == "catalog-cold")
    setups = common.measure_setup(workload, seed, own_setup)

    values = {
        "ops_per_s": len(op_t) / sum(op_t),
        "op_p50_ms": common.p50(op_t) * 1e3,
        "peak_rss_mb": rss,
        "setup_s": common.p50(setups),
    }
    if workload == "catalog-warm":
        print(f"{len(op_t)} matrices x {len(CLASSES[workload])} classes = {len(enum_t)} catalogs "
              f"in {sum(enum_t):.2f} s busy")
        common.report_line("matrices_per_s", values["ops_per_s"], "1/s", "JSON ops_per_s")
        common.report_line("matrix_p50_ms", values["op_p50_ms"], "ms",
                           f"JSON op_p50_ms, five catalogs, n={len(op_t)}")
    else:
        print(f"{len(op_t)} cold processes in {sum(op_t):.2f} s busy "
              "(JSON ops_per_s = enum_per_s, op_p50_ms = enum_p50_ms)")
    common.report_line("enum_per_s", len(enum_t) / sum(enum_t), "1/s")
    common.timing_lines("enum", enum_t, 1e3, "ms")
    common.report_line("setup_s", values["setup_s"], "s",
                       "median of " + ", ".join(f"{s:.3f}" for s in setups))
    common.report_line("peak_rss_mb", rss, "MB")
    outcome.error_rate_line()
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    return outcome, values, units


def run_traced(workload: str, passes, reference, setup_tracer):
    """A fixed prefix of the schedule untraced, then traced; per-layer metrics
    come from the traced pass and the busy-time ratio gives the tracing
    overhead. On catalog-warm the graph-layer metrics include the traced
    set-up, where the candidates are generated."""
    outcome = common.Outcome()
    plain = []
    traced_times = []
    extra = {}
    if workload == "catalog-warm":
        ops = [(rows, cls) for rows in next(passes)[:TRACE_OPS[workload]]
               for cls in CLASSES[workload]]
        for rows, cls in ops:
            plain.append(warm_op(rows, cls)[0])
        tracer = spans.Tracer()
        undo = tracer.install()
        done = []
        try:
            for rows, cls in ops:
                dt, report = warm_op(rows, cls)
                traced_times.append(dt)
                done.append((rows, cls, report))
        finally:
            undo()
        warm_check(done, outcome, reference)
        summary = tracer.summary()
        with_setup = spans.merge([summary, setup_tracer.summary()])
        summary.update({k: v for k, v in with_setup.items() if k.startswith("graph.")})
        tracer.dump(common.ROOT / ".bench_out" / f"spans-{workload}.bin")
    else:
        ops = next(passes)
        for rows, cls in ops:
            plain.append(cold_op(rows, cls, reference, traced=False)[0])
        children = []
        for rows, cls in ops:
            dt, problems, child = cold_op(rows, cls, reference, traced=True)
            traced_times.append(dt)
            outcome.record(f"{rows} {cls}", problems)
            if child:
                children.append(child)
        summary = spans.merge([c["summary"] for c in children])
        if children:
            extra = {
                "cli.startup_s": common.p50([c["startup_s"] for c in children]),
                "obstruction.pool.child_cpu_s": sum(c["child_cpu_s"] for c in children),
                "obstruction.pool.efficiency": (
                    sum(c["self_cpu_s"] + c["child_cpu_s"] for c in children)
                    / sum(c["wall_s"] * c["jobs"] for c in children)),
            }
        print("spans inside pool workers are not recorded; obstruction.pool.child_cpu_s "
              "is the workers' CPU time from getrusage instead")
    extra["trace.overhead_pct"] = 100.0 * (sum(traced_times) / sum(plain) - 1.0)
    return spans.report_layers(workload, ops, summary, extra, outcome)
