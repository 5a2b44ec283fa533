"""solve-deep: each instance is decided by `solve` and then by `solve_split`.

A run is a sequence of whole passes, as many as end nearest to --seconds.
Every pass has the same mix: the Theorem 5 graphs for n = 2 and 3, three
seeded vertex deletions of the n = 3 graph, each from a band of similar cost,
and one of GROUPS cost-balanced groups of a fixed pool of random split
instances. So the figures do not depend on how many passes fit in a run, and
the work of a pass hardly depends on the seed."""

from __future__ import annotations

import random
import time

import check
import common
import instances
import spans

TRACE_RANDOM = 300  # random instances in the fixed prefix of the traced run
GROUPS = 3  # the pool is split into this many groups; a pass runs one
# Vertices of the Theorem 5 graph for n = 3 whose deletions cost about the
# same: the special vertex, clique and mates (milliseconds), the subset
# vertices that contain clique vertex 1 (about 2 s for solve plus
# solve_split), and those that do not (about 4 s). A pass deletes one of each.
DELETION_BANDS = (range(0, 13), range(13, 23), range(23, 33))


def setup(workload: str, seed: int):
    """Cold import plus the Theorem 5 graphs for n = 2 and 3."""
    common.use_checkout_sources()
    return {k: build(f"theorem5 n={k}", "theorem5", *instances.theorem5_instance(k))
            for k in (2, 3)}


def theorem5_minus(v: int):
    order, edges, rows = instances.theorem5_instance(3)
    keep = [u for u in range(order) if u != v]
    pos = {u: i for i, u in enumerate(keep)}
    sub = [(pos[a], pos[b]) for a, b in edges if v not in (a, b)]
    return build(f"theorem5 n=3 minus {v}", "theorem5", order - 1, sub, rows)


def build(label, kind, n, edges, rows):
    from mpart import graph, pattern

    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return {"label": label, "kind": kind, "G": graph.from_edges(n, edges),
            "M": pattern.make_matrix(rows), "rows": rows, "adj": adj}


def expected(inst, reference) -> bool:
    label = inst["label"]
    if label.startswith("pool "):
        return reference["pool_partitionable"][int(label[5:])] == "1"
    if " minus " in label:
        return reference["theorem5"]["3"]["deletions_partitionable"][int(label.split()[-1])] == "1"
    return reference["theorem5"][label[-1]]["partitionable"]


def balanced_groups(reference) -> list[list[int]]:
    """The pool minus excluded instances, in GROUPS groups of the same size and
    recorded total cost (see common.balanced_groups)."""
    answers, cost = reference["pool_partitionable"], reference["pool_seconds"]
    return common.balanced_groups([i for i, a in enumerate(answers) if a != "x"], cost, GROUPS)


def schedule(workload: str, seed: int, reference: dict, theorem5: dict):
    """Endless passes, each a lazy sequence of instances with the same mix:
    one balanced group of the pool in a seeded order that pairs cheap and
    costly instances, with the Theorem 5 graphs for n = 2 and 3 and one
    seeded vertex deletion of the n = 3 graph from each of DELETION_BANDS
    spread evenly among them, so that the pool instances, and with them the
    median, span the whole pass. The groups are used in a seeded order,
    without reuse until all are used."""
    rng = random.Random(f"{workload}:{seed}")
    groups = balanced_groups(reference)

    def one_pass(group: list[int], deletions: list[int], order: list[int]):
        deep = [theorem5[2], theorem5[3]] + [theorem5_minus(v) for v in deletions]
        step = len(order) // len(deep)
        for j, k in enumerate(order):
            if j % step == 0 and j // step < len(deep):
                yield deep[j // step]
            i = group[k]
            yield build(f"pool {i}", "random", *instances.random_split_instance(i))

    while True:
        for g in rng.sample(range(GROUPS), GROUPS):
            yield one_pass(groups[g], [rng.choice(band) for band in DELETION_BANDS],
                           common.balanced_order(len(groups[g]), rng))


def solve_both(inst):
    from mpart import solver

    G, M = inst["G"], inst["M"]
    t0 = time.perf_counter()
    a = solver.solve(G, M)
    t1 = time.perf_counter()
    b = solver.solve_split(G, M)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, a, b


def problems_of(inst, a, b, reference) -> list[str]:
    want = expected(inst, reference)
    out = []
    for name, w in (("solve", a), ("solve_split", b)):
        if (w is not None) != want:
            out.append(f"{name} says {'yes' if w is not None else 'no'}, reference "
                       f"{'yes' if want else 'no'}")
        elif w is not None and not check.witness_ok(inst["adj"], inst["rows"], list(w.parts)):
            out.append(f"{name} witness breaks the matrix")
    return out


def decide(inst, reference, outcome) -> tuple[float, float]:
    """Solve one instance both ways, check the answers into `outcome`, and
    return the seconds of solve and of solve_split."""
    try:
        ts, tp, a, b = solve_both(inst)
        problems = problems_of(inst, a, b, reference)
    except Exception as exc:  # a failed operation is counted, not fatal
        ts, tp, problems = 0.0, 0.0, [f"{type(exc).__name__}: {exc}"]
    outcome.record(inst["label"], problems)
    return ts, tp


def check_reference(reference) -> None:
    if (reference["pool_seed"], reference["pool_size"]) != (instances.POOL_SEED, instances.POOL_SIZE):
        raise common.BenchError("reference/deep.json was recorded for another instance pool")


def run(workload: str, seed: int, seconds: float, traced: bool):
    t0 = time.perf_counter()
    theorem5 = setup(workload, seed)
    own_setup = time.perf_counter() - t0
    reference = common.load_json("deep.json")
    check_reference(reference)
    passes = schedule(workload, seed, reference, theorem5)
    if traced:
        first = list(next(passes))
        prefix = ([inst for inst in first if inst["kind"] == "theorem5"]
                  + [inst for inst in first if inst["kind"] == "random"][:TRACE_RANDOM])
        return run_traced(workload, prefix, reference)

    outcome = common.Outcome()
    solve_t, split_t = [], []
    theorem5_lines = []
    for instances_of_pass in common.passes_until(passes, seconds):  # whole passes: same mix
        for inst in instances_of_pass:
            ts, tp = decide(inst, reference, outcome)
            solve_t.append(ts)
            split_t.append(tp)
            if inst["kind"] == "theorem5":
                theorem5_lines.append(f"  {inst['label']}: solve {ts:.3f} s, solve_split {tp:.3f} s")
    rss = common.peak_rss_mb(children=False)
    setups = common.measure_setup(workload, seed, own_setup)

    both = [a + b for a, b in zip(solve_t, split_t)]
    values = {
        "ops_per_s": len(both) / sum(both),
        "op_p50_ms": common.p50(both) * 1e3,
        "peak_rss_mb": rss,
        "setup_s": common.p50(setups),
    }
    print(f"{len(both)} instances ({len(theorem5_lines)} Theorem 5) in {sum(both):.2f} s busy")
    print("\n".join(theorem5_lines))
    common.report_line("instances_per_s", values["ops_per_s"], "1/s", "JSON ops_per_s")
    common.report_line("instance_p50_ms", values["op_p50_ms"], "ms", "JSON op_p50_ms")
    common.report_line("solve_per_s", len(solve_t) / sum(solve_t), "1/s")
    common.timing_lines("solve", solve_t, 1e6, "us")
    common.report_line("split_solve_per_s", len(split_t) / sum(split_t), "1/s")
    common.timing_lines("split_solve", split_t, 1e3, "ms")
    common.report_line("setup_s", values["setup_s"], "s",
                       "median of " + ", ".join(f"{s:.3f}" for s in setups))
    common.report_line("peak_rss_mb", rss, "MB")
    outcome.error_rate_line()
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    return outcome, values, units


def run_traced(workload: str, prefix, reference):
    outcome = common.Outcome()
    plain = sum(sum(solve_both(inst)[:2]) for inst in prefix)
    tracer = spans.Tracer()
    undo = tracer.install()
    traced = 0.0
    try:
        for inst in prefix:
            tracer.set_tag(inst["kind"])
            traced += sum(decide(inst, reference, outcome))
    finally:
        undo()
    tracer.dump(common.ROOT / ".bench_out" / f"spans-{workload}.bin")
    extra = {"trace.overhead_pct": 100.0 * (traced / plain - 1.0)}
    return spans.report_layers(workload, prefix, tracer.summary(), extra, outcome)
