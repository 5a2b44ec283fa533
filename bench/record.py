"""Record the reference answers the benchmark checks every run against.

Run from the repository root on the commit whose answers are the reference:

    python3 bench/record.py catalogs   # every (matrix, class) catalog, jobs=1
    python3 bench/record.py deep       # yes/no answers of the solve-deep inputs

The recorded `seconds` of each catalog and pool instance are kept only to
split the seeded draws by cost; they are not checked answers. Each is the
median of several timings, taken in rounds over all inputs (catalog rounds
each in another order) so that a slow phase of the machine does not skew
the ranks of the inputs it happens to time. A pool instance on which `solve` or `solve_split` runs past `instances.POOL_CAP_S`
is recorded as excluded ("x") and never drawn, so that every run ends in time.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time

import check
import common
import instances

# Timings per input; its recorded cost is their median.
CATALOG_COST_ROUNDS = 3
POOL_COST_ROUNDS = 5


def record_catalogs() -> None:
    common.use_checkout_sources()
    from mpart.graph import enumerate_graphs, enumerate_split_graphs
    from mpart.obstruction import enumerate_minimal_obstructions
    from mpart.pattern import parse_matrix

    for n in range(1, 9):
        enumerate_graphs(n)
    for n in range(1, 10):
        enumerate_split_graphs(n)
    out, timings = {}, {}
    for rows in common.matrix_rows():
        for cls in common.CLASSES:
            t0 = time.perf_counter()
            rep = enumerate_minimal_obstructions(parse_matrix(rows), cls, common.CLASS_LIMITS[cls])
            timings[rows, cls] = [time.perf_counter() - t0]
            obs = [(g6, [list(w.parts) for w in cert.witnesses]) for g6, cert in rep.obstructions]
            problems = check.catalog_problems(rows.split(";"), cls, obs)
            if problems:
                raise SystemExit(f"{rows} {cls}: {problems[:3]}")
            out[f"{rows}|{cls}"] = {
                "digest": common.catalog_digest([g6 for g6, _ in obs], rep.counts),
                "obstructions": len(obs),
            }
        print(rows, flush=True)
    order = common.matrix_rows()
    for r in range(CATALOG_COST_ROUNDS - 1):
        random.Random(r).shuffle(order)
        for rows in order:
            for cls in common.CLASSES:
                t0 = time.perf_counter()
                enumerate_minimal_obstructions(parse_matrix(rows), cls, common.CLASS_LIMITS[cls])
                timings[rows, cls].append(time.perf_counter() - t0)
        print("cost round", r + 2, flush=True)
    for (rows, cls), t in timings.items():
        out[f"{rows}|{cls}"]["seconds"] = round(common.p50(t), 4)
    (common.REFERENCE_DIR / "catalogs.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")


class _TooSlow(Exception):
    pass


def _timed(fn, *args):
    """(seconds, result) of fn(*args), or (None, None) past POOL_CAP_S."""
    def alarm(signum, frame):
        raise _TooSlow

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, instances.POOL_CAP_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
        return time.perf_counter() - t0, result
    except _TooSlow:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def record_deep() -> None:
    common.use_checkout_sources()
    from mpart.graph import delete_vertex, from_edges, to_graph6
    from mpart.obstruction import construct_theorem5
    from mpart.pattern import make_matrix
    from mpart.solver import solve, solve_split

    answers, timings = [], []
    pool = [instances.random_split_instance(i) for i in range(instances.POOL_SIZE)]
    for i, (n, edges, rows) in enumerate(pool):
        G, M = from_edges(n, edges), make_matrix(rows)
        t_solve, w = _timed(solve, G, M)
        t_split, _ = _timed(solve_split, G, M) if t_solve is not None else (None, None)
        if t_split is None:
            answers.append("x")  # excluded: a solver ran past the cap
            timings.append([0.0])
            print("excluded pool instance", i, rows, flush=True)
        else:
            answers.append("1" if w is not None else "0")
            timings.append([t_solve + t_split])
    for _ in range(POOL_COST_ROUNDS - 1):
        for i, (n, edges, rows) in enumerate(pool):
            if answers[i] != "x":
                G, M = from_edges(n, edges), make_matrix(rows)
                t0 = time.perf_counter()
                solve(G, M)
                solve_split(G, M)
                timings[i].append(time.perf_counter() - t0)
    costs = [round(common.p50(t), 6) for t in timings]
    theorem5 = {}
    for k in (2, 3):
        order, edges, rows = instances.theorem5_instance(k)
        G, M = from_edges(order, edges), make_matrix(rows)
        M0, G0 = construct_theorem5(k)
        if (to_graph6(G), M.rows) != (to_graph6(G0), M0.rows):
            raise SystemExit(f"Theorem 5 n={k}: benchmark construction differs from mpart's")
        theorem5[str(k)] = {
            "partitionable": solve(G, M) is not None,
            "deletions_partitionable": "".join(
                "1" if solve(delete_vertex(G, v), M) is not None else "0" for v in range(order)
            ) if k == 3 else "",
        }
        print("theorem5", k, flush=True)
    out = {
        "pool_seed": instances.POOL_SEED,
        "pool_size": instances.POOL_SIZE,
        "pool_cap_s": instances.POOL_CAP_S,
        "pool_partitionable": "".join(answers),
        "pool_seconds": costs,
        "theorem5": theorem5,
    }
    (common.REFERENCE_DIR / "deep.json").write_text(json.dumps(out, sort_keys=True) + "\n")


if __name__ == "__main__":
    {"catalogs": record_catalogs, "deep": record_deep}[sys.argv[1]]()
