"""Acceptance checks: one callable per criterion, shared by the test suite
and the `mpart verify` command."""

from __future__ import annotations

import os
import random
import sys
import time
from itertools import combinations, permutations, product
from math import ceil
from pathlib import Path

from . import graph as gr
from . import obstruction as ob
from . import pattern as pat
from . import recognize as rec
from . import solver as sv


def _representatives(graphs) -> set[str]:
    """The graph6 strings of the generation table's representatives of the
    graphs' classes: for each graph G, the graph of `generation(G.n, False)`
    with G's degree sequence that a relabeling of G equals."""
    found = set()
    for G in graphs:
        degrees = sorted(map(G.degree, range(G.n)))
        pairs = list(combinations(range(G.n), 2))
        for H in gr.enumerate_graphs(G.n):
            if sorted(map(H.degree, range(H.n))) == degrees and any(
                    all(G.has_edge(p[u], p[v]) == H.has_edge(u, v) for u, v in pairs)
                    for p in permutations(range(G.n))):
                found.add(gr.to_graph6(H))
                break
    return found


def _matrices_3x3(diagonal_alphabet: str) -> list[pat.PatternMatrix]:
    """Every symmetric 3x3 matrix with diagonal entries from the alphabet."""
    return [pat.make_matrix([d[0] + o[0] + o[1], o[0] + d[1] + o[2], o[1] + o[2] + d[2]])
            for d in product(diagonal_alphabet, repeat=3) for o in product("01*", repeat=3)]


def _diag_star_free_matrices() -> list[pat.PatternMatrix]:
    """The 228 diagonal-star-free 2x2 and 3x3 matrices, 2x2 first."""
    two = [pat.make_matrix([d[0] + o, o + d[1]]) for d in product("01", repeat=2) for o in "01*"]
    return two + _matrices_3x3("01")


def _oracle_disagreements(matrices, graphs) -> int:
    """How many (matrix, graph) pairs solve and exists_partition disagree on."""
    return sum((sv.solve(G, M) is None) != (sv.exists_partition(G, M) is None)
               for M in matrices for G in graphs)


# --- criteria -------------------------------------------------------------

def check_odd_cycle_obstructions():
    """König's theorem up to the class limit, eight vertices: the minimal
    obstructions to two independent sets (0*;*0) are C3, C5 and C7, and
    those to two cliques (1*;*1) their complements."""
    limit = ob.CLASS_LIMITS["all"]
    got = [{g6 for g6, _ in ob.enumerate_minimal_obstructions(
        pat.make_kl_matrix(k, ell), "all", limit).obstructions} for k, ell in ((2, 0), (0, 2))]
    cycles = [gr.cycle(3), gr.cycle(5), gr.cycle(7)]
    want = [_representatives(cycles), _representatives(map(gr.complement, cycles))]
    return got == want, f"found {sorted(got[0])} under 0*;*0, {sorted(got[1])} under 1*;*1"


def check_split_characterization():
    """Földes and Hammer up to the class limit, eight vertices: the minimal
    obstructions to a split partition (0*;*1) are 2K2, C4 and C5, and solve
    agrees with exists_partition on every graph up to six vertices."""
    M = pat.make_kl_matrix(1, 1)
    got = {g6 for g6, _ in ob.enumerate_minimal_obstructions(
        M, "all", ob.CLASS_LIMITS["all"]).obstructions}
    want = _representatives(
        [gr.disjoint_union(gr.complete(2), gr.complete(2)), gr.cycle(4), gr.cycle(5)])
    mismatches = _oracle_disagreements(
        [M], [G for n in range(1, 7) for G in gr.enumerate_graphs(n)])
    return got == want and mismatches == 0, f"found {sorted(got)}, oracle mismatches {mismatches}"


def check_feder2008_bound():
    """Under a matrix with no star, no minimal obstruction has more than
    feder2008_bound(k, ell) = (k + 1)(ell + 1) vertices: checked on every
    star-free 2x2 and 3x3 matrix up to the class limit, where 26 of the 72
    have an obstruction of exactly that order."""
    limit = ob.CLASS_LIMITS["all"]
    matrices = [M for M in _diag_star_free_matrices() if not any(pat.STAR in r for r in M.rows)]
    above = reached = 0
    for M in matrices:
        bound = ob.feder2008_bound(*M.kl)
        orders = ob.enumerate_minimal_obstructions(M, "all", limit).counts
        above += max(orders, default=0) > bound
        reached += bound in orders
    return len(matrices) == 72 and above == 0 and reached == 26, (
        f"{len(matrices)} star-free matrices, n <= {limit}: {above} with an obstruction "
        f"above the bound, {reached} with one at it")


def check_class_patterns():
    """The lemma behind obstruction.decided_by_pattern, for each 2-part
    pattern a class lists: each member up to the class limit has sides, from
    the class's recognizer, that validate against the pattern's own 2x2
    matrix, and each of the 228 matrices that star_blocks says embeds the
    pattern has its diagonals, and a star between them, at the parts the map
    gives.  That is the same as validating every member against every such
    matrix: a 2-part assignment reads only those three entries of M.  The
    cobipartite members are the complements of the bipartite candidates."""
    matrices = _diag_star_free_matrices()
    failures = 0
    details = []
    for class_name, (patterns, split, _, dual) in ob._CLASSES.items():
        for pattern in (p for p in patterns if len(p) == 2):
            own = pat.make_matrix([pattern[0] + pat.STAR, pat.STAR + pattern[1]])
            members = [gr.complement(G) if dual else G
                       for n in range(1, ob.CLASS_LIMITS[class_name] + 1)
                       for G in map(gr.generation(n, split).graph,
                                    ob._candidates(dual or class_name, n)[0])]
            sides = [(G, rec.RECOGNIZERS[class_name](G)) for G in members]
            failures += sum(side is None or not sv.validate(G, own, side) for G, side in sides)
            pairs = [M.star_blocks[pattern] + (M,) for M in matrices if pattern in M.star_blocks]
            failures += sum((M.rows[p][p], M.rows[q][q], M.rows[p][q]) != (*pattern, pat.STAR)
                            for p, q, M in pairs)
            details.append(f"{class_name} {pattern}: {len(members)} members, {len(pairs)} matrices")
    return failures == 0, f"{'; '.join(details)}; {failures} failures"


def check_theorem5():
    details = []
    ok = True
    for n in (1, 2, 3):
        M, G = ob.construct_theorem5(n)
        size_ok = G.n == ob.theorem5_size(n)
        split_ok = rec.split_partition(G) is not None
        status, _ = ob.classify_minimality(G, M)
        ok = ok and size_ok and split_ok and status == "minimal"
        details.append(f"n={n}: {G.n} vertices, split={split_ok}, {status}")
    orders = [7, 15, 33, 87, 273, 949, 3461, 12903, 48657, 184797]
    sizes_ok = [ob.theorem5_size(n) for n in range(1, 11)] == orders
    ok = ok and sizes_ok
    return ok, "; ".join(details)


def check_gt_family():
    M = pat.make_m_kt(3, 1)
    Mc = pat.complement_matrix(M)
    details = []
    ok = True
    for t in (3, 4, 5, 6):
        G = ob.construct_gt(t)
        chordal = rec.is_chordal(G) is not None
        # a chordal graph has an induced 2K2 exactly when it is not split
        # (Földes and Hammer, which split-characterization pins)
        has_2k2 = rec.split_partition(G) is None
        g30 = sv.solve(G, pat.make_kl_matrix(3, 0)) is not None
        g21 = sv.solve(G, pat.make_kl_matrix(2, 1)) is not None
        status, _ = ob.classify_minimality(G, M)
        H = gr.complement(G)
        co12 = sv.solve(H, pat.make_kl_matrix(1, 2)) is not None
        co03 = sv.solve(H, pat.make_kl_matrix(0, 3)) is not None
        co_status, _ = ob.classify_minimality(H, Mc)
        all_ok = (chordal and has_2k2 and g30 and g21 and status == "minimal"
                  and co12 and co03 and co_status == "minimal")
        ok = ok and all_ok
        details.append(f"t={t}:{'ok' if all_ok else 'FAIL'}")
    return ok, " ".join(details)


def random_split_graph(rng: random.Random, n: int) -> gr.Graph:
    c = rng.randint(0, n)
    p = rng.random()
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    for u in range(c):
        for v in range(c, n):
            if rng.random() < p:
                edges.append((u, v))
    return gr.from_edges(n, edges)


def random_bipartite_graph(rng: random.Random, n: int) -> gr.Graph:
    n1 = rng.randint(0, n)
    p = rng.random()
    edges = [(u, v) for u in range(n1) for v in range(n1, n) if rng.random() < p]
    return gr.from_edges(n, edges)


def _random_matrix(rng: random.Random, diagonal: str, k: int = 0) -> pat.PatternMatrix:
    """Symmetric matrix with this diagonal; the entries above it are drawn row
    by row, from "01" between two of the first k parts and from "01*" otherwise."""
    m = len(diagonal)
    rows = [[d] * m for d in diagonal]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = rng.choice("01" if j < k else "01*")
    return pat.make_matrix(["".join(r) for r in rows])


def _homogeneity_violations(seed: int, instance):
    """Solve random instances until 1000 are partitionable and count the parts
    of their witnesses with too small a homogeneous class.  instance(rng) gives
    (G, M, need), need(p, size) the least class size part p must reach, or None."""
    rng = random.Random(seed)
    done = 0
    violations = 0
    attempts = 0
    while done < 1000:
        attempts += 1
        G, M, need = instance(rng)
        w = sv.solve(G, M)
        if w is None:
            continue
        done += 1
        parts: dict[int, list[int]] = {}
        for v, p in enumerate(w.parts):
            parts.setdefault(p, []).append(v)
        for p, verts in parts.items():
            least = need(p, len(verts))
            if least is not None:
                classes = rec.homogeneity_report(G, verts)
                violations += max(map(len, classes), default=0) < least
    return violations == 0, f"{done} instances ({attempts} attempts), {violations} violations"


def check_prop2_homogeneity():
    def instance(rng):
        k = rng.randint(1, 4)
        n = min(24, k + int(rng.expovariate(0.18)))
        M = _random_matrix(rng, "0" * k, k)
        return random_split_graph(rng, n), M, lambda p, size: ceil((size - 1) / 2 ** (k - 1))

    return _homogeneity_violations(12345, instance)


def check_prop4_homogeneity():
    def instance(rng):
        k = rng.randint(1, 3)
        ell = rng.randint(0, 2)
        n = min(20, 1 + int(rng.expovariate(0.2)))
        M = _random_matrix(rng, "0" * k + "1" * ell, k)
        return (random_bipartite_graph(rng, n), M,
                lambda p, size: ceil(size / 2 ** (2 * ell)) if p < k else None)

    return _homogeneity_violations(54321, instance)


def check_solver_exactness():
    """solve and exists_partition agree on whether a partition exists, for
    every graph up to five vertices under each of the 729 3x3 matrices."""
    matrices = _matrices_3x3("01*")
    graphs = [G for n in range(1, 6) for G in gr.enumerate_graphs(n)]
    disagreements = _oracle_disagreements(matrices, graphs)
    return disagreements == 0, (f"{len(matrices)} matrices x {len(graphs)} graphs, "
                                f"{disagreements} disagreements")


def check_solve_split_equivalence():
    rng = random.Random(777)
    disagreements = 0
    for _ in range(1000):
        n = rng.randint(1, 14)
        G = random_split_graph(rng, n)
        m = rng.randint(1, 4)
        M = _random_matrix(rng, "".join(rng.choice("01") for _ in range(m)))
        s1 = sv.solve(G, M)
        s2 = sv.solve_split(G, M)
        if (s1 is None) != (s2 is None):
            disagreements += 1
        elif s2 is not None and not sv.validate(G, M, s2.parts):
            disagreements += 1
    return disagreements == 0, f"1000 pairs, {disagreements} disagreements"


DETERMINISM_TIMEOUT = 50.0  # seconds, inside the criterion's 60 s budget


def check_enumeration_determinism():
    """Enumerate a split catalog with obstructions at three orders in two
    fresh processes at once, with PYTHONHASHSEED 0 and 1, both run from the
    directory holding this package: exit codes, stdout and catalog files must
    agree.  Children not done within DETERMINISM_TIMEOUT are killed, and fail."""
    import subprocess
    import tempfile

    root = str(Path(__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "mpart", "enumerate", "--matrix", "0*1;*0*;1*0",
            "--class", "split", "--max-n", "9", "--data-dir"]
    with tempfile.TemporaryDirectory() as td:
        dirs = [Path(td, seed) for seed in "01"]
        procs = []
        try:
            for d in dirs:
                env = {**os.environ, "PYTHONHASHSEED": d.name, "PYTHONPATH": root}
                procs.append(subprocess.Popen(argv + [str(d)], cwd=root, env=env, text=True,
                                              stdout=subprocess.PIPE))
            deadline = time.monotonic() + DETERMINISM_TIMEOUT
            outs = [p.communicate(timeout=max(0.0, deadline - time.monotonic()))[0]
                    for p in procs]
        except subprocess.TimeoutExpired:
            return False, f"not done within {DETERMINISM_TIMEOUT:g}s, both killed"
        finally:
            for p in procs:
                p.kill()
                p.communicate()
        runs = [(p.returncode, out, {str(f.relative_to(d)): f.read_bytes()
                                     for f in d.rglob("*") if f.is_file()})
                for p, out, d in zip(procs, outs, dirs)]
    (rc0, _, files), (rc1, _, _) = runs
    same = runs[0] == runs[1]
    return same and rc0 == 0, (f"PYTHONHASHSEED 0 vs 1: exit {rc0} and {rc1}, {len(files)} "
                               f"catalog files, {'identical' if same else 'DIFFER'}")


def check_bound_consistency():
    worst_split = 0
    worst_bip = 0
    violations = 0
    decided = {"split": 0, "bipartite": 0}
    for M in _diag_star_free_matrices():
        k, ell = M.kl
        for class_name in decided:
            decided[class_name] += ob.decided_by_pattern(M, class_name)
        rep = ob.enumerate_minimal_obstructions(M, "split", ob.CLASS_LIMITS["split"])
        for _, cert in rep.obstructions:
            worst_split = max(worst_split, cert.graph.n)
            if cert.graph.n > ob.theorem1_bound(k, ell):
                violations += 1
        rep = ob.enumerate_minimal_obstructions(M, "bipartite", ob.CLASS_LIMITS["bipartite"])
        for _, cert in rep.obstructions:
            worst_bip = max(worst_bip, cert.graph.n)
            if cert.graph.n > ob.theorem4_bound(k, ell):
                violations += 1
    return violations == 0, (
        f"largest split order {worst_split}, largest bipartite order {worst_bip}, "
        f"{violations} bound violations; {decided['split']} split and {decided['bipartite']} "
        f"bipartite pairs decided by a class pattern"
    )


# --- harness --------------------------------------------------------------

def run_criterion(name: str, budget: float, check) -> tuple[bool, str]:
    """(passed, line): run one criterion's check, timed.  It passes when the
    check holds within its budget in seconds; the line is PASS or FAIL, the
    name, the seconds taken and what the check measured, tab-separated."""
    t0 = time.perf_counter()
    ok, measured = check()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= budget
    return ok, f"{'PASS' if ok else 'FAIL'}\t{name}\t{elapsed:.2f}s\t{measured}"


CRITERIA = [
    # (name, budget seconds, level, callable)
    ("odd-cycle-obstructions", 10, "quick", check_odd_cycle_obstructions),
    ("split-characterization", 30, "quick", check_split_characterization),
    ("feder2008-bound", 120, "quick", check_feder2008_bound),
    ("class-patterns", 120, "full", check_class_patterns),
    ("theorem5-construction", 61, "quick", check_theorem5),
    ("gt-family", 60, "quick", check_gt_family),
    ("prop2-homogeneity", 120, "full", check_prop2_homogeneity),
    ("prop4-homogeneity", 120, "full", check_prop4_homogeneity),
    ("solver-exactness", 300, "full", check_solver_exactness),
    ("solve-split-equivalence", 120, "quick", check_solve_split_equivalence),
    ("enumeration-determinism", 60, "quick", check_enumeration_determinism),
    ("bound-consistency", 600, "full", check_bound_consistency),
]
