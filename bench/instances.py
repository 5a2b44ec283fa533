"""Inputs of the benchmark, built without calling into mpart: the random split
instances of `solve-deep` and the Theorem 5 construction."""

from __future__ import annotations

import random
from itertools import combinations

POOL_SEED = 19670613
POOL_SIZE = 1500
# A pool instance that either solver cannot decide within this many seconds
# at recording time is excluded from the draws (see record.py).
POOL_CAP_S = 5.0


def random_split_instance(index: int):
    """(n, edges, rows) of random split instance `index` of the fixed pool.

    Same shape as the split-equivalence acceptance check, scaled up: a clique
    of random size, random cross edges, n = 10..40 and m = 2..4 parts."""
    rng = random.Random(f"{POOL_SEED}-{index}")
    n = rng.randint(10, 40)
    c = rng.randint(0, n)
    p = rng.random()
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    edges += [(u, v) for u in range(c) for v in range(c, n) if rng.random() < p]
    m = rng.randint(2, 4)
    cells = [["" for _ in range(m)] for _ in range(m)]
    for i in range(m):
        cells[i][i] = rng.choice("01")
    for i in range(m):
        for j in range(i + 1, m):
            cells[i][j] = cells[j][i] = rng.choice("01*")
    return n, edges, ["".join(r) for r in cells]


def theorem5_instance(n: int):
    """(order, edges, rows) of the Theorem 5 graph: the special vertex 0, the
    clique 1..2n, their independent mates 2n+1..4n (the i-th misses its own
    clique vertex), then one vertex per n-subset of the clique, adjacent to
    exactly that subset. The matrix is (2n+1) x (2n+1), zero diagonal, stars
    elsewhere except n ones at the end of the last row and column."""
    clique = list(range(1, 2 * n + 1))
    edges = [(0, b) for b in clique] + list(combinations(clique, 2))
    for i, b in enumerate(clique):
        mate = 2 * n + 1 + i
        edges.append((0, mate))
        edges += [(mate, b2) for b2 in clique if b2 != b]
    v = 4 * n + 1
    for subset in combinations(clique, n):
        edges += [(v, b) for b in subset]
        v += 1
    k = 2 * n + 1
    cells = [["0" if i == j else "*" for j in range(k)] for i in range(k)]
    for j in range(k - 1 - n, k - 1):
        cells[k - 1][j] = cells[j][k - 1] = "1"
    return v, edges, ["".join(r) for r in cells]
