"""Exact partition solving against a pattern matrix.

The generic solver is a backtracking search over per-vertex candidate part
sets (bitmasks) with forward checking.  Each branch narrows its own copy of
the domain list, so backtracking restores nothing, and a completed list, all
singletons, is the witness.  Variable order is minimum-remaining-values with
index tiebreak, values are tried lowest part index first, so witnesses are
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .errors import DiagonalStar, InternalError, NotSplit, PartOutOfRange, TooLarge
from .graph import Graph
from .pattern import ONE, STAR, PatternMatrix


@dataclass(frozen=True, slots=True)
class PartAssignment:
    """Total map vertex -> part index."""

    parts: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps({"parts": list(self.parts)})


def _parts_of(assignment) -> tuple[int, ...]:
    if isinstance(assignment, PartAssignment):
        return assignment.parts
    return tuple(assignment)


def validate(G: Graph, M: PatternMatrix, assignment) -> bool:
    """Check an assignment against all pair constraints of the matrix."""
    parts = _parts_of(assignment)
    n, m = G.n, M.m
    if len(parts) != n:
        raise PartOutOfRange(f"assignment covers {len(parts)} of {n} vertices")
    for p in parts:
        if not (0 <= p < m):
            raise PartOutOfRange(f"part index {p} outside 0..{m - 1}")
    rows = M.rows
    adj = G.adj
    for u in range(n):
        ru = rows[parts[u]]
        au = adj[u]
        for v in range(u + 1, n):
            e = ru[parts[v]]
            if e == STAR:
                continue
            if (e == ONE) != bool(au >> v & 1):
                return False
    return True


def solve(G: Graph, M: PatternMatrix) -> PartAssignment | None:
    """Find an assignment satisfying the matrix, or prove none exists."""
    n, m = G.n, M.m
    diag = M.diagonal()
    if STAR in diag:
        # an unrestricted diagonal part can absorb the whole graph
        return PartAssignment((diag.index(STAR),) * n)
    adj = G.adj
    adj_ok, nonadj_ok = M.masks

    def search(dom: list[int], todo: int) -> list[int] | None:
        """Complete dom over the vertices in todo, each branch on its own copy."""
        if todo == 0:
            return dom
        best_v = -1
        best_sz = m + 1
        t = todo
        while t:
            low = t & -t
            v = low.bit_length() - 1
            t ^= low
            sz = dom[v].bit_count()
            if sz < best_sz:
                best_sz = sz
                best_v = v
                if sz == 1:
                    break
        v = best_v
        rest = todo & ~(1 << v)
        row = adj[v]
        cand = dom[v]
        while cand:
            low = cand & -cand
            p = low.bit_length() - 1
            cand ^= low
            aok = adj_ok[p]
            nok = nonadj_ok[p]
            new = dom[:]
            new[v] = low
            t = rest
            while t:
                lu = t & -t
                u = lu.bit_length() - 1
                t ^= lu
                d = new[u] & (aok if row >> u & 1 else nok)
                if d == 0:
                    break
                new[u] = d
            else:
                done = search(new, rest)
                if done is not None:
                    return done
        return None

    done = search([(1 << m) - 1] * n, (1 << n) - 1)
    if done is None:
        return None
    return PartAssignment(tuple(d.bit_length() - 1 for d in done))


def solve_split(G: Graph, M: PatternMatrix) -> PartAssignment | None:
    """Split-graph solving; equivalent in solvability to solve().

    Raises NotSplit for a non-split graph, then DiagonalStar for a star on
    the diagonal.  With a star in the cross block C (M.c_star) the witness
    is read off the split partition without search; split_partition sorts
    the degree sequence, O(n log n).
    Otherwise the generic search decides: its forward checking already
    keeps each zero-diagonal part to at most one clique vertex and each
    one-diagonal part to at most one independent vertex.
    """
    from .recognize import split_partition  # local import to avoid a cycle

    sp = split_partition(G)
    if sp is None:
        raise NotSplit("input graph is not split")
    d = M.diagonal()
    if STAR in d:
        raise DiagonalStar(f"diagonal {d!r} contains a star")
    if M.c_star is None:
        return solve(G, M)
    p, q = M.c_star
    parts = [p] * G.n
    for v in sp.clique:
        parts[v] = q
    out = PartAssignment(tuple(parts))
    if not validate(G, M, out):
        raise InternalError(f"C-star witness {out.parts} fails {M.to_text()}")
    return out


def count_partitions(G: Graph, M: PatternMatrix) -> int:
    """Number of valid total assignments, by full enumeration through validate."""
    if G.n > 10 or M.m > 4:
        raise TooLarge(f"count_partitions guarded at n <= 10, m <= 4 (n={G.n}, m={M.m})")
    count = 0
    for cand in product(range(M.m), repeat=G.n):
        if validate(G, M, cand):
            count += 1
    return count
