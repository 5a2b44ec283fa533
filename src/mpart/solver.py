"""Exact partition solving against a pattern matrix.

The generic solver is a backtracking search over per-vertex candidate part
sets (bitmasks) with forward checking.  Each branch narrows its own copy of
the domain list, so backtracking restores nothing, and a completed list, all
singletons, is the witness.  Variable order is minimum-remaining-values with
index tiebreak, values are tried lowest part index first, so witnesses are
deterministic.  Forward checking skips the neighbours of a vertex whose part
has no 0 in its row, and the non-neighbours when it has no 1: those keep
every part.

The search skips symmetric copies of subtrees (Freuder, *Eliminating
interchangeable values in constraint satisfaction problems*, AAAI 1991).
Parts p and q are interchangeable when they have the same diagonal and the
same entry against every other part (`PatternMatrix.interchangeable`).  Each
branch passes down the mask of parts that branching decisions have taken;
part p is skipped when it is unused and some lower part q interchangeable
with it is unused too.  Every domain is then an intersection of part masks
of used parts, which treat p and q alike, so q is in each domain exactly when
p is; the lowest such q was tried first and its subtree failed, and p's
subtree is its image under swapping p and q, so it fails too.  Only failing
subtrees are skipped, so the first solution, and hence the witness, is the
one the unpruned search finds.  A part is only ever taken when its lower
twins are all taken, so a used part has no unused lower twin, and the test
reduces to "p has an unused lower twin".

The search also jumps back over branching decisions that a failure does not
depend on: forward checking with conflict-directed backjumping (FC-CBJ;
Prosser, *Hybrid algorithms for the constraint satisfaction problem*,
Computational Intelligence 9(3), 1993).  Next to the n domains, the list each
branch copies holds n masks: mask u is the set of branched vertices whose
parts removed a part from u's domain.  A failing search leaves in `conflict`
a set C of vertices branched above it such that no M-partition gives those
vertices their current parts.  It holds by induction from the leaves up.  In
the search at v, each part p of v's domain is excluded by a set of vertices
branched above v:

- p empties u's domain: by u's mask S.  A vertex that removed nothing from
  u's domain does not narrow it, so the parts of S alone leave u exactly its
  current domain, and v = p allows none of it.
- The search below v = p fails with a set C containing v: by C minus v.  If
  C does not contain v, C is a set of vertices above v that no M-partition
  extends, so the search at v returns C at once without trying its other
  parts: their subtrees hold no solution either.
- p is skipped as the image of a lower unused twin q: by whatever excluded
  q.  No branched vertex has part p or q, so swapping p and q in an
  M-partition that gives v part p keeps their parts and gives v part q.

Every part missing from v's domain was removed by a vertex in v's own mask.
So the union of v's mask and each part's set, minus v, is a set C for the
search at v.  A jump skips only subtrees that hold no solution, and the masks
never change a domain or `used`, so every search still visited sees the same
domains, branches on the same vertex and skips the same twins as the search
without jumps.  Depth-first, both reach the same first solution: the witness
is unchanged, and the twin skip's argument above holds as it stands.
"""

from __future__ import annotations

from .errors import InternalError, MPartError
from .graph import Frozen, Graph
from .pattern import ONE, STAR, PatternMatrix


class PartAssignment(Frozen):
    """Total map vertex -> part index."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        object.__setattr__(self, "parts", parts)


def validate(G: Graph, M: PatternMatrix, parts) -> bool:
    """Check a per-vertex sequence of part indices against all pair
    constraints of the matrix."""
    n, m = G.n, M.m
    if len(parts) != n:
        raise MPartError(f"assignment covers {len(parts)} of {n} vertices")
    for p in parts:
        if not (0 <= p < m):
            raise MPartError(f"part index {p} outside 0..{m - 1}")
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
    if (star := M.star_blocks.get(STAR)) is not None:
        # an unrestricted diagonal part can absorb the whole graph
        return PartAssignment(star * n)
    adj = G.adj
    adj_ok, nonadj_ok = M.masks
    twins = M.interchangeable
    full = (1 << m) - 1
    conflict = 0  # set by each failing search: the branched vertices it depends on

    def search(state: list[int], todo: int, used: int) -> list[int] | None:
        """Complete state over the vertices in todo, each branch on its own copy.

        state holds n domains, then n masks: mask n + u is the set of branched
        vertices that removed a part from u's domain.  used is the mask of parts
        that branching has taken.  On failure, conflict is the set of branched
        vertices whose parts alone leave no solution."""
        nonlocal conflict
        if todo == 0:
            return state
        best_v = -1
        best_sz = m + 1
        t = todo
        while t:
            low = t & -t
            v = low.bit_length() - 1
            t ^= low
            sz = state[v].bit_count()
            if sz < best_sz:
                best_sz = sz
                best_v = v
                if sz == 1:
                    break
        v = best_v
        bit = 1 << v
        rest = todo & ~bit
        row = adj[v]
        cand = state[v]
        why = state[n + v]  # the branched vertices that removed v's missing parts
        while cand:
            low = cand & -cand
            p = low.bit_length() - 1
            cand ^= low
            if twins[p] & ~used:
                continue  # the image of a lower unused twin's subtree, which failed
            aok = adj_ok[p]
            nok = nonadj_ok[p]
            new = state[:]
            new[v] = low
            t = rest
            if aok == full:
                t &= ~row  # v's neighbours keep every part
            elif nok == full:
                t &= row
            while t:
                lu = t & -t
                u = lu.bit_length() - 1
                t ^= lu
                d = new[u]
                e = d & (aok if row >> u & 1 else nok)
                if e != d:
                    if e == 0:
                        why |= new[n + u]  # what emptied u's domain, besides v
                        break
                    new[u] = e
                    new[n + u] |= bit
            else:
                done = search(new, rest, used | low)
                if done is not None:
                    return done
                if not conflict & bit:
                    return None  # the failure below does not depend on v: jump back
                why |= conflict
        conflict = why & ~bit
        return None

    done = search([full] * n + [0] * n, (1 << n) - 1, 0)
    if done is None:
        return None
    return PartAssignment(tuple(d.bit_length() - 1 for d in done[:n]))


def solve_split(G: Graph, M: PatternMatrix) -> PartAssignment | None:
    """Split-graph solving; equivalent in solvability to solve().

    Raises MPartError for a non-split graph, then for a star on the
    diagonal.  With a star in the cross block C, M.star_blocks["01"] is
    the C-star pair (p, q): the first parts of diagonals 0 and 1 with a star
    between them.  The witness is then read off split_partition without
    search: its sides, 0 independent and 1 clique, index the pair, so the
    independent set goes to p and the clique to q.  split_partition sorts
    the degree sequence, O(n log n).  Otherwise the generic search decides:
    its forward checking already keeps each zero-diagonal part to at most
    one clique vertex and each one-diagonal part to at most one independent
    vertex.
    """
    # imported on first use, so that importing mpart does not load recognize
    from . import recognize

    sides = recognize.split_partition(G)
    if sides is None:
        raise MPartError("input graph is not split")
    if STAR in M.star_blocks:
        raise MPartError(f"diagonal {M.diagonal()!r} contains a star")
    if (pair := M.star_blocks.get("01")) is None:
        return solve(G, M)
    parts = tuple(pair[s] for s in sides)
    if not validate(G, M, parts):
        raise InternalError(f"C-star witness {parts} fails {M.to_text()}")
    return PartAssignment(parts)


def exists_partition(G: Graph, M: PatternMatrix) -> tuple[int, ...] | None:
    """The lexicographically least valid assignment, or None; the empty
    graph's, (), is falsy, so test the result with `is None`.

    An oracle for solve: a depth-first search assigns vertices 0..n-1 in order,
    lowest part first, checking each new vertex against the earlier ones entry
    by entry from M.rows and G.adj.  It shares no masks and no search with solve.
    """
    n, m = G.n, M.m
    if n > 10 or m > 4:
        raise MPartError(f"exists_partition guarded at n <= 10, m <= 4 (n={n}, m={m})")
    rows = M.rows
    adj = G.adj
    parts = [0] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        av = adj[v]
        for p in range(m):
            rp = rows[p]
            for u in range(v):
                e = rp[parts[u]]
                if e != STAR and (e == ONE) != bool(av >> u & 1):
                    break
            else:
                parts[v] = p
                if extend(v + 1):
                    return True
        return False

    return tuple(parts) if extend(0) else None
