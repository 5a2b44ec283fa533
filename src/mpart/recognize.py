"""Graph-class recognition and homogeneous-set analysis.

Each recognizer returns a tuple over the vertices, or None outside its
class.  split_partition, is_bipartite and is_cobipartite give each vertex
its side, an index into the class's part pattern "01", "00" or "11".
"""

from __future__ import annotations

from .errors import MPartError
from .graph import Graph, complement


def split_partition(G: Graph) -> tuple[int, ...] | None:
    """Each vertex's side of a split partition, 1 on the clique and 0 on the
    independent set, or None; the clique is as large as possible and
    lexicographically least among valid cliques of that size.

    Read off the degree sequence in O(n log n) (Hammer and Simeone, The
    splittance of a graph, 1981).  Order the vertices by (-degree, index) and
    let h = max{i : d_i >= i-1}; G is split iff the h largest degrees sum to
    h(h-1) plus the rest, and then omega = h.  Every vertex of degree >= h lies
    in every maximum split clique.  Any choice among the degree-(h-1)
    vertices is valid, because an independent vertex of degree h-1 misses
    exactly the one clique vertex with no independent neighbour; so taking
    the lowest indices gives the lexicographically least clique.
    """
    deg = [G.degree(v) for v in range(G.n)]
    order = sorted(range(G.n), key=lambda v: (-deg[v], v))
    d = [deg[v] for v in order]
    h = 0
    for i, di in enumerate(d, start=1):
        if di >= i - 1:
            h = i
    if sum(d[:h]) != h * (h - 1) + sum(d[h:]):
        return None
    side = [0] * G.n
    for v in order[:h]:
        side[v] = 1
    return tuple(side)


def is_bipartite(G: Graph):
    """2-coloring as a tuple of 0/1 colors, or None."""
    color = [-1] * G.n
    for s in range(G.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            row = G.adj[v]
            t = row
            while t:
                low = t & -t
                u = low.bit_length() - 1
                t ^= low
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return tuple(color)


def is_cobipartite(G: Graph):
    """Co-2-coloring (each color class a clique), or None."""
    return is_bipartite(complement(G))


def is_chordal(G: Graph):
    """Perfect elimination ordering via maximum cardinality search, or None.

    The search numbers the vertices one at a time, each time the lowest
    unnumbered vertex with the most numbered neighbours.  G is chordal
    exactly when the reverse of that numbering is a perfect elimination
    ordering (Tarjan and Yannakakis, SIAM J. Comput. 13, 1984): the
    neighbours of each vertex numbered before it form a clique.  That is
    tested as each vertex is numbered, so one pass decides."""
    n = G.n
    weight = [0] * n
    numbered = 0
    visit: list[int] = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not (numbered >> v & 1) and (best == -1 or weight[v] > weight[best]):
                best = v
        earlier = G.adj[best] & numbered
        t = earlier
        while t:
            low = t & -t
            t ^= low
            if earlier & ~(G.adj[low.bit_length() - 1] | low):
                return None
        visit.append(best)
        numbered |= 1 << best
        t = G.adj[best] & ~numbered
        while t:
            low = t & -t
            u = low.bit_length() - 1
            t ^= low
            weight[u] += 1
    return tuple(reversed(visit))


def homogeneity_report(G: Graph, P) -> tuple[tuple[int, ...], ...]:
    """Group a uniform part by equality of neighborhoods outside it, as
    sorted classes of sorted vertices.

    Each class is then a homogeneous set whenever outside adjacency fully
    determines membership, which is what the clique/independent
    precondition guarantees for parts of star-free blocks.
    """
    verts = sorted(set(P))
    pmask = 0
    for v in verts:
        if not (0 <= v < G.n):
            raise MPartError(f"vertex {v} outside 0..{G.n - 1}")
        pmask |= 1 << v
    inner = [G.adj[v] & pmask for v in verts]
    is_indep = all(x == 0 for x in inner)
    is_clique = all(inner[i] == pmask & ~(1 << v) for i, v in enumerate(verts))
    if verts and not (is_indep or is_clique):
        raise MPartError("part induces neither a clique nor an independent set")
    groups: dict[int, list[int]] = {}
    for v in verts:
        groups.setdefault(G.adj[v] & ~pmask, []).append(v)
    return tuple(sorted(tuple(g) for g in groups.values()))


# class name -> its recognizer
RECOGNIZERS = {
    "split": split_partition,
    "bipartite": is_bipartite,
    "cobipartite": is_cobipartite,
    "chordal": is_chordal,
}
