"""Small simple graphs as bitmask adjacency rows.

Supports up to 64 vertices (single machine word per row).  Includes graph6
serialization, an exact canonical form used to deduplicate isomorphs, and
exhaustive generation of non-isomorphic graphs and split graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import BadParameters, MalformedGraph6, SelfLoop, TooLarge, VertexOutOfRange

MAX_VERTICES = 64
MAX_ENUM_ALL = 8
MAX_ENUM_SPLIT = 9


@dataclass(frozen=True)
class Graph:
    """Immutable graph; adj[v] is the neighbor bitmask of vertex v."""

    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n) if self.adj[u] >> v & 1]

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2


def from_edges(n: int, edges) -> Graph:
    if n < 0 or n > MAX_VERTICES:
        raise BadParameters(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"self loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6 (standard format, short form: n <= 62)
# ---------------------------------------------------------------------------

def to_graph6(G: Graph) -> str:
    if G.n > 62:
        raise TooLarge(f"short-form graph6 supports n <= 62, got {G.n}")
    out = [chr(G.n + 63)]
    bits = 0
    nbits = 0
    for j in range(1, G.n):
        for i in range(j):
            bits = bits << 1 | (G.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        out.append(chr((bits << (6 - nbits)) + 63))
    return "".join(out)


def parse_graph6(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise MalformedGraph6("empty string")
    n = ord(s[0]) - 63
    if not (0 <= n <= 62):
        raise MalformedGraph6(f"unsupported order byte {s[0]!r}")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise MalformedGraph6(f"expected {need} data bytes for n={n}, got {len(body)}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise MalformedGraph6(f"invalid data byte {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[npairs:]):
        raise MalformedGraph6("nonzero padding bits")
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# transformations and generators
# ---------------------------------------------------------------------------

def complement(G: Graph) -> Graph:
    full = (1 << G.n) - 1
    return Graph(G.n, tuple((full ^ G.adj[v]) & ~(1 << v) & full for v in range(G.n)))


def delete_vertex(G: Graph, v: int) -> Graph:
    if not (0 <= v < G.n):
        raise VertexOutOfRange(f"vertex {v} outside 0..{G.n - 1}")
    keep = [u for u in range(G.n) if u != v]
    return induced_subgraph(G, keep)


def induced_subgraph(G: Graph, vertices) -> Graph:
    verts = list(vertices)
    for u in verts:
        if not (0 <= u < G.n):
            raise VertexOutOfRange(f"vertex {u} outside 0..{G.n - 1}")
    pos = {u: i for i, u in enumerate(verts)}
    adj = [0] * len(verts)
    for i, u in enumerate(verts):
        row = G.adj[u]
        for w, j in pos.items():
            if row >> w & 1:
                adj[i] |= 1 << j
    return Graph(len(verts), tuple(adj))


def empty(n: int) -> Graph:
    if n < 0 or n > MAX_VERTICES:
        raise BadParameters(f"bad order {n}")
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    return complement(empty(n))


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParameters(f"cycle needs n >= 3, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(G: Graph, H: Graph) -> Graph:
    if G.n + H.n > MAX_VERTICES:
        raise BadParameters("union exceeds the vertex cap")
    adj = list(G.adj) + [row << G.n for row in H.adj]
    return Graph(G.n + H.n, tuple(adj))


def relabel(G: Graph, perm) -> Graph:
    """Graph with new vertex i = old vertex perm[i]."""
    perm = list(perm)
    inv = [0] * G.n
    for i, p in enumerate(perm):
        inv[p] = i
    adj = [0] * G.n
    for i, p in enumerate(perm):
        row = G.adj[p]
        for q in range(G.n):
            if row >> q & 1:
                adj[i] |= 1 << inv[q]
    return Graph(G.n, tuple(adj))


# ---------------------------------------------------------------------------
# exact canonical form
# ---------------------------------------------------------------------------

def _refine(adj, cells):
    """Equitable refinement of an ordered partition by neighbor counts."""
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        split = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                row = adj[v]
                sig = tuple((row & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                split = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not split:
            return cells


def _code_of(adj, order):
    code = 0
    for i, u in enumerate(order):
        row = adj[u]
        for v in order[i + 1:]:
            code = code << 1 | (row >> v & 1)
    return code


def _canon_search(adj, cells, best):
    # find first non-singleton cell
    target = None
    for idx, cell in enumerate(cells):
        if len(cell) > 1:
            target = idx
            break
    if target is None:
        order = [c[0] for c in cells]
        code = _code_of(adj, order)
        if best[0] is None or code < best[0]:
            best[0] = code
        return
    cell = cells[target]
    tried: list[int] = []
    for v in cell:
        vb = 1 << v
        skip = False
        for u in tried:
            ub = 1 << u
            if (adj[v] & ~(vb | ub)) == (adj[u] & ~(vb | ub)):
                skip = True  # twins are automorphic images
                break
        if skip:
            continue
        tried.append(v)
        rest = [u for u in cell if u != v]
        sub = cells[:target] + [[v], rest] + cells[target + 1:]
        _canon_search(adj, _refine(adj, sub), best)


def canonical_code(G: Graph) -> tuple[int, int]:
    """(n, code) where code is the lexicographically least upper-triangle
    bit string over all relabelings (first pair = most significant bit)."""
    n = G.n
    if n <= 1:
        return n, 0
    best = [None]
    _canon_search(G.adj, _refine(G.adj, [list(range(n))]), best)
    return n, best[0]


def canonical_form(G: Graph) -> bytes:
    """Relabeling-invariant exact representative, packed as bytes."""
    n, code = canonical_code(G)
    npairs = n * (n - 1) // 2
    return bytes([n]) + code.to_bytes((npairs + 7) // 8, "big")


def graph_from_canonical_form(form: bytes) -> Graph:
    n = form[0]
    npairs = n * (n - 1) // 2
    code = int.from_bytes(form[1:], "big")
    adj = [0] * n
    pos = npairs
    for i in range(n):
        for j in range(i + 1, n):
            pos -= 1
            if code >> pos & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def canonical_graph(G: Graph) -> Graph:
    return graph_from_canonical_form(canonical_form(G))


# ---------------------------------------------------------------------------
# exhaustive non-isomorphic generation
# ---------------------------------------------------------------------------

_all_cache: dict[int, list[Graph]] = {}
_split_cache: dict[int, list[Graph]] = {}


def enumerate_graphs(n: int):
    """All non-isomorphic graphs on n vertices, sorted by canonical form.

    Built by one-vertex augmentation of the (n-1)-vertex representatives
    with canonical-form deduplication.
    """
    if n > MAX_ENUM_ALL:
        raise TooLarge(f"n={n} above the enumeration limit {MAX_ENUM_ALL}")
    if n < 0:
        raise BadParameters("negative order")
    if n in _all_cache:
        return list(_all_cache[n])
    if n == 0:
        reps = [Graph(0, ())]
    else:
        seen: dict[bytes, None] = {}
        for parent in enumerate_graphs(n - 1):
            base = parent.adj
            for nb in range(1 << (n - 1)):
                adj = list(base)
                for v in range(n - 1):
                    if nb >> v & 1:
                        adj[v] |= 1 << (n - 1)
                adj.append(nb)
                seen.setdefault(canonical_form(Graph(n, tuple(adj))))
        reps = [graph_from_canonical_form(f) for f in sorted(seen)]
    _all_cache[n] = reps
    return list(reps)


def enumerate_split_graphs(n: int):
    """All non-isomorphic split graphs on n vertices, sorted by canonical form.

    Generated directly from (clique size c, independent size n-c, bipartite
    adjacency in between) with canonical deduplication.  Candidates where
    some clique vertex has no independent neighbor are skipped: moving such
    a vertex to the independent side yields the same graph at smaller c.
    """
    if n > MAX_ENUM_SPLIT:
        raise TooLarge(f"n={n} above the split enumeration limit {MAX_ENUM_SPLIT}")
    if n < 0:
        raise BadParameters("negative order")
    if n in _split_cache:
        return list(_split_cache[n])
    seen: dict[bytes, None] = {}
    for c in range(n + 1):
        ni = n - c
        if ni == 0:
            seen.setdefault(canonical_form(complete(n)))
            continue
        full = (1 << c) - 1
        for hoods in combinations_with_replacement(range(1 << c), ni):
            union = 0
            for h in hoods:
                union |= h
            if union != full:
                continue
            adj = [0] * n
            for i in range(c):
                adj[i] = full & ~(1 << i)
            for j, h in enumerate(hoods):
                v = c + j
                adj[v] = h
                for i in range(c):
                    if h >> i & 1:
                        adj[i] |= 1 << v
            seen.setdefault(canonical_form(Graph(n, tuple(adj))))
    reps = [graph_from_canonical_form(f) for f in sorted(seen)]
    _split_cache[n] = reps
    return list(reps)


# ---------------------------------------------------------------------------
# edge-list text format: "n; u-v, u-v, ..."
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    head, _, rest = text.partition(";")
    try:
        n = int(head.strip())
    except ValueError as exc:
        raise BadParameters(f"bad vertex count {head.strip()!r}") from exc
    edges = []
    for tok in rest.split(","):
        tok = tok.strip()
        if not tok:
            continue
        u, _, v = tok.partition("-")
        try:
            edges.append((int(u), int(v)))
        except ValueError as exc:
            raise BadParameters(f"bad edge token {tok!r}") from exc
    return from_edges(n, edges)


def to_edge_list(G: Graph) -> str:
    return f"{G.n}; " + ", ".join(f"{u}-{v}" for u, v in G.edges())
