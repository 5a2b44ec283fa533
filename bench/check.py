"""Certificate checks that share no code with `mpart.solver` or
`mpart.recognize`: graphs are plain adjacency-set lists decoded here from
graph6, witnesses are checked pair by pair against the matrix text."""

from __future__ import annotations


def decode_graph6(s: str) -> list[set[int]]:
    """Adjacency sets of a short-form graph6 string (n <= 62)."""
    n = ord(s[0]) - 63
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    adj = [set() for _ in range(n)]
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i].add(j)
                adj[j].add(i)
            idx += 1
    return adj


def delete(adj: list[set[int]], v: int) -> list[set[int]]:
    """Adjacency sets with vertex v removed and later vertices shifted down."""
    keep = [u for u in range(len(adj)) if u != v]
    pos = {u: i for i, u in enumerate(keep)}
    return [{pos[w] for w in adj[u] if w != v} for u in keep]


def witness_ok(adj: list[set[int]], rows: list[str], parts) -> bool:
    """Every vertex pair obeys the matrix entry of its two parts."""
    n, m = len(adj), len(rows)
    if len(parts) != n or any(not (0 <= p < m) for p in parts):
        return False
    for u in range(n):
        for v in range(u + 1, n):
            e = rows[parts[u]][parts[v]]
            if e != "*" and (e == "1") != (v in adj[u]):
                return False
    return True


def _two_colourable(adj: list[set[int]]) -> bool:
    colour: dict[int, int] = {}
    for s in range(len(adj)):
        if s in colour:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in colour:
                    colour[u] = 1 - colour[v]
                    stack.append(u)
                elif colour[u] == colour[v]:
                    return False
    return True


def _complement(adj: list[set[int]]) -> list[set[int]]:
    n = len(adj)
    return [set(range(n)) - adj[v] - {v} for v in range(n)]


def _split(adj: list[set[int]]) -> bool:
    # Hammer and Simeone (1981): with degrees d_1 >= ... >= d_n and
    # h = max{i : d_i >= i - 1}, G is split iff sum_{i<=h} d_i = h(h-1) + sum_{i>h} d_i.
    d = sorted((len(a) for a in adj), reverse=True)
    h = max((i for i, deg in enumerate(d, start=1) if deg >= i - 1), default=0)
    return sum(d[:h]) == h * (h - 1) + sum(d[h:])


def _chordal(adj: list[set[int]]) -> bool:
    # A graph is chordal iff simplicial vertices can be removed one by one
    # until nothing is left (Dirac 1961).
    alive = set(range(len(adj)))
    while alive:
        for v in alive:
            nb = adj[v] & alive
            if all(nb - {u} <= adj[u] for u in nb):
                alive.remove(v)
                break
        else:
            return False
    return True


def in_class(class_name: str, adj: list[set[int]]) -> bool:
    if class_name == "all":
        return True
    if class_name == "split":
        return _split(adj)
    if class_name == "bipartite":
        return _two_colourable(adj)
    if class_name == "cobipartite":
        return _two_colourable(_complement(adj))
    if class_name == "chordal":
        return _chordal(adj)
    raise ValueError(f"unknown class {class_name!r}")


def catalog_problems(rows: list[str], class_name: str, obstructions) -> list[str]:
    """Check a catalog given as (graph6, witnesses) pairs, where witnesses[v]
    is a part list for the graph minus vertex v. Returns what failed."""
    problems = []
    for g6, witnesses in obstructions:
        adj = decode_graph6(g6)
        if not in_class(class_name, adj):
            problems.append(f"{g6} is not {class_name}")
        if len(witnesses) != len(adj):
            problems.append(f"{g6}: {len(witnesses)} witnesses for {len(adj)} vertices")
            continue
        for v, parts in enumerate(witnesses):
            if not witness_ok(delete(adj, v), rows, parts):
                problems.append(f"{g6}: witness for G-{v} breaks {';'.join(rows)}")
    return problems
