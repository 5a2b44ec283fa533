"""The table generator's `canonical_form` (`augmentation.py`) with
refinement counting against every cell in every round, as it was before it
counted only against the fresh cells: kept as a reference for code
identity.

Individualization-refinement from the refined unit partition, twins of tried
vertices skipped, least upper-triangle code over the leaves.
"""


def _refine(adj, cells):
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
            groups = {}
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


def _canon_search(adj, cells):
    for target, cell in enumerate(cells):
        if len(cell) > 1:
            break
    else:
        return _code_of(adj, [c[0] for c in cells])
    best = None
    tried = []
    for v in cell:
        vb = 1 << v
        if any(adj[v] & ~(vb | 1 << u) == adj[u] & ~(vb | 1 << u) for u in tried):
            continue
        tried.append(v)
        rest = [u for u in cell if u != v]
        code = _canon_search(adj, _refine(adj, cells[:target] + [[v], rest] + cells[target + 1:]))
        if best is None or code < best:
            best = code
    return best


def full_refine_canonical_form(G) -> bytes:
    n = G.n
    code = _canon_search(G.adj, _refine(G.adj, [list(range(n))]))
    return bytes([n]) + code.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")
