"""The generator of `src/mpart/generation.bin`, the table that
`mpart.graph.generation` reads, kept as the table's oracle.

Every non-isomorphic graph, or split graph, on n vertices is built by
canonical augmentation (McKay, Isomorph-free exhaustive generation, J.
Algorithms 26, 1998) from those on n - 1, with its deck and packed orders;
`section` lays one order out as `mpart.graph` reads it, and `table` writes
every order up to the class limits, each section compressed by zlib.

Rewrite the table from the repository root with

    PYTHONPATH=src python tests/augmentation.py

`tests/test_augmentation.py` rebuilds it and compares every section's
payload with the committed file's.
"""

import struct
import sys
import zlib
from array import array
from functools import cache
from pathlib import Path

from mpart import graph as gr
from mpart.recognize import split_partition

TABLE = Path(gr._TABLE)


def _canon_search(adj, cells):
    """`gr.canonical_form`'s search, which also returns the orders of leaves
    that reach the least code: those found below the first child that
    reaches it, then the first one below each later such child.

    Two leaves with one code give one graph, so the map taking the vertex at
    each position of one leaf to the vertex at that position of the other is
    an automorphism.  The maps from the first leaf to the others, with the
    twin swaps, generate the whole group, by induction up the first leaf's
    path: at a node on it, an automorphism that fixes the vertices
    individualized so far and takes the next one, u, to w is the map to the
    leaf kept below w composed with one that also fixes u (after a twin swap
    if w was skipped).  Keeping one leaf per later child bounds the list by
    the tree's branching, not by the size of the group.
    """
    for target, cell in enumerate(cells):
        if len(cell) > 1:
            break
    else:
        order = [c[0] for c in cells]
        return gr._code_of(adj, order), [order]
    best = None
    tried: list[int] = []
    for v in cell:
        if any(gr._twins(adj, u, v) for u in tried):
            continue
        tried.append(v)
        rest = [u for u in cell if u != v]
        code, leaves = _canon_search(
            adj, gr._refine(adj, cells[:target] + [[v], rest] + cells[target + 1:], [1 << v]))
        if best is None or code < best:
            best, best_leaves = code, leaves
        elif code == best:
            best_leaves.append(leaves[0])
    return best, best_leaves


def _search(adj):
    """`_canon_search` below the refined unit partition."""
    n = len(adj)
    return _canon_search(adj, gr._refine(adj, [list(range(n))], [(1 << n) - 1]))


def _automorphisms(G):
    """Generators of the automorphism group of G, each as the list of the
    vertices' images: the maps from the first leaf `_canon_search` returns
    to each other one, and the transposition of every vertex with its least
    lower twin, which generate the twin swaps the search relies on.
    """
    _, leaves = _search(G.adj)
    first = leaves[0]
    gens = []
    for leaf in leaves[1:]:
        perm = [0] * G.n
        for u, v in zip(first, leaf):
            perm[u] = v
        gens.append(perm)
    for v in range(G.n):
        for u in range(v):
            if gr._twins(G.adj, u, v):
                perm = list(range(G.n))
                perm[u], perm[v] = v, u
                gens.append(perm)
                break
    return gens


def canonical_labeling(G):
    """(form, order): `gr.canonical_form(G)` and the first leaf of its search
    that reaches the code, as the list whose entry i is the vertex of G
    that is vertex i of `gr.graph_from_canonical_form(form)`."""
    n = G.n
    code, leaves = _search(G.adj)
    return bytes([n]) + code.to_bytes((n * (n - 1) // 2 + 7) // 8, "big"), leaves[0]


def _mask_images(perm, top):
    """Entry m is the image under perm of the vertex mask m, for m < top."""
    images = [0] * top
    for m in range(1, top):
        low = m & -m
        images[m] = images[m ^ low] | 1 << perm[low.bit_length() - 1]
    return images


@cache
def generate(n, split):
    """(graphs, decks, orders) on n vertices, as `gr.generation` documents
    them.

    Every graph of the class on n - 1 vertices (the parents, in their list
    order) gets a new vertex with each possible neighbourhood; split children
    must pass the split test.  Both classes are hereditary, so every graph of
    the class arises, and from exactly the parents isomorphic to its
    one-vertex deletions: the parent indices recorded per canonical form are
    its deck.  An automorphism s of the parent makes the children with
    neighbourhoods nb and s(nb) isomorphic, so only one neighbourhood per
    orbit of the group generated by `_automorphisms(parent)` is tried.  The
    deck records each parent once per class, so any group of automorphisms
    gives the same output; a larger one only tries fewer children.

    Each child gets one search, `canonical_labeling`.  Per graph and deck
    parent, the order and the neighbourhood of the first child of that
    parent reaching the graph are kept, and the graph's blocks are packed
    into one bytes object.  Parents are taken in list order, so the deck is
    in parent order and its j-th entry lines up with the j-th block.
    """
    if n == 0:
        return (gr.Graph(0, ()),), ((),), (b"",)
    top = 1 << (n - 1)
    # form -> [its packed blocks, then its deck]
    decks: dict[bytes, list] = {}
    for p, parent in enumerate(generate(n - 1, split)[0]):
        base = parent.adj
        images = [_mask_images(perm, top) for perm in _automorphisms(parent)]
        seen = bytearray(top)
        for nb in range(top):
            if seen[nb]:
                continue
            seen[nb] = 1
            orbit = [nb]
            for m in orbit:
                for image in images:
                    other = image[m]
                    if not seen[other]:
                        seen[other] = 1
                        orbit.append(other)
            adj = [row | top if nb >> v & 1 else row for v, row in enumerate(base)]
            adj.append(nb)
            child = gr.Graph(n, tuple(adj))
            if split and split_partition(child) is None:
                continue
            form, order = canonical_labeling(child)
            entry = decks.setdefault(form, [b""])
            if len(entry) == 1 or entry[-1] != p:
                order.append(nb)  # the block: the order, then nb
                entry[0] += bytes(order)
                entry.append(p)
    forms = sorted(decks)
    return (tuple(gr.graph_from_canonical_form(f) for f in forms),
            tuple(tuple(decks[f][1:]) for f in forms), tuple(decks[f][0] for f in forms))


def section(n, split):
    """The uncompressed payload of the table's section for n vertices, in
    the layout `gr._section` documents."""
    graphs, decks, orders = generate(n, split)
    words = array("H", [row for G in graphs for row in G.adj] + [p for d in decks for p in d])
    if sys.byteorder == "big":
        words.byteswap()
    return bytes(map(len, decks)) + words.tobytes() + b"".join(orders)


def table():
    """The table file: the header, then every section, compressed."""
    keys = [(n, False) for n in range(1, gr.MAX_ENUM_ALL + 1)]
    keys += [(n, True) for n in range(1, gr.MAX_ENUM_SPLIT + 1)]
    bodies = [zlib.compress(section(n, split), 9) for n, split in keys]
    ends, end = [], 8 * len(keys)
    for body in bodies:
        end += len(body)
        ends.append(end)
    counts = [len(generate(n, split)[0]) for n, split in keys]
    return struct.pack(f"<{2 * len(keys)}I", *ends, *counts) + b"".join(bodies)


if __name__ == "__main__":
    TABLE.write_bytes(table())
    print(f"wrote {TABLE.stat().st_size} bytes to {TABLE}")
