"""The generator of `src/mpart/generation.bin`, the table that
`mpart.graph.generation` reads, kept as the table's oracle.

Every non-isomorphic graph, or split graph, on n vertices is built by
canonical augmentation (McKay, Isomorph-free exhaustive generation, J.
Algorithms 26, 1998) from those on n - 1, with its deck, packed orders
and the index of its complement's class, and the recognizers give its class
byte (`classes`); `section` lays one order out as `mpart.graph` reads it,
and `table` writes every order up to the class limits, each section stored
as it is read, with its CRC-32 in the header.  The canonical labeling that
sorts and deduplicates the graphs is the only one in the repository apart
from the reference in `full_refine.py`: the package reads its results from
the table.

Rewrite the table from the repository root with

    PYTHONPATH=src python tests/augmentation.py

`tests/test_augmentation.py` rebuilds it and compares it with the committed
file byte for byte.
"""

import struct
import sys
import zlib
from array import array
from functools import cache
from itertools import accumulate
from pathlib import Path

from mpart import graph as gr
from mpart.recognize import is_bipartite, is_chordal, split_partition

TABLE = Path(gr._TABLE)


def _refine(adj, cells, fresh):
    """Equitable refinement of an ordered partition by neighbor counts.

    Each round splits every cell by its vertices' tuples of neighbour counts
    against the cells, the groups in increasing tuple order, until a round
    splits nothing.  Only the counts against `fresh` are computed: the masks,
    in cell order, of the cells the previous round created.  This returns
    the same ordered partition as counting against every cell.  A cell X
    that the previous round left whole was a cell of the partition that
    round refined, so every current cell is a group of vertices with one
    count against X.  A count that is constant inside every cell splits no
    cell, and it never decides the lexicographic order of two tuples that
    are compared, since those belong to one cell; so dropping it leaves the
    same groups in the same order.  The first round has no previous round,
    so every cell is fresh.  When `_canon_search` individualizes v, it
    splits a cell C of an equitable partition into `[v]` and the rest, so
    every count against an old cell is still constant inside each cell, and
    the count against the rest is the count against C, a constant of each
    cell, minus the count against `[v]`, which comes just before it in the
    tuple.  So it splits no more and decides no order: `[v]` alone is fresh.
    """
    while True:
        new_cells = []
        new_fresh = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                row = adj[v]
                groups.setdefault(tuple([(row & m).bit_count() for m in fresh]), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            for sig in sorted(groups):
                group = groups[sig]
                new_cells.append(group)
                m = 0
                for v in group:
                    m |= 1 << v
                new_fresh.append(m)
        if not new_fresh:
            return new_cells
        cells, fresh = new_cells, new_fresh


def _code_of(adj, order):
    code = 0
    for i, u in enumerate(order):
        row = adj[u]
        for v in order[i + 1:]:
            code = code << 1 | (row >> v & 1)
    return code


def _twins(adj, u, v) -> bool:
    """Whether u and v have the same neighbours apart from each other."""
    both = ~(1 << u | 1 << v)
    return adj[u] & both == adj[v] & both


def _canon_search(adj, cells):
    """(code, leaves): the least code over the leaves below the equitable
    ordered partition cells, and the orders of leaves that reach it: those
    found below the first child that reaches it, then the first one below
    each later such child.

    A vertex of the branching cell that is a twin of one already tried is
    skipped: swapping the two is an automorphism that fixes the partition,
    so its subtree is the image of the tried one's and holds the same codes.

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
        return _code_of(adj, order), [order]
    best = None
    tried: list[int] = []
    for v in cell:
        if any(_twins(adj, u, v) for u in tried):
            continue
        tried.append(v)
        rest = [u for u in cell if u != v]
        code, leaves = _canon_search(
            adj, _refine(adj, cells[:target] + [[v], rest] + cells[target + 1:], [1 << v]))
        if best is None or code < best:
            best, best_leaves = code, leaves
        elif code == best:
            best_leaves.append(leaves[0])
    return best, best_leaves


def _search(adj):
    """`_canon_search` below the refined unit partition."""
    n = len(adj)
    return _canon_search(adj, _refine(adj, [list(range(n))], [(1 << n) - 1]))


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
            if _twins(G.adj, u, v):
                perm = list(range(G.n))
                perm[u], perm[v] = v, u
                gens.append(perm)
                break
    return gens


def canonical_labeling(G):
    """(form, order): the canonical form of G, n then the least code of
    `_search` packed as bytes, and the first leaf of the search that reaches
    the code, as the list whose entry i is the vertex of G that is vertex i
    of `graph_from_canonical_form(form)`.

    The code is an upper-triangle bit string (first pair = most significant
    bit), the least over the leaves of an individualization-refinement search
    (McKay and Piperno, Practical graph isomorphism II, 2014): starting from
    `_refine` of the unit partition, individualize in turn each vertex of the
    first non-singleton cell, skipping twins of vertices already tried, and
    refine again against the new singleton only, down to discrete
    partitions, each a labeling.  Relabeling the graph maps these leaves onto
    those of the relabeled graph, so isomorphic graphs get the same code.
    It is not, in general, the least code over all n! labelings: for 33 of
    the 207 graphs on 2 to 6 vertices, `DK[` among them, it is larger.  The
    table's lists are sorted by this form, so the order of its graphs, their
    decks and every catalog depend on the exact ordered partition `_refine`
    returns.
    """
    n = G.n
    code, leaves = _search(G.adj)
    return bytes([n]) + code.to_bytes((n * (n - 1) // 2 + 7) // 8, "big"), leaves[0]


def canonical_form(G):
    """The form of `canonical_labeling`: equal exactly for isomorphic graphs."""
    return canonical_labeling(G)[0]


def graph_from_canonical_form(form):
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
    return gr.Graph(tuple(adj))


def _mask_images(perm, top):
    """Entry m is the image under perm of the vertex mask m, for m < top."""
    images = [0] * top
    for m in range(1, top):
        low = m & -m
        images[m] = images[m ^ low] | 1 << perm[low.bit_length() - 1]
    return images


@cache
def generate(n, split):
    """(graphs, decks, orders, complements) on n vertices, as
    `gr.generation` documents them.

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
    in parent order and its j-th entry lines up with the j-th block.  Both
    classes are closed under complement, so every graph's complement has a
    class among the graphs, found by its form.
    """
    if n == 0:
        return (gr.Graph(()),), ((),), (b"",), (0,)
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
            child = gr.Graph(tuple(adj))
            if split and split_partition(child) is None:
                continue
            form, order = canonical_labeling(child)
            entry = decks.setdefault(form, [b""])
            if len(entry) == 1 or entry[-1] != p:
                order.append(nb)  # the block: the order, then nb
                entry[0] += bytes(order)
                entry.append(p)
    forms = sorted(decks)
    index = {f: i for i, f in enumerate(forms)}
    graphs = tuple(map(graph_from_canonical_form, forms))
    return (graphs, tuple(tuple(decks[f][1:]) for f in forms), tuple(decks[f][0] for f in forms),
            tuple(index[canonical_form(gr.complement(G))] for G in graphs))


@cache
def classes(n, split):
    """The class byte of each graph of `generate(n, split)`, as
    `gr.generation` documents it: bit 0 from `is_bipartite`, bit 1 from
    `is_chordal`."""
    return bytes((is_bipartite(G) is not None) | (is_chordal(G) is not None) << 1
                 for G in generate(n, split)[0])


@cache
def section(n, split):
    """The payload of the table's section for n vertices, in the layout
    `gr.generation` documents."""
    graphs, decks, orders, complements = generate(n, split)
    words = array("H", [row for G in graphs for row in G.adj] + list(complements)
                  + [p for d in decks for p in d])
    if sys.byteorder == "big":
        words.byteswap()
    return bytes(map(len, decks)) + classes(n, split) + words.tobytes() + b"".join(orders)


def decoded(n, split):
    """`gr.generation(n, split)` in `generate`'s form, read as `gr.generation`
    lays it out: every graph built through its accessor, every deck and
    packed order sliced from the flat buffers between consecutive offsets,
    and the complements."""
    gen = gr.generation(n, split)
    spans = list(zip(gen.starts, gen.starts[1:]))
    return (tuple(map(gen.graph, range(len(gen)))),
            tuple(tuple(gen.entries[s:e]) for s, e in spans),
            tuple(gen.orders[s * (n + 1):e * (n + 1)] for s, e in spans),
            tuple(gen.complements))


def table():
    """The table file: the header of every section's end offset, count of
    graphs and CRC-32, then every section's payload."""
    keys = [(n, False) for n in range(1, gr.MAX_ENUM_ALL + 1)]
    keys += [(n, True) for n in range(1, gr.MAX_ENUM_SPLIT + 1)]
    bodies = [section(n, split) for n, split in keys]
    ends = accumulate(map(len, bodies), initial=12 * len(keys))
    counts = [len(generate(n, split)[0]) for n, split in keys]
    return struct.pack(f"<{3 * len(keys)}I", *list(ends)[1:], *counts,
                       *map(zlib.crc32, bodies)) + b"".join(bodies)


if __name__ == "__main__":
    TABLE.write_bytes(table())
    print(f"wrote {TABLE.stat().st_size} bytes to {TABLE}")
