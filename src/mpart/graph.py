"""Small simple graphs as bitmask adjacency rows.

Supports up to 64 vertices (single machine word per row).  Includes graph6
serialization and every non-isomorphic graph and split graph up to the
enumeration limits, with each graph's deck (the classes of its one-vertex
deletions) and the class of its complement, read from a table that ships
with the package.  Every isomorphism fact the package uses comes from that
table: it runs no canonical labeling of its own.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from array import array
from functools import cache
from itertools import accumulate

from .errors import InternalError, MPartError

MAX_VERTICES = 64
MAX_ENUM_ALL = 8
MAX_ENUM_SPLIT = 9


class Frozen:
    """The base of the package's immutable values, as a frozen dataclass
    makes them: a subclass names its fields in _fields, and is equal only
    to an instance of its own class with equal fields, and hashed, shown
    and pickled by them.  Assigning or deleting an attribute raises
    AttributeError, so an __init__ sets its fields through
    object.__setattr__ or the slots' own setters.  A class compared and
    hashed on the walk's hot path (Graph, PartAssignment) states __eq__
    and __hash__ over its own fields, as fast as a dataclass's."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(Frozen):
    """Immutable graph; adj[v] is the neighbor bitmask of vertex v."""

    __slots__ = _fields = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        _set_n(self, n)
        _set_adj(self, adj)

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return (self.n, self.adj) == (other.n, other.adj)

    def __hash__(self):
        return hash((self.n, self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n) if self.adj[u] >> v & 1]


# the slots' setters, which Graph.__init__ calls directly: the walk and
# delete_vertex build graphs on the hot path
_set_n, _set_adj = Graph.n.__set__, Graph.adj.__set__


def from_edges(n: int, edges) -> Graph:
    if n < 0 or n > MAX_VERTICES:
        raise MPartError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise MPartError(f"self loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise MPartError(f"edge ({u},{v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6 (standard format, short form: n <= 62)
# ---------------------------------------------------------------------------

def to_graph6(G: Graph) -> str:
    if G.n > 62:
        raise MPartError(f"short-form graph6 supports n <= 62, got {G.n}")
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
        raise MPartError("empty string")
    n = ord(s[0]) - 63
    if not (0 <= n <= 62):
        raise MPartError(f"unsupported order byte {s[0]!r}")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise MPartError(f"expected {need} data bytes for n={n}, got {len(body)}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise MPartError(f"invalid data byte {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[npairs:]):
        raise MPartError("nonzero padding bits")
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
    """G - v: the vertices above v move down by one, each row's bits with them."""
    if not (0 <= v < G.n):
        raise MPartError(f"vertex {v} outside 0..{G.n - 1}")
    low = (1 << v) - 1
    return Graph(G.n - 1, tuple(r & low | r >> 1 & ~low for r in G.adj[:v] + G.adj[v + 1:]))


def empty(n: int) -> Graph:
    if n < 0 or n > MAX_VERTICES:
        raise MPartError(f"bad order {n}")
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    return complement(empty(n))


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise MPartError(f"cycle needs n >= 3, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(G: Graph, H: Graph) -> Graph:
    if G.n + H.n > MAX_VERTICES:
        raise MPartError("union exceeds the vertex cap")
    adj = list(G.adj) + [row << G.n for row in H.adj]
    return Graph(G.n + H.n, tuple(adj))


# ---------------------------------------------------------------------------
# the generation table
# ---------------------------------------------------------------------------

_TABLE = os.path.join(os.path.dirname(__file__), "generation.bin")
# the table's sections: orders 1..MAX_ENUM_ALL of all graphs, then orders
# 1..MAX_ENUM_SPLIT of split graphs
_SECTIONS = MAX_ENUM_ALL + MAX_ENUM_SPLIT


def _section(n: int, split: bool) -> tuple[bytes, int]:
    """(payload, count): the uncompressed section of the N = count graphs on
    n >= 1 vertices, or split graphs when split.

    The table starts with a header of little-endian 32-bit words: the end
    offset of each section, then its number of graphs.  Every section's
    payload, split or not, holds N bytes, the length of each deck, then N
    bytes, the class byte of each graph (bit 0 set when it is bipartite,
    bit 1 when it is chordal), then little-endian 16-bit words: the N * n
    rows of adjacency, graph by graph, the N indices of the graphs'
    complements, and every deck's entries, deck by deck; then the packed
    orders, graph by graph.  A table that cannot be read, or a section
    whose length does not fit its count, raises InternalError."""
    k = (MAX_ENUM_ALL if split else 0) + n - 1
    where = f"the {'split ' if split else ''}graphs of order {n} in {_TABLE}"
    try:
        with open(_TABLE, "rb") as f:
            head = struct.unpack(f"<{2 * _SECTIONS}I", f.read(8 * _SECTIONS))
            start = head[k - 1] if k else 8 * _SECTIONS
            f.seek(start)
            payload = zlib.decompress(f.read(head[k] - start))
    except (OSError, struct.error, zlib.error) as exc:
        raise InternalError(f"cannot read {where}: {exc}") from exc
    count = head[_SECTIONS + k]
    entries = sum(payload[:count])
    if len(payload) != 2 * count + 2 * (count * (n + 1) + entries) + entries * (n + 1):
        raise InternalError(f"{where}: {len(payload)} bytes do not fit a count of {count} graphs")
    return payload, count


class Generation:
    """One order of the generation table, decoded into flat buffers that
    nothing writes (`generation`); graph(i) builds the i-th graph when one
    is read, and graphs() each in turn."""

    __slots__ = ("n", "rows", "lens", "starts", "entries", "orders", "complements", "classes")

    def __init__(self, n, rows, lens, starts, entries, orders, complements, classes):
        self.n, self.rows, self.lens, self.starts = n, rows, lens, starts
        self.entries, self.orders, self.complements = entries, orders, complements
        self.classes = classes

    def __len__(self) -> int:
        return len(self.lens)

    def graph(self, i: int) -> Graph:
        return Graph(self.n, tuple(self.rows[i * self.n:(i + 1) * self.n]))

    def graphs(self):
        """Every graph, in order, each built as the iteration reaches it."""
        return map(self.graph, range(len(self)))


@cache
def generation(n: int, split: bool) -> Generation:
    """The N graphs on n vertices: every non-isomorphic graph, or every
    split graph when split, sorted by the canonical form of the generator
    that built the table, each graph the relabeling of its class that this
    form gives.  Nothing is built per graph.  The section is decoded into
    rows, the N * n adjacency rows graph by graph, entries, the decks'
    indices deck by deck, and complements, read-only views of one buffer
    of 16-bit words; lens, the N deck lengths, classes, the N class bytes,
    and orders, the packed orders graph by graph, all bytes, as the table
    holds them; and starts, a read-only view of the N + 1 running offsets
    of the decks in entries.
    So deck i is entries[starts[i]:starts[i] + lens[i]], and the block of
    its entry j is orders[j * (n + 1):(j + 1) * (n + 1)].
    Generation.graph(i) builds the i-th graph, and Generation.graphs()
    every graph as it is iterated.

    Deck i holds the sorted, distinct indices into the graphs on n - 1
    vertices of the isomorphism classes of G - v over the vertices v of the
    i-th graph G; the graph on no vertex has the empty deck.  Its packed
    orders hold one block of n + 1 bytes per deck parent.  For the j-th
    parent P, there is a child C of P (P plus the vertex n - 1) isomorphic
    to G, and the j-th block is the order o that carries C onto G, n bytes,
    then one byte nb, the neighbourhood of C's vertex n - 1 as a mask of
    P's vertices (n - 1 <= 8 of them).  Vertex k of G is vertex o[k] of C,
    so u and v are adjacent in G iff o[u] and o[v] are in C.  G minus the
    vertex k with o[k] = n - 1 is then P, each other k being P's vertex
    o[k], and k's neighbours in G are the vertices u with bit o[u] of nb
    set.  complements[i] is the index of the class of the i-th graph's
    complement; both classes are closed under complement, so it is an
    involution on the indices.  classes[i] has bit 0 set when the i-th
    graph is bipartite and bit 1 when it is chordal.  Both classes are
    hereditary, so the deck of a graph with a bit set holds only graphs
    with that bit set.

    They are read from the package's table `generation.bin`, one section
    per order, which canonical augmentation (McKay, Isomorph-free
    exhaustive generation, 1998) built once; `tests/augmentation.py`
    rebuilds it.
    """
    limit = MAX_ENUM_SPLIT if split else MAX_ENUM_ALL
    if n > limit:
        raise MPartError(f"n={n} above the {'split ' if split else ''}enumeration limit {limit}")
    if n < 0:
        raise MPartError("negative order")
    # the graph on no vertex has an empty deck, is bipartite and chordal,
    # and is its own complement
    payload, count = _section(n, split) if n else (b"\0\3\0\0", 1)
    lens, classes = payload[:count], payload[count:2 * count]
    words = array("H", payload[2 * count:2 * count + 2 * (count * (n + 1) + sum(lens))])
    if sys.byteorder == "big":
        words.byteswap()
    # read-only views, as every caller shares them
    words = memoryview(words.tobytes()).cast("H")
    starts = memoryview(array("I", accumulate(lens, initial=0)).tobytes()).cast("I")
    return Generation(n, words[:count * n], lens, starts, words[count * (n + 1):],
                      payload[2 * count + 2 * len(words):], words[count * n:count * (n + 1)],
                      classes)


def enumerate_graphs(n: int):
    """All non-isomorphic graphs on n vertices, in the table's order: a list
    of `generation(n, False)`'s graphs."""
    return list(generation(n, False).graphs())


def enumerate_split_graphs(n: int):
    """All non-isomorphic split graphs on n vertices, in the table's order: a
    list of `generation(n, True)`'s graphs."""
    return list(generation(n, True).graphs())


# ---------------------------------------------------------------------------
# edge-list text format: "n; u-v, u-v, ..."
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    head, _, rest = text.partition(";")
    try:
        n = int(head.strip())
    except ValueError as exc:
        raise MPartError(f"bad vertex count {head.strip()!r}") from exc
    edges = []
    for tok in rest.split(","):
        tok = tok.strip()
        if not tok:
            continue
        u, _, v = tok.partition("-")
        try:
            edges.append((int(u), int(v)))
        except ValueError as exc:
            raise MPartError(f"bad edge token {tok!r}") from exc
    return from_edges(n, edges)
