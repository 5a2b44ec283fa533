"""Obstruction predicates, minimality certification, exhaustive enumeration
of minimal obstructions by graph class, explicit extremal constructions and
closed-form size bounds."""

from __future__ import annotations

import fnmatch
import json
import os
import weakref
from collections import Counter
from functools import cache
from itertools import chain, combinations, compress
from math import comb
from sys import intern

from . import __version__
from .errors import InternalError, MPartError
from .graph import (
    MAX_ENUM_ALL,
    MAX_ENUM_SPLIT,
    MAX_VERTICES,
    Frozen,
    Graph,
    complement,
    delete_vertex,
    from_edges,
    generation,
    to_graph6,
)
from .pattern import STAR, PatternMatrix, check_kl, complement_matrix, make_m_kt
from .solver import PartAssignment, solve


class MinimalityCertificate(Frozen):
    """A minimal obstruction and a witness for each of its deletions:
    witnesses[v] partitions graph - v.  Equal certificates are shared
    through a weak table (_CERTIFICATES), so a certificate has a __dict__
    and can be weakly referenced."""

    _fields = ("graph", "witnesses")

    def __init__(self, graph: Graph, witnesses: tuple[PartAssignment, ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "witnesses", witnesses)


class EnumerationReport(Frozen):
    """Minimal obstructions of the class up to order n_max, as (graph6,
    certificate) pairs in the generation table's order, with witnesses
    under matrix.  Each graph6 is the table's representative of its class
    (`generation`), except in cobipartite: there it is the complement of the
    table's bipartite representative, which is in general not the table's
    own, and the pairs are sorted into the table's order of their classes."""

    __slots__ = _fields = ("matrix", "class_name", "n_max", "obstructions")

    def __init__(self, matrix: PatternMatrix, class_name: str, n_max: int,
                 obstructions: tuple[tuple[str, MinimalityCertificate], ...]):
        for name, value in zip(self._fields, (matrix, class_name, n_max, obstructions)):
            object.__setattr__(self, name, value)

    @property
    def counts(self) -> dict[int, int]:
        """Number of obstructions per order."""
        return dict(Counter(cert.graph.n for _, cert in self.obstructions))

    @property
    def note(self) -> str:
        """Why the report is empty when the matrix has a diagonal star, or ""."""
        if STAR in self.matrix.star_blocks:
            return "diagonal star: every graph fits in the unrestricted part, no obstructions"
        return ""


def classify_minimality(G: Graph, M: PatternMatrix):
    """('partitionable', witness) | ('not-minimal', v) | ('minimal', witnesses)."""
    w = solve(G, M)
    if w is not None:
        return ("partitionable", w)
    witnesses = []
    for v in range(G.n):
        sub = solve(delete_vertex(G, v), M)
        if sub is None:
            return ("not-minimal", v)
        witnesses.append(sub)
    return ("minimal", tuple(witnesses))


# ---------------------------------------------------------------------------
# exhaustive enumeration per class
# ---------------------------------------------------------------------------

# class name -> (part patterns as PatternMatrix.star_blocks names them,
# split: whether the candidates come from the split graphs' generation
# rather than all graphs', the class's bit in the generation's class bytes
# or None for every graph generated, the class whose walk it runs under the
# complement matrix (enumerate_minimal_obstructions), having no candidates
# of its own, or None).  A class's largest order (CLASS_LIMITS) is that of
# its half of the generation table.  Every graph has the pattern "*";
# split, bipartite and cobipartite graphs split into an independent set and
# a clique, two independent sets, or two cliques.  Enumeration runs in the
# generation's own indices, and a deck holds indices of the generation at
# order n - 1, so every class must be hereditary: each G - v of a member is
# a member.
_CLASSES = {
    "all": ((STAR,), False, None, None),
    "split": ((STAR, "01"), True, None, None),
    "bipartite": ((STAR, "00"), False, 1, None),
    "cobipartite": ((STAR, "11"), False, None, "bipartite"),
    "chordal": ((STAR,), False, 2, None),
}
CLASS_LIMITS = {name: MAX_ENUM_SPLIT if split else MAX_ENUM_ALL
                for name, (_, split, _, _) in _CLASSES.items()}


@cache
def _candidates(class_name: str, n: int):
    """(members, children) of the class on n >= 1 vertices, both in the
    indices of `generation(n, split)`.

    members is the sorted tuple of the indices of the class's members: the
    graphs whose class byte has the class's bit set (`generation`), or
    every graph when the class has no bit.  children[p], for each index p
    of the generation on n - 1 vertices, is the sorted tuple of the members
    whose deck holds p: the inverse of the members' decks.  The class is
    hereditary, so every member's deck holds only members of order n - 1,
    and the walk needs no other children.  A class that runs another's walk
    (cobipartite) has no candidates and is refused.  No graph is built."""
    _, split, bit, dual = _CLASSES[class_name]
    if dual is not None:
        raise InternalError(f"{class_name} has no candidates: its walk is {dual}'s")
    gen = generation(n, split)
    lens, starts, entries = gen.lens, gen.starts, gen.entries
    members = range(len(gen))
    members = tuple(members if bit is None else compress(members, map(bit.__and__, gen.classes)))
    children = [[] for _ in range(len(generation(n - 1, split)))]
    for i in members:
        for p in entries[starts[i]:starts[i] + lens[i]]:
            children[p].append(i)
    return members, tuple(map(tuple, children))


def decided_by_pattern(M: PatternMatrix, class_name: str) -> bool:
    """Whether a part pattern of the class embeds in M, so that the class
    has no minimal obstruction under M (see enumerate_minimal_obstructions)."""
    return not M.star_blocks.keys().isdisjoint(_CLASSES[class_name][0])


@cache
def _layout(m: int):
    """(ones, spread, codes): the integer encoding of the parts, under m
    parts, of a graph on at most 8 vertices (a deck parent: enumeration
    stops at 9), and the masks that read it.

    Vertex v has a slot of w = 8 * ceil(2m / 8) bits at bit w * v, in which
    part q sets bits q and m + q.  A slot is whole bytes, so codes[q], that
    slot as w / 8 bytes, little-endian, builds the code of parts as
    int.from_bytes of their codes joined, with no loop over the vertices.
    ones has bit 0 of each of the 8 slots, so s * ones repeats a slot s in
    all of them.  spread[nb] keeps the low m bits of the slots of the
    vertices in the mask nb and the high m bits of the others: bit q of a
    slot of code & spread[nb] says that a vertex in nb has part q, bit
    m + q that a vertex outside nb has."""
    size = (2 * m + 7) // 8
    w = 8 * size
    ones = sum(1 << w * v for v in range(8))
    low = (1 << m) - 1
    spread = tuple(sum((low if nb >> v & 1 else low << m) << w * v for v in range(8))
                   for nb in range(256))
    codes = tuple((1 << q | 1 << m + q).to_bytes(size, "little") for q in range(m))
    return ones, spread, codes


def _forbidden(M: PatternMatrix, ones: int) -> tuple[int, ...]:
    """Entry q has, in every slot of `_layout(M.m)`, the parts that M.masks
    forbid on a neighbour (low m bits) and on a non-neighbour (high m bits)
    of a vertex in part q."""
    low = (1 << M.m) - 1
    return tuple((low & ~adj_ok | (low & ~nonadj_ok) << M.m) * ones
                 for adj_ok, nonadj_ok in zip(*M.masks))


def _extend(gen, i, partitioned, spread, forbid, top: bool):
    """Parts of the i-th candidate of the generation gen, one byte per
    vertex, from the first parent in its deck whose parts extend to the
    vertex the parent lacks, or None when none does.  Nothing reads the
    parts at the top order, so none are built there, and an extending
    candidate gets b"".

    partitioned maps each partitionable parent to (code, parts), with code
    as `_layout` encodes parts.  The candidate's packed orders give the new
    vertex's neighbourhood nb in the parent's numbering, so code &
    spread[nb] holds the parts of its neighbours and of its non-neighbours,
    and the new vertex takes the lowest part q whose forbid[q]
    (`_forbidden`) holds none of them.  The parent's parts carry over
    through the order `generation` keeps for it.  The deck and its blocks
    are read in place, entry j of gen.entries with the block at j * (n + 1)
    of gen.orders, not built: this runs once per open candidate."""
    n, entries, orders = gen.n, gen.entries, gen.orders
    start = gen.starts[i]
    for j in range(start, start + gen.lens[i]):
        code, parts = partitioned[entries[j]]
        end = j * (n + 1) + n  # the block's nb
        seen = code & spread[orders[end]]
        for q, bad in enumerate(forbid):
            if not seen & bad:
                if top:
                    return b""
                # vertex k of the graph takes the part of the parent's
                # vertex order[k], and q for the new vertex n - 1
                return bytes(map((parts + bytes((q,))).__getitem__, orders[end - n:end]))
    return None


# equal certificates are one object while anything holds them; the table
# holds them weakly, like pattern._LIVE, so one that nothing else holds is
# freed
_CERTIFICATES: weakref.WeakValueDictionary[
    tuple[Graph, tuple[PartAssignment, ...]], MinimalityCertificate] = \
    weakref.WeakValueDictionary()


def enumerate_minimal_obstructions(
    M: PatternMatrix, class_name: str, n_max: int, jobs: int = 1
) -> EnumerationReport:
    """Minimal obstructions of the class with at most n_max vertices.

    When a part pattern of the class embeds in M (it is a key of
    M.star_blocks), the report is empty: every member is M-partitionable,
    because its pattern's parts can go to the parts of M that star_blocks
    maps the pattern to, which have its diagonals and a star between them.
    The patterns are a diagonal star in every class (the report notes it),
    and the 0/1, 0/0 and 1/1 star pairs in split, bipartite and
    cobipartite.

    Otherwise the walk goes up one order at a time, from the partitionable
    candidates of order n - 1 to their children (`_candidates`'s inverse of
    the decks).  A candidate is reached once per partitionable graph in its
    deck, and a deck holds distinct indices, so it is open, every deletion
    partitioning, exactly when it is reached as often as its deck is long.
    Any other candidate, reached less often or never (a deck on n >= 1
    vertices is not empty), has a deletion that is a member of order n - 1
    and did not partition.  Partitionability is hereditary, so that
    candidate is obstructed and not minimal, and it is not visited.

    An open candidate first tries to extend a deck parent's parts by one
    vertex (`_extend`).  Only when none extends is its graph built and
    classified by `classify_minimality`; it is then partitionable or
    minimal.  The parts of the partitionable candidates, each with its
    integer code (`_layout`), made once, are the only state kept for the
    next order.
    Nothing reads the top order's parts, so none are built or kept there.
    The outputs are those of classifying every open candidate: an
    extended candidate is partitionable, which emits nothing; every other
    one is classified as before; and a minimal obstruction's witnesses come
    from `solve(delete_vertex(G, v))`, never from kept parts.  Open
    candidates are visited in the order they are reached, and the
    obstructions are sorted once, at the end, into catalog order: by order,
    then by the generation's index of the emitted graph's class.  Equal
    certificates, and so their witnesses, are one object while anything
    holds them, across reports too (`_CERTIFICATES`), and graph6 strings
    are interned.  jobs is accepted for compatibility and ignored.

    cobipartite runs bipartite's walk under complement_matrix(M): a graph's
    complement has an M-partition exactly when the graph has a
    complement_matrix(M)-partition with the same parts.  The class's
    obstructions are the complements of the walk's, with its witnesses;
    the index of a complement's class is the generation's complements
    column.
    """
    if class_name not in _CLASSES:
        raise MPartError(f"unknown class {class_name!r}")
    _, split, _, dual = _CLASSES[class_name]
    if n_max > (limit := CLASS_LIMITS[class_name]):
        raise MPartError(f"n_max={n_max} above the {class_name} limit {limit}")
    if n_max < 0:
        raise MPartError(f"n_max={n_max} is negative")
    if decided_by_pattern(M, class_name):
        return EnumerationReport(M, class_name, n_max, ())
    walk, W = (dual, complement_matrix(M)) if dual else (class_name, M)
    # ((order, index of the class emitted), graph emitted, witnesses) of
    # the minimal obstructions
    found = []
    ones, spread, codes = _layout(W.m)
    forbid = _forbidden(W, ones)
    # (code, parts) of the partitionable candidates of order n - 1 by
    # index; the graph on no vertex partitions
    partitioned = {0: (0, b"")}
    for n in range(1, n_max + 1):
        gen = generation(n, split)
        lens = gen.lens
        _, children = _candidates(walk, n)
        top = n == n_max
        # index -> the number of partitionable graphs in its deck; the open
        # candidates have them all, the others an obstructed deletion
        reached = Counter(chain.from_iterable(map(children.__getitem__, partitioned)))
        parts_now: dict[int, tuple[int, bytes]] = {}
        for i in [i for i, k in reached.items() if k == lens[i]]:
            parts = _extend(gen, i, partitioned, spread, forbid, top)
            if parts is None:
                G = gen.graph(i)
                status, payload = classify_minimality(G, W)
                if status == "not-minimal":
                    raise InternalError(
                        f"{to_graph6(G)} has an obstructed deletion missing from its deck")
                if status == "minimal":
                    found.append(((n, gen.complements[i]), complement(G), payload) if dual
                                 else ((n, i), G, payload))
                    continue
                parts = bytes(payload.parts)
            if not top:  # no order reads the last one's parts
                code = int.from_bytes(b"".join(map(codes.__getitem__, parts)), "little")
                parts_now[i] = (code, parts)
        partitioned = parts_now
    found.sort(key=lambda f: f[0])
    obstructions = tuple(
        (intern(to_graph6(G)), _CERTIFICATES.setdefault((G, ws), MinimalityCertificate(G, ws)))
        for _, G, ws in found)
    return EnumerationReport(M, class_name, n_max, obstructions)


# ---------------------------------------------------------------------------
# explicit constructions
# ---------------------------------------------------------------------------

def construct_theorem5(n: int) -> tuple[PatternMatrix, Graph]:
    """Split graph certifying an exponential-size minimal obstruction for the
    (2n+1) x (2n+1) matrix with n ones in its last row.

    Vertex order: special vertex a = 0; clique B = 1..2n (all adjacent to a);
    independent B' = 2n+1..4n where the i-th misses exactly its mate in B;
    then one vertex per n-subset of B (lexicographic), adjacent to exactly
    that subset.
    """
    # the 4n + 1 fixed vertices are tested first, so a huge n is refused
    # without computing, or formatting, a huge binomial; an n < 1 passes
    # that test, and theorem5_size refuses it
    if 4 * n + 1 > MAX_VERTICES or (total := theorem5_size(n)) > MAX_VERTICES:
        raise MPartError(f"n={n} needs more than {MAX_VERTICES} vertices (need n <= 3)")
    M = make_m_kt(2 * n + 1, n)
    edges = []
    B = list(range(1, 2 * n + 1))
    for i, b in enumerate(B):
        edges.append((0, b))
        for b2 in B[i + 1:]:
            edges.append((b, b2))
    for i, b in enumerate(B):
        bp = 2 * n + 1 + i  # mate of b
        edges.append((0, bp))
        for b2 in B:
            if b2 != b:
                edges.append((bp, b2))
    v = 4 * n + 1
    for subset in combinations(B, n):
        for b in subset:
            edges.append((v, b))
        v += 1
    return M, from_edges(total, edges)


def construct_gt(t: int) -> Graph:
    """Even path on 2t vertices plus a vertex adjacent to all its interior."""
    if t < 3:
        raise MPartError("need t >= 3")
    if 2 * t + 1 > MAX_VERTICES:
        raise MPartError(f"t={t} needs {2 * t + 1} vertices, above the {MAX_VERTICES}-vertex cap")
    edges = [(i, i + 1) for i in range(2 * t - 1)]
    u = 2 * t
    edges.extend((u, p) for p in range(1, 2 * t - 1))
    return from_edges(2 * t + 1, edges)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def theorem1_bound(k: int, ell: int) -> int:
    """Upper bound on the order of a split minimal obstruction.

    Stated for k >= ell; for k < ell the bound is evaluated at (ell, k),
    which is justified by complement duality.
    """
    check_kl(k, ell)
    if k < ell:
        k, ell = ell, k
    return 2 ** (k - 1) * (k + ell) * (2 * k + 3) + 1


def theorem4_bound(k: int, ell: int) -> int:
    """Upper bound on the order of a bipartite minimal obstruction."""
    check_kl(k, ell)
    return 2 ** (2 * ell) * (k + ell) * (2 * ell + 3)


def theorem5_size(n: int) -> int:
    """Order of the construct_theorem5 graph."""
    if n < 1:
        raise MPartError("need n >= 1")
    return 4 * n + 1 + comb(2 * n, n)


def feder2008_bound(k: int, ell: int) -> int:
    """Largest minimal obstruction order for star-free matrices."""
    check_kl(k, ell)
    return (k + 1) * (ell + 1)


# ---------------------------------------------------------------------------
# report serialization and catalog persistence
# ---------------------------------------------------------------------------

def matrix_slug(M: PatternMatrix) -> str:
    return "-".join(r.replace("*", "s") for r in M.rows)


def _summary(report: EnumerationReport) -> dict:
    """The fields the JSON report and the catalog manifest share."""
    return {
        "matrix": report.matrix.to_text(),
        "class": report.class_name,
        "n_max": report.n_max,
        "note": report.note,
        "counts": {str(n): c for n, c in sorted(report.counts.items())},
    }


def report_to_json(report: EnumerationReport) -> str:
    return json.dumps({
        **_summary(report),
        "obstructions": [
            {
                "n": cert.graph.n,
                "graph6": g6,
                "certificate_ok": True,
                "witnesses": [list(w.parts) for w in cert.witnesses],
            }
            for g6, cert in report.obstructions
        ],
    }, indent=2, sort_keys=True)


def report_to_tsv(report: EnumerationReport) -> str:
    """An order/count block, a blank line, then one row per obstruction.  An
    empty report keeps an empty line in place of its counts."""
    counts = "\n".join(f"{n}\t{c}" for n, c in sorted(report.counts.items()))
    lines = ["n\tgraph6\tcertificate-ok"]
    lines.extend(f"{cert.graph.n}\t{g6}\tok" for g6, cert in report.obstructions)
    return f"order\tcount\n{counts}\n\n" + "\n".join(lines) + "\n"


def save_catalog(report: EnumerationReport, root) -> str:
    """Persist data/<matrix-slug>/<class>/n<k>.g6 files plus a manifest that
    records the mpart version writing it, replacing the n<k>.g6 files of any
    earlier run there.  Returns the path of that directory."""
    base = os.path.join(root, matrix_slug(report.matrix), report.class_name)
    os.makedirs(base, exist_ok=True)
    by_order: dict[int, list[str]] = {}
    for g6, cert in report.obstructions:
        by_order.setdefault(cert.graph.n, []).append(g6)
    for stale in fnmatch.filter(os.listdir(base), "n[0-9]*.g6"):
        os.remove(os.path.join(base, stale))
    for n, lines in sorted(by_order.items()):
        with open(os.path.join(base, f"n{n}.g6"), "w") as f:
            f.write("\n".join(lines) + "\n")
    if STAR in report.matrix.star_blocks:
        bounds = None
    else:
        k, ell = report.matrix.kl
        bounds = {
            "split_order_bound": theorem1_bound(k, ell),
            "split_bound_swapped": k < ell,
            "bipartite_order_bound": theorem4_bound(k, ell),
            "star_free_order_bound": feder2008_bound(k, ell)
            if all(STAR not in r for r in report.matrix.rows) else None,
        }
    manifest = {**_summary(report), "bounds": bounds, "version": __version__}
    with open(os.path.join(base, "manifest.json"), "w") as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return base
