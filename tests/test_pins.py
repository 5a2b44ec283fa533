"""Byte pins: SHA-256 digests of solve and solve_split witnesses, of the
canonical order, decks and packed orders of the generation table, of the
chordal recognizer's elimination orderings, and of the catalogs.

The searches promise more than solvability: `solve` tries vertices by minimum
remaining values with index tiebreak and parts lowest first, so its witness
is fixed; `solve_split` reads its C-star witness off the first `01` pair of
`star_blocks` and the largest, lexicographically least split clique; the
canonical form of the table's generator (`augmentation.canonical_form`, the
only canonical labeling the tests and the table share) fixes the order of
every generated list, its decks and every catalog, and the table's
representatives, whose forms are hashed here.  A change to any of them that
keeps the answers but moves these bytes fails here.
"""

import hashlib
from itertools import product

import augmentation as aug
from mpart import graph as gr
from mpart import obstruction as ob
from mpart import pattern as pat
from mpart import recognize as rec
from mpart import solver as sv


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _diag_star_free_matrices():
    """The 228 diagonal-star-free 2x2 and 3x3 matrices, 2x2 first."""
    two = [pat.make_matrix([d[0] + o, o + d[1]]) for d in product("01", repeat=2) for o in "01*"]
    three = [pat.make_matrix([d[0] + o[0] + o[1], o[0] + d[1] + o[2], o[1] + o[2] + d[2]])
             for d in product("01", repeat=3) for o in product("01*", repeat=3)]
    return two + three


def test_solve_witnesses_on_split_graphs():
    matrices = _diag_star_free_matrices()
    assert len(matrices) == 228
    lines = []
    for n in range(8):
        for G in gr.enumerate_split_graphs(n):
            for M in matrices:
                w = sv.solve(G, M)
                lines.append("-" if w is None else "".join(map(str, w.parts)))
    assert _digest(lines) == "fac9142c51bb2cf380c148b8a91392725e08a48884e68b2c051f3aea54077400"


def test_solve_split_witnesses_on_split_graphs():
    # the 92 matrices with a C-star pair, whose witnesses solve_split reads
    # off the split partition; on the other 136 it calls solve, pinned above
    matrices = [M for M in _diag_star_free_matrices() if "01" in M.star_blocks]
    assert len(matrices) == 92
    lines = []
    for n in range(8):
        for G in gr.enumerate_split_graphs(n):
            for M in matrices:
                lines.append("".join(map(str, sv.solve_split(G, M).parts)))
    assert len(lines) == 23736
    assert _digest(lines) == "288281af2fef76d7473133e5e9d1c293cecdcd160e337aa4e9059ec95ffa44aa"


def test_solve_witnesses_of_the_theorem5_deletions():
    # the 33 one-vertex deletions of the n = 3 construction, the deepest
    # searches of the paper, each partitionable by M_{7,3}
    M, G = ob.construct_theorem5(3)
    lines = []
    for v in range(G.n):
        w = sv.solve(gr.delete_vertex(G, v), M)
        lines.append("-" if w is None else "".join(map(str, w.parts)))
    assert len(lines) == 33
    assert _digest(lines) == "f20265247d6806b19865b2a35e25b7c4dec7b8fd0c81afc5a21186ca9e982aa1"


def _forms_and_decks(graphs, decks, top):
    for n in range(top + 1):
        yield " ".join(aug.canonical_form(G).hex() for G in graphs(n))
        yield repr(decks(n))


def test_canonical_order_and_decks_of_all_graphs():
    lines = _forms_and_decks(gr.enumerate_graphs, lambda n: aug.decoded(n, False)[1], 7)
    assert _digest(lines) == "f1ba83c23d5b7f817c89582d51cb47b494a91d8af2fe37060d1b89bf47ba0a30"


def test_canonical_order_and_decks_of_split_graphs():
    lines = _forms_and_decks(gr.enumerate_split_graphs, lambda n: aug.decoded(n, True)[1], 8)
    assert _digest(lines) == "da1683a0bf99338e63974f37c5c9b98d160bc8756244d4d16e247c77aaf63b76"


def test_canonical_order_and_decks_of_all_graphs_at_the_limit():
    lines = _forms_and_decks(gr.enumerate_graphs, lambda n: aug.decoded(n, False)[1],
                             gr.MAX_ENUM_ALL)
    assert _digest(lines) == "493dc5e3bdbe17a4d72c7da96fb953160f98d2e8195ab717f9d2331bf9e5036a"


def test_canonical_order_and_decks_of_split_graphs_at_the_limit():
    lines = _forms_and_decks(gr.enumerate_split_graphs, lambda n: aug.decoded(n, True)[1],
                             gr.MAX_ENUM_SPLIT)
    assert _digest(lines) == "8094439b5be9cdd5b8461e0a63baad0e25e60b42c3191268a64d76724a366250"


def test_packed_orders_at_the_class_limits():
    # the blocks of every graph and deck parent: an order, then the new
    # vertex's neighbourhood byte
    lines = (" ".join(o.hex() for o in aug.decoded(n, split)[2])
             for split, top in ((False, gr.MAX_ENUM_ALL), (True, gr.MAX_ENUM_SPLIT))
             for n in range(top + 1))
    assert _digest(lines) == "4357e63187dabd7d9fc850540c20b573ce0e90189bb1db91083630494655fcb5"


def test_chordal_orders_at_the_class_limits():
    # the perfect elimination ordering maximum cardinality search finds, or
    # "-", for every graph of the table, all graphs first
    lines = ("-" if (order := rec.is_chordal(G)) is None else " ".join(map(str, order))
             for split, top in ((False, gr.MAX_ENUM_ALL), (True, gr.MAX_ENUM_SPLIT))
             for n in range(top + 1)
             for G in aug.decoded(n, split)[0])
    assert _digest(lines) == "07f84bec5b5931dbe977639a666982ef4cf2a9ca60604a930e7874dddd27cf4d"


def test_catalogs_at_the_class_limits():
    M = pat.parse_matrix("0*1;*1*;1*0")
    lines = [ob.report_to_json(ob.enumerate_minimal_obstructions(M, name, limit))
             for name, limit in sorted(ob.CLASS_LIMITS.items())]
    assert _digest(lines) == "eba4465196709dab526c080c04cf185291969744c3d55b07a51bc7a68bf90a6e"


def test_every_catalog_at_the_class_limits():
    # the JSON and TSV reports of the 228 matrices x 5 classes
    lines = (out for M in _diag_star_free_matrices()
             for name, limit in sorted(ob.CLASS_LIMITS.items())
             for report in [ob.enumerate_minimal_obstructions(M, name, limit)]
             for out in (ob.report_to_json(report), ob.report_to_tsv(report)))
    assert _digest(lines) == "6d8cc7ae5080af6ce3cdb78b4d9bc8dbdafe4129635304c860e73ed77f54daa8"


def test_catalogs_of_four_and_five_part_matrices():
    # at n <= 8 in the all, bipartite and chordal classes; under five parts
    # a vertex's slot in the walk's integer encoding is two bytes
    digests = {rows: _digest(ob.report_to_json(ob.enumerate_minimal_obstructions(
        pat.parse_matrix(rows), name, 8)) for name in ("all", "bipartite", "chordal"))
        for rows in ("0*10;*1*1;1*01;0111", "0*1*0;*0*1*;1*1*0;*1*0*;0*0*1")}
    assert digests == {
        "0*10;*1*1;1*01;0111":
            "069c7c83239aa1936193e4d8f9010236af107c80b564466b4fdb420b60080610",
        "0*1*0;*0*1*;1*1*0;*1*0*;0*0*1":
            "f356b88b5387e8eaf7152fe036a8cd90a68eb61d7213e9d29e54198acf01923e",
    }
