"""The work of `solve`'s search, pinned as a count of its nodes.

A node is one call of the search function nested in `solve`.  The count is
taken with a profile hook that matches that function's code object, found
among `solve`'s own constants, so no other function's frames are counted,
not even an oracle's helper of the same shape.  The interchangeable-part
skip and backjumping change no witness, so these counts are what shows that
each still prunes.
"""

import sys
from types import CodeType

from mpart import graph as gr
from mpart import obstruction as ob
from mpart import pattern as pat
from mpart import solver as sv
from mpart import verify as vf

SEARCH = next(c for c in sv.solve.__code__.co_consts
              if isinstance(c, CodeType) and c.co_name == "search")


def search_nodes(run):
    """How many times run() enters solve's search."""
    nodes = 0

    def hook(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is SEARCH:
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return nodes


def test_theorem5_minimality_for_n_3():
    # 291,131 nodes without the twin skip, 284,317 without backjumping
    M, G = ob.construct_theorem5(3)
    assert search_nodes(lambda: ob.classify_minimality(G, M)) == 11549


def test_the_solves_of_solver_exactness():
    # the 729 3x3 matrices x the 52 graphs on one to five vertices: 62,611
    # nodes without the twin skip, 59,885 without backjumping
    matrices = vf._matrices_3x3("01*")
    graphs = [G for n in range(1, 6) for G in gr.enumerate_graphs(n)]

    def run():
        for M in matrices:
            for G in graphs:
                sv.solve(G, M)

    assert search_nodes(run) == 59054


def test_a_slice_of_the_warm_sweep(monkeypatch):
    # 0*1;*1*;1*0 in the all class at n <= 8: of the 3,426 open candidates,
    # 3,363 extend a deck parent's parts and 63 are classified
    calls = {"open": 0, "extended": 0, "classified": 0, "solve": 0}
    extend, classify, solve = ob._extend, ob.classify_minimality, ob.solve

    def extending(gen, children, partitioned, spread, forbid, codes, top):
        # open: reached, with every deck entry partitionable; the top order
        # keeps no parts, so its extended ones are the open ones left over
        extended, unextended = extend(gen, children, partitioned, spread, forbid, codes, top)
        starts, entries = gen.starts, gen.entries
        opened = sum(partitioned.keys() >= set(entries[starts[i]:starts[i + 1]])
                     for p in partitioned for i in children[p])
        assert len(extended) == (0 if top else opened - len(unextended))
        calls["open"] += opened
        calls["extended"] += opened - len(unextended)
        return extended, unextended

    def classifying(G, M):
        calls["classified"] += 1
        return classify(G, M)

    def solving(G, M):
        calls["solve"] += 1
        return solve(G, M)

    monkeypatch.setattr(ob, "_extend", extending)
    monkeypatch.setattr(ob, "classify_minimality", classifying)
    monkeypatch.setattr(ob, "solve", solving)
    M = pat.parse_matrix("0*1;*1*;1*0")
    nodes = search_nodes(lambda: ob.enumerate_minimal_obstructions(M, "all", 8))
    assert calls == {"open": 3426, "extended": 3363, "classified": 63, "solve": 429}
    assert nodes == 3604
