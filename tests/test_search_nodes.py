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
