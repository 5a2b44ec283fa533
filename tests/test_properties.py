"""Property tests: the solver against the first-solution oracle and against the
search without its interchangeable-part skip and backjumps, the table
generator's canonical form (`augmentation.py`) under relabelling and against
refinement by every cell, round-trips of the text formats, and the CLI on
arbitrary input text.

Derandomized, so every run draws the same examples.
"""

import contextlib
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import augmentation as aug
from full_refine import full_refine_canonical_form
from mpart import graph as gr
from mpart import pattern as pat
from mpart import solver as sv
from mpart.cli import main
from mpart.errors import MPartError
from relabel import relabel
from unpruned import unpruned_solve


def fixed(max_examples):
    """Settings of every test here: the same examples on every run, no deadline."""
    return settings(derandomize=True, deadline=None, database=None, max_examples=max_examples)


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return gr.from_edges(n, [e for e, bit in zip(pairs, bits) if bit])


@st.composite
def matrices(draw, max_m, min_m=1, diagonal="01*"):
    """Symmetric matrices over 0, 1 and *, diagonal stars included unless
    diagonal leaves them out."""
    m = draw(st.integers(min_m, max_m))
    rows = [[""] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(diagonal if i == j else "01*"))
    return pat.make_matrix(["".join(r) for r in rows])


@fixed(300)
@given(graphs(7), matrices(3))
def test_solve_agrees_with_exists_partition_and_both_assignments_validate(G, M):
    w = sv.solve(G, M)
    first = sv.exists_partition(G, M)
    assert (w is None) == (first is None)
    if w is not None:
        assert sv.validate(G, M, w.parts)
        assert sv.validate(G, M, first)


@st.composite
def blown_up_matrices(draw, max_base, max_m):
    """Matrices whose parts are copies of the parts of a smaller base matrix:
    copies of one base part are interchangeable, so the skip has work to do."""
    base = draw(matrices(max_base))
    of = draw(st.lists(st.integers(0, base.m - 1), min_size=1, max_size=max_m))
    return pat.make_matrix(["".join(base.rows[a][b] for b in of) for a in of])


@fixed(300)
@given(graphs(8), st.one_of(matrices(4), blown_up_matrices(3, 6)))
def test_solve_witness_is_the_unpruned_search_witness(G, M):
    w = sv.solve(G, M)
    assert (None if w is None else w.parts) == unpruned_solve(G, M)


def join(G, H):
    return gr.complement(gr.disjoint_union(gr.complement(G), gr.complement(H)))


@st.composite
def joins_and_unions(draw, pieces, max_piece):
    """Joins and disjoint unions of small random graphs, built up one piece at a
    time: a failure inside one piece does not depend on the parts of vertices
    in another, so the search has choices to jump back over."""
    G = draw(graphs(max_piece))
    for _ in range(draw(st.integers(1, pieces - 1))):
        H = draw(graphs(max_piece))
        G = gr.disjoint_union(G, H) if draw(st.booleans()) else join(G, H)
    return G


@fixed(400)
@given(joins_and_unions(4, 4), matrices(4, min_m=2, diagonal="01"))
def test_solve_witness_is_the_unpruned_search_witness_on_joins_and_unions(G, M):
    w = sv.solve(G, M)
    assert (None if w is None else w.parts) == unpruned_solve(G, M)


@st.composite
def cycle_unions(draw, max_n):
    """Disjoint unions of cycles, maybe complemented: regular graphs that
    refinement cannot split, so the canonical search has to branch."""
    G = gr.empty(0)
    while G.n <= max_n - 3:
        k = draw(st.integers(3, max_n - G.n))
        G = gr.disjoint_union(G, gr.cycle(k))
        if draw(st.booleans()):
            break
    return gr.complement(G) if draw(st.booleans()) else G


@st.composite
def relabelled(draw, max_n):
    G = draw(st.one_of(graphs(max_n), cycle_unions(max_n)))
    return G, relabel(G, draw(st.permutations(range(G.n))))


@fixed(300)
@given(relabelled(9))
def test_canonical_form_is_invariant_under_relabelling(pair):
    G, H = pair
    assert aug.canonical_form(H) == aug.canonical_form(G)


def test_canonical_form_is_the_full_refinement_form_on_random_graphs():
    rng = random.Random(20141)
    for _ in range(3000):
        n = rng.randint(0, 30)
        p = rng.uniform(0.1, 0.9)
        G = gr.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < p])
        assert aug.canonical_form(G) == full_refine_canonical_form(G)


@fixed(200)
@given(st.one_of(cycle_unions(12), relabelled(7).map(lambda pair: pair[1])))
def test_canonical_form_is_the_full_refinement_form_where_the_search_branches(G):
    assert aug.canonical_form(G) == full_refine_canonical_form(G)


@fixed(200)
@given(graphs(20))
def test_graph6_and_edge_list_round_trip(G):
    assert gr.parse_graph6(gr.to_graph6(G)) == G
    assert gr.parse_edge_list(f"{G.n}; " + ", ".join(f"{u}-{v}" for u, v in G.edges())) == G


@fixed(100)
@given(matrices(4))
def test_matrix_text_round_trips(M):
    assert pat.parse_matrix(M.to_text()) == M


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def rejected(parse, text) -> bool:
    try:
        parse(text)
    except MPartError:
        return True
    return False


# any text, printable ASCII (graph6 bytes), and the characters of edge lists and matrices
input_text = st.one_of(st.text(max_size=40),
                       st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=40),
                       st.text("0123456789*;-, \n", max_size=40))


@fixed(600)
@given(st.sampled_from(["--graph", "--edges", "--matrix"]), input_text)
def test_arbitrary_input_text_exits_0_1_or_2(flag, text):
    # the flag's own text after '=', so argparse never reads it as an option
    argv = ["solve", f"{flag}={text}"]
    argv += ["--edges=3; 0-1, 1-2"] if flag == "--matrix" else ["--matrix=0*;*1"]
    rc, err = run_main(argv)
    assert rc in (0, 1, 2)
    parse = {"--graph": gr.parse_graph6, "--edges": gr.parse_edge_list,
             "--matrix": pat.parse_matrix}[flag]
    if rejected(parse, text):
        assert rc == 2
        assert err.startswith("error: ")
