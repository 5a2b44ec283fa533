import random

import pytest

from mpart import errors
from mpart import graph as gr
from mpart import obstruction as ob
from mpart import pattern as pat
from mpart import recognize as rec
from mpart import solver as sv


def two_k2():
    return gr.disjoint_union(gr.complete(2), gr.complete(2))


class TestSplitPartition:
    def test_non_split(self):
        assert rec.split_partition(gr.cycle(4)) is None
        assert rec.split_partition(two_k2()) is None
        assert rec.split_partition(gr.cycle(5)) is None

    def test_k3(self):
        assert rec.split_partition(gr.complete(3)) == (1, 1, 1)

    def test_deterministic_choice(self):
        # P3: largest valid clique has size 2, lex-least is {0, 1}; the
        # clique side is 1, so the sides index the pattern "01"
        assert rec.split_partition(gr.path(3)) == (1, 1, 0)

    def test_witness_is_valid(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 12)
            c = rng.randint(0, n)
            edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
            for u in range(c):
                for v in range(c, n):
                    if rng.random() < rng.random():
                        edges.append((u, v))
            G = gr.from_edges(n, edges)
            sides = rec.split_partition(G)
            assert sides is not None and len(sides) == n
            for u in range(n):
                for v in range(u + 1, n):
                    if sides[u] == sides[v]:
                        assert G.has_edge(u, v) == (sides[u] == 1)

    def test_brute_force_oracle(self):
        # every labelled graph on n <= 6 vertices: the clique side is the
        # lex-least of the largest vertex sets K that are cliques with V - K
        # independent, and None means there is no such K
        for n in range(7):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

            def inside(K):
                return sum(1 << i for i, (u, v) in enumerate(pairs) if K >> u & K >> v & 1)

            full = (1 << n) - 1
            # (pairs inside K, pairs inside V - K, K) by size, then lex order
            subsets = sorted(
                ((inside(K), inside(full ^ K), K) for K in range(1 << n)),
                key=lambda t: (-t[2].bit_count(), [v for v in range(n) if t[2] >> v & 1]))
            for emask in range(1 << len(pairs)):
                want = next((K for in_k, out_k, K in subsets
                             if emask & in_k == in_k and not emask & out_k), None)
                adj = [0] * n
                for i, (u, v) in enumerate(pairs):
                    if emask >> i & 1:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                sides = rec.split_partition(gr.Graph(tuple(adj)))
                if want is None:
                    assert sides is None
                else:
                    assert sides == tuple(want >> v & 1 for v in range(n))

    def test_closed_under_complement(self):
        for n in range(1, 7):
            for G in gr.enumerate_graphs(n):
                a = rec.split_partition(G) is not None
                b = rec.split_partition(gr.complement(G)) is not None
                assert a == b

    def test_matches_solver_route(self):
        for n in range(1, 8):
            for G in gr.enumerate_graphs(n):
                assert (rec.split_partition(G) is not None) == \
                    (sv.solve(G, pat.make_kl_matrix(1, 1)) is not None)


class TestBipartite:
    def test_c5(self):
        assert rec.is_bipartite(gr.cycle(5)) is None
        assert rec.is_cobipartite(gr.cycle(5)) is None

    def test_c6(self):
        coloring = rec.is_bipartite(gr.cycle(6))
        assert coloring is not None
        for u, v in gr.cycle(6).edges():
            assert coloring[u] != coloring[v]

    def test_k4_cobipartite(self):
        coloring = rec.is_cobipartite(gr.complete(4))
        assert coloring is not None
        G = gr.complete(4)
        for u in range(4):
            for v in range(u + 1, 4):
                if coloring[u] == coloring[v]:
                    assert G.has_edge(u, v)


class TestChordal:
    def test_c4(self):
        assert rec.is_chordal(gr.cycle(4)) is None

    def test_gt(self):
        assert rec.is_chordal(ob.construct_gt(4)) is not None

    def test_split_graphs_are_chordal(self):
        for n in range(1, 7):
            for G in gr.enumerate_split_graphs(n):
                assert rec.is_chordal(G) is not None

    def test_order_is_perfect_elimination(self):
        G = ob.construct_gt(3)
        elim = rec.is_chordal(G)
        pos = {v: i for i, v in enumerate(elim)}
        for i, v in enumerate(elim):
            later = [u for u in range(G.n) if G.has_edge(u, v) and pos[u] > i]
            for a in later:
                for b in later:
                    assert a == b or G.has_edge(a, b)


class TestKlGraphs:
    def test_c5_not_split(self):
        assert sv.solve(gr.cycle(5), pat.make_kl_matrix(1, 1)) is None

    def test_gt_memberships(self):
        G = ob.construct_gt(3)
        assert sv.solve(G, pat.make_kl_matrix(3, 0)) is not None
        assert sv.solve(G, pat.make_kl_matrix(2, 1)) is not None


class TestHomogeneous:
    def test_singletons(self):
        G = gr.cycle(5)
        for v in range(5):
            assert rec.homogeneity_report(G, [v]) == ((v,),)

    def test_whole_vertex_set(self):
        # nothing lies outside, so all vertices share one class
        assert rec.homogeneity_report(gr.complete(4), range(4)) == ((0, 1, 2, 3),)

    def test_star_leaves(self):
        K13 = gr.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert len(rec.homogeneity_report(K13, [1, 2, 3])) == 1
        # the edge {0, 1} of P4 is no homogeneous set: 2 sees 1 but not 0
        assert rec.homogeneity_report(gr.path(4), [0, 1]) == ((0,), (1,))

    def test_report_star_leaves(self):
        K13 = gr.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert rec.homogeneity_report(K13, [1, 2, 3]) == ((1, 2, 3),)

    def test_report_c4_pair(self):
        # opposite C4 vertices have identical outside neighborhoods
        assert rec.homogeneity_report(gr.cycle(4), [0, 2]) == ((0, 2),)
        assert rec.homogeneity_report(gr.path(4), [0, 2]) == ((0,), (2,))

    def test_not_uniform(self):
        with pytest.raises(errors.MPartError, match="neither a clique nor an independent set"):
            rec.homogeneity_report(gr.path(3), [0, 1, 2])

    def test_empty_part(self):
        assert rec.homogeneity_report(gr.cycle(4), []) == ()
