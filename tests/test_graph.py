import pickle
import random
import weakref
from itertools import combinations, permutations

import pytest

import augmentation as aug
from mpart import errors
from mpart import graph as gr
from mpart import recognize as rec
from relabel import relabel


def iso(G, H):
    return aug.canonical_form(G) == aug.canonical_form(H)


def two_k2():
    return gr.disjoint_union(gr.complete(2), gr.complete(2))


class TestFromEdges:
    def test_k2(self):
        assert gr.from_edges(2, [(0, 1)]) == gr.complete(2)

    def test_c4(self):
        assert gr.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == gr.cycle(4)

    def test_self_loop(self):
        with pytest.raises(errors.MPartError, match="self loop at vertex 0"):
            gr.from_edges(2, [(0, 0)])

    def test_out_of_range(self):
        with pytest.raises(errors.MPartError, match=r"edge \(0,2\) outside 0..1"):
            gr.from_edges(2, [(0, 2)])

    def test_duplicates_collapse(self):
        assert gr.from_edges(2, [(0, 1), (1, 0)]).edges() == [(0, 1)]


class TestGraph6:
    # expected strings hand-encoded from the format definition
    def test_k2(self):
        assert gr.to_graph6(gr.complete(2)) == "A_"
        assert gr.parse_graph6("A_") == gr.complete(2)

    def test_two_isolated(self):
        assert gr.to_graph6(gr.empty(2)) == "A?"
        assert gr.parse_graph6("A?") == gr.empty(2)

    def test_k1(self):
        assert gr.to_graph6(gr.empty(1)) == "@"
        assert gr.parse_graph6("@") == gr.empty(1)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(0, 12)
            G = gr.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < 0.4])
            s = gr.to_graph6(G)
            assert gr.parse_graph6(s) == G
            assert gr.to_graph6(gr.parse_graph6(s)) == s

    def test_malformed(self):
        for s, message in [("", "empty string"),
                           ("A", "expected 1 data bytes for n=2, got 0"),
                           ("A_x", "expected 1 data bytes for n=2, got 2"),
                           (chr(200), "unsupported order byte")]:
            with pytest.raises(errors.MPartError, match=message):
                gr.parse_graph6(s)


class TestTransforms:
    def test_complement_2k2_is_c4(self):
        assert iso(gr.complement(two_k2()), gr.cycle(4))

    def test_c5_self_complementary(self):
        assert iso(gr.complement(gr.cycle(5)), gr.cycle(5))

    def test_complement_involution(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(0, 10)
            G = gr.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < 0.5])
            assert gr.complement(gr.complement(G)) == G

    def test_delete_c5_gives_p4(self):
        for v in range(5):
            assert iso(gr.delete_vertex(gr.cycle(5), v), gr.path(4))

    def test_delete_k2(self):
        assert gr.delete_vertex(gr.complete(2), 0) == gr.empty(1)

    def test_delete_commutes_with_complement(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 9)
            G = gr.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < 0.5])
            v = rng.randrange(n)
            assert gr.complement(gr.delete_vertex(G, v)) == gr.delete_vertex(gr.complement(G), v)

    def test_delete_matches_kept_edges(self):
        # the edges that miss v, each end above v moved down by one
        for n in range(1, 8):
            for G in gr.enumerate_graphs(n):
                for v in range(n):
                    kept = [(a - (a > v), b - (b > v)) for a, b in G.edges() if v not in (a, b)]
                    assert gr.delete_vertex(G, v) == gr.from_edges(n - 1, kept)

    @pytest.mark.parametrize("v", [-1, 5])
    def test_delete_out_of_range(self, v):
        with pytest.raises(errors.MPartError, match=f"vertex {v} outside 0..4"):
            gr.delete_vertex(gr.cycle(5), v)


class TestGenerators:
    def test_2k2(self):
        G = two_k2()
        assert G.n == 4 and len(G.edges()) == 2

    def test_cycle5(self):
        C5 = gr.cycle(5)
        assert len(C5.edges()) == 5
        assert all(C5.degree(v) == 2 for v in range(5))

    def test_cycle_too_small(self):
        with pytest.raises(errors.MPartError, match="cycle needs n >= 3"):
            gr.cycle(2)


class TestCanonicalForm:
    def test_c4_relabelings(self):
        C4 = gr.cycle(4)
        assert aug.canonical_form(relabel(C4, [2, 0, 3, 1])) == aug.canonical_form(C4)

    def test_k3_vs_p3(self):
        assert aug.canonical_form(gr.complete(3)) != aug.canonical_form(gr.path(3))

    def test_invariance_random(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 8)
            G = gr.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < 0.5])
            perm = list(range(n))
            rng.shuffle(perm)
            assert aug.canonical_form(relabel(G, perm)) == aug.canonical_form(G)

    def test_round_trip(self):
        G = gr.cycle(6)
        assert aug.canonical_form(aug.graph_from_canonical_form(aug.canonical_form(G))) \
            == aug.canonical_form(G)

    def test_labeling_relabels_onto_the_form(self):
        rng = random.Random(12)
        graphs = [G for n in range(7) for G in gr.enumerate_graphs(n)]
        for G in graphs + [relabel(G, rng.sample(range(G.n), G.n)) for G in graphs]:
            form, order = aug.canonical_labeling(G)
            assert form == aug.canonical_form(G)
            assert relabel(G, order) == aug.graph_from_canonical_form(form)


def mask_orbits(n, perms):
    """Entry m is the least vertex mask in the orbit of m under the group
    the permutations generate."""
    least = [-1] * (1 << n)
    for m in range(1 << n):
        if least[m] >= 0:
            continue
        least[m] = m
        orbit = [m]
        for x in orbit:
            for p in perms:
                y = sum(1 << p[v] for v in range(n) if x >> v & 1)
                if least[y] < 0:
                    least[y] = m
                    orbit.append(y)
    return least


def generated_group(n, perms):
    group = {tuple(range(n))}
    todo = list(group)
    for g in todo:
        for p in perms:
            h = tuple(p[g[v]] for v in range(n))
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


class TestAutomorphisms:
    # the generators live with the table's generator in tests/augmentation.py
    @pytest.mark.parametrize("n", range(7))
    def test_generators_are_automorphisms_with_the_full_mask_orbits(self, n):
        # the augmentation tries one neighbourhood per orbit of these
        # generators; against all n! permutations they give every orbit
        for G in gr.enumerate_graphs(n):
            gens = aug._automorphisms(G)
            for p in gens:
                assert relabel(G, p) == G
            group = [p for p in permutations(range(n)) if relabel(G, p) == G]
            assert mask_orbits(n, gens) == mask_orbits(n, group)
            assert generated_group(n, gens) == set(group)

    def test_cycle_rotation_and_reflection(self):
        # no twins and no splitting cell: the leaves alone give the group
        assert len(set(mask_orbits(6, aug._automorphisms(gr.cycle(6))))) == 13


def iso_class_count_oracle(n):
    """Independent brute force: orbit-expand every labeled graph."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    count = 0
    for code in range(1 << len(pairs)):
        if code in seen:
            continue
        count += 1
        edges = [pairs[i] for i in range(len(pairs)) if code >> i & 1]
        for perm in permutations(range(n)):
            img = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
            seen.add(sum(1 << pairs.index(e) for e in img))
    return count


class TestEnumeration:
    def test_counts_against_oracle(self):
        for n in range(1, 6):
            assert len(gr.enumerate_graphs(n)) == iso_class_count_oracle(n)

    def test_frozen_counts(self):
        # n=6 value derived from the same oracle during development
        assert len(gr.enumerate_graphs(6)) == 156
        assert len(gr.enumerate_graphs(3)) == 4
        assert len(gr.enumerate_graphs(4)) == 11

    def test_oeis_counts(self):
        # A000088 (all graphs) and A048194 (split graphs) at the full range
        assert [len(gr.enumerate_graphs(n)) for n in (7, 8)] == [1044, 12346]
        assert [len(gr.enumerate_split_graphs(n)) for n in (7, 8, 9)] == [164, 557, 2223]

    def test_sorted_and_unique(self):
        forms = [aug.canonical_form(G) for G in gr.enumerate_graphs(6)]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)
        # every representative is its own canonical relabeling
        for G in gr.enumerate_graphs(5):
            assert aug.graph_from_canonical_form(aug.canonical_form(G)) == G

    def test_too_large(self):
        with pytest.raises(errors.MPartError, match="n=9 above the enumeration limit 8"):
            gr.enumerate_graphs(9)
        with pytest.raises(errors.MPartError, match="n=10 above the split enumeration limit 9"):
            gr.enumerate_split_graphs(10)

    def test_split_matches_filtering(self):
        for n in range(1, 8):
            direct = {aug.canonical_form(G) for G in gr.enumerate_split_graphs(n)}
            filtered = {aug.canonical_form(G) for G in gr.enumerate_graphs(n)
                        if rec.split_partition(G) is not None}
            assert direct == filtered

    def test_split_small(self):
        assert len(gr.enumerate_split_graphs(2)) == 2

    def test_split_all_recognized(self):
        for n in range(1, 8):
            for G in gr.enumerate_split_graphs(n):
                assert rec.split_partition(G) is not None


def graph_decks(n):
    return aug.decoded(n, False)[1]


def split_graph_decks(n):
    return aug.decoded(n, True)[1]


def brute_deck(G, index):
    """Sorted distinct list indices of the classes of G - v, from scratch."""
    return tuple(sorted({index[aug.canonical_form(gr.delete_vertex(G, v))] for v in range(G.n)}))


class TestDecks:
    @pytest.mark.parametrize("graphs, decks, top", [
        (gr.enumerate_graphs, graph_decks, 7),
        (gr.enumerate_split_graphs, split_graph_decks, 8),
    ])
    def test_against_brute_force(self, graphs, decks, top):
        assert decks(0) == ((),)
        for n in range(1, top + 1):
            index = {aug.canonical_form(H): i for i, H in enumerate(graphs(n - 1))}
            got = decks(n)
            assert len(got) == len(graphs(n))
            for G, deck in zip(graphs(n), got):
                assert deck == brute_deck(G, index)

    @pytest.mark.parametrize("graphs, decks, split, top", [
        (gr.enumerate_graphs, graph_decks, False, 7),
        (gr.enumerate_split_graphs, split_graph_decks, True, 8),
    ])
    def test_orders_carry_each_parent_onto_the_graph(self, graphs, decks, split, top):
        assert aug.decoded(0, split)[2] == (b"",)
        for n in range(1, top + 1):
            parents = graphs(n - 1)
            orders = aug.decoded(n, split)[2]
            assert len(orders) == len(graphs(n))
            for G, deck, packed in zip(graphs(n), decks(n), orders):
                # one block per deck parent: the order, then the new
                # vertex's neighbourhood
                assert len(packed) == (n + 1) * len(deck)
                for j, p in enumerate(deck):
                    order = packed[j * (n + 1):j * (n + 1) + n]
                    assert sorted(order) == list(range(n))
                    new = order.index(n - 1)
                    # the parent is G - new, its vertex order[k] at G's vertex k
                    assert all(G.has_edge(u, v) == parents[p].has_edge(order[u], order[v])
                               for u in range(n) for v in range(n)
                               if new not in (u, v) and u != v)

    @pytest.mark.parametrize("split, top", [(False, 8), (True, 9)])
    def test_blocks_record_the_new_vertex_neighbourhood(self, split, top):
        # nb is the neighbourhood of G's vertex k with order[k] = n - 1,
        # each neighbour u as the parent's vertex order[u]
        for n in range(1, top + 1):
            graphs, decks, orders, _ = aug.decoded(n, split)
            for G, deck, packed in zip(graphs, decks, orders):
                for j in range(len(deck)):
                    block = packed[j * (n + 1):(j + 1) * (n + 1)]
                    order, nb = block[:n], block[n]
                    k = order.index(n - 1)
                    assert nb == sum(1 << order[u] for u in range(n) if G.has_edge(k, u))

    @pytest.mark.parametrize("test, bit", [(rec.is_bipartite, 1), (rec.is_chordal, 2)],
                             ids=["is_bipartite", "is_chordal"])
    def test_hereditary_classes_keep_their_decks(self, test, bit):
        # obstruction._candidates relies on this: it takes a class's members
        # from the committed class bytes and checks no deck, so every
        # member's deck must hold only members, by the recognizers and by
        # the committed bits alike
        recognized = [[test(G) is not None for G in gr.enumerate_graphs(n)] for n in range(9)]
        committed = [[bool(c & bit) for c in gr.generation(n, False).classes] for n in range(9)]
        for member in (recognized, committed):
            for n in range(1, 9):
                for i, deck in enumerate(graph_decks(n)):
                    if member[n][i]:
                        assert all(member[n - 1][j] for j in deck)

    def test_immutable(self):
        # every caller shares the cached section: none of its buffers can be
        # written
        gen = gr.generation(5, True)
        assert isinstance(gen.lens, bytes) and isinstance(gen.orders, bytes)
        for view in (gen.rows, gen.starts, gen.entries, gen.complements):
            with pytest.raises(TypeError):
                view[0] = 1

    def test_bad_order(self):
        with pytest.raises(errors.MPartError, match="n=9 above the enumeration limit 8"):
            gr.generation(9, False)
        with pytest.raises(errors.MPartError, match="n=10 above the split enumeration limit 9"):
            gr.generation(10, True)
        with pytest.raises(errors.MPartError, match="negative order"):
            gr.generation(-1, False)
        with pytest.raises(errors.MPartError, match="negative order"):
            gr.generation(-1, True)


class TestComplements:
    @pytest.mark.parametrize("split, top", [(False, gr.MAX_ENUM_ALL), (True, gr.MAX_ENUM_SPLIT)])
    def test_each_index_is_the_class_of_the_complement(self, split, top):
        for n in range(top + 1):
            graphs, _, _, complements = aug.decoded(n, split)
            assert len(complements) == len(graphs)
            assert all(complements[c] == i for i, c in enumerate(complements))
            for G, c in zip(graphs, complements):
                assert aug.canonical_form(gr.complement(G)) == aug.canonical_form(graphs[c])


class TestPickle:
    def test_round_trip(self):
        # Graph keeps no instance dict, and pickles to an equal graph
        G = gr.cycle(5)
        H = pickle.loads(pickle.dumps(G))
        assert H == G and hash(H) == hash(G)
        assert not hasattr(G, "__dict__")

    def test_a_graph_is_a_frozen_value(self):
        # equal by its fields and only to a Graph, hashed and shown by them,
        # with no weak reference, and no field can be assigned or deleted
        G = gr.cycle(4)
        assert G == gr.Graph(4, (10, 5, 10, 5)) and G != gr.Graph(4, (0,) * 4)
        assert G != (4, G.adj) and hash(G) == hash((4, G.adj))
        assert repr(G) == "Graph(n=4, adj=(10, 5, 10, 5))"
        with pytest.raises(AttributeError):
            G.n = 5
        with pytest.raises(AttributeError):
            del G.adj
        with pytest.raises(TypeError):
            weakref.ref(G)


class TestEdgeListFormat:
    def test_round_trip(self):
        G = gr.cycle(4)
        text = f"{G.n}; " + ", ".join(f"{u}-{v}" for u, v in G.edges())
        assert gr.parse_edge_list(text) == G

    def test_parse(self):
        assert gr.parse_edge_list("3; 0-1, 1-2") == gr.path(3)

    def test_bad(self):
        with pytest.raises(errors.MPartError, match="bad vertex count 'x'"):
            gr.parse_edge_list("x; 0-1")
