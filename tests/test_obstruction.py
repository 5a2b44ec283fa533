import json
import pickle
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import augmentation as aug
import mpart
from mpart import errors
from mpart import graph as gr
from mpart import obstruction as ob
from mpart import pattern as pat
from mpart import recognize as rec
from mpart import solver as sv
from mpart import verify as vf


def two_k2():
    return gr.disjoint_union(gr.complete(2), gr.complete(2))


def canonical_g6(G):
    """graph6 of G's canonical relabeling, the generator's representative."""
    return gr.to_graph6(aug.graph_from_canonical_form(aug.canonical_form(G)))


def delete_vertices(G, gone):
    """The subgraph induced by the vertices not in gone, highest deleted first."""
    for v in sorted(gone, reverse=True):
        G = gr.delete_vertex(G, v)
    return G


def _filtered(test, transform=lambda G: G):
    return lambda n: [transform(G) for G in gr.enumerate_graphs(n) if test(G) is not None]


ORACLE_CANDIDATES = {
    "all": gr.enumerate_graphs,
    "split": gr.enumerate_split_graphs,
    "bipartite": _filtered(rec.is_bipartite),
    "cobipartite": _filtered(rec.is_bipartite, gr.complement),
    "chordal": _filtered(rec.is_chordal),
}


def oracle_report(M, class_name, n_max):
    """Per-candidate enumeration: classify every candidate of every order,
    with no use of decks or of earlier orders."""
    found = []
    for n in range(1, n_max + 1):
        for G in ORACLE_CANDIDATES[class_name](n):
            status, payload = ob.classify_minimality(G, M)
            if status == "minimal":
                found.append((aug.canonical_form(G), G, payload))
    found.sort(key=lambda x: x[0])
    obstructions = tuple((gr.to_graph6(G), ob.MinimalityCertificate(G, w))
                         for _, G, w in found)
    return ob.EnumerationReport(M, class_name, n_max, obstructions)


def own_candidates(class_name, n):
    """(index, graph) of the class's members on n vertices, in the
    generation's order; the cobipartite ones are the complements of the
    bipartite members, at their indices."""
    gen = gr.generation(n, class_name == "split")
    if class_name == "cobipartite":
        return [(i, gr.complement(gen.graph(i))) for i in ob._candidates("bipartite", n)[0]]
    return [(i, gen.graph(i)) for i in ob._candidates(class_name, n)[0]]


def classify_open_report(M, class_name, n_max):
    """Enumeration that classifies every open candidate, whose whole deck
    partitions, under M itself, and keeps no witness to extend; unlike
    enumerate_minimal_obstructions it also enumerates pairs a part pattern
    decides."""
    found = []
    obstructed = set()
    for n in range(1, n_max + 1):
        now = set()
        decks = aug.decoded(n, class_name == "split")[1]
        for i, G in own_candidates(class_name, n):
            if not obstructed.isdisjoint(decks[i]):
                now.add(i)
                continue
            status, payload = ob.classify_minimality(G, M)
            assert status != "not-minimal"
            if status == "minimal":
                now.add(i)
                found.append((aug.canonical_form(G), G, payload))
        obstructed = now
    found.sort(key=lambda x: x[0])
    obstructions = tuple((gr.to_graph6(G), ob.MinimalityCertificate(G, w))
                         for _, G, w in found)
    return ob.EnumerationReport(M, class_name, n_max, obstructions)


def per_vertex_extend(G, deck, packed, partitioned, M):
    """`_extend` vertex by vertex, from G's adjacency: the parts of G from
    the first deck parent whose parts extend, each vertex of G read through
    the parent's order, the first n bytes of its block in packed, or None."""
    n = G.n
    adj_ok, nonadj_ok = M.masks
    for j, p in enumerate(deck):
        parts = partitioned[p][1]
        order = packed[j * (n + 1):j * (n + 1) + n]
        new = order.index(n - 1)
        row = G.adj[new]
        near = far = 0
        for k, u in enumerate(order):
            if row >> k & 1:
                near |= 1 << parts[u]
            elif k != new:
                far |= 1 << parts[u]
        for q in range(M.m):
            if not (near & ~adj_ok[q] or far & ~nonadj_ok[q]):
                return bytes(map((parts + bytes((q,))).__getitem__, order))
    return None


# matrices of 2, 3, 4 and 9 parts; each class has some that no part pattern
# of it decides
EXTEND_MATRICES = [pat.parse_matrix(rows) for rows in [
    "01;10", "0*;*1", "00;01", "001;011;111", "0*1;*1*;1*0", "0*1;*0*;1*0",
    "0110;1001;1001;0110", "0*10;*1*1;1*01;0111"]] + [pat.make_m_kt(4, 1),
                                                      pat.make_m_kt(9, 2),
                                                      pat.make_kl_matrix(1, 8)]


def drop_k3_from_the_deck_of_k3_plus_k1(monkeypatch):
    # K3 + K1 is obstructed but not minimal under 2-colouring.  With K3,
    # the last entry, dropped from its deck (its length one less, which
    # also drops its last block from the packed orders), the one graph
    # left there, K2 + K1, partitions, so the walk reaches K3 + K1 as open
    # (the shortened deck carries its own length), no witness extends, and
    # classify_minimality finds the obstructed deletion.  The candidates
    # are taken before the table is patched, so that no state of
    # _candidates's cache decides what they are
    gen = gr.generation(4, False)
    k3 = [aug.canonical_form(G) for G in gr.enumerate_graphs(3)].index(
        aug.canonical_form(gr.complete(3)))
    i = [aug.canonical_form(G) for G in gr.enumerate_graphs(4)].index(
        aug.canonical_form(gr.disjoint_union(gr.complete(3), gr.empty(1))))
    assert gen.lens[i] == 2 and aug.decoded(4, False)[1][i][-1] == k3
    lens = bytearray(gen.lens)
    lens[i] -= 1
    patched = gr.Generation(4, gen.rows, bytes(lens), gen.starts, gen.entries, gen.orders,
                            gen.complements, gen.classes)
    members, children = ob._candidates("all", 4)
    generation, candidates = ob.generation, ob._candidates
    monkeypatch.setattr(ob, "generation", lambda n, split: (
        patched if (n, split) == (4, False)
        else generation(n, split)))
    monkeypatch.setattr(ob, "_candidates", lambda class_name, n: (
        (members, children) if (class_name, n) == ("all", 4)
        else candidates(class_name, n)))


class TestIsObstruction:
    def test_odd_cycle(self):
        assert sv.solve(gr.cycle(5), pat.make_kl_matrix(2, 0)) is None

    def test_even_cycle(self):
        assert sv.solve(gr.cycle(6), pat.make_kl_matrix(2, 0)) is not None

    def test_k1_clique_part(self):
        assert sv.solve(gr.empty(1), pat.parse_matrix("1")) is not None


class TestMinimality:
    def test_c5_minimal(self):
        status, witnesses = ob.classify_minimality(gr.cycle(5), pat.make_kl_matrix(2, 0))
        assert status == "minimal"
        assert len(witnesses) == 5

    def test_p6_partitionable_c7_minimal(self):
        M = pat.make_kl_matrix(2, 0)
        status, _ = ob.classify_minimality(gr.path(6), M)
        assert status == "partitionable"
        assert ob.classify_minimality(gr.cycle(7), M)[0] == "minimal"

    def test_two_triangles_not_minimal(self):
        M = pat.make_kl_matrix(2, 0)
        status, v = ob.classify_minimality(gr.disjoint_union(gr.cycle(3), gr.cycle(3)), M)
        assert status == "not-minimal"
        assert 0 <= v < 6

    def test_gt3_minimal(self):
        assert ob.classify_minimality(ob.construct_gt(3), pat.make_m_kt(3, 1))[0] == "minimal"

    def test_certificate_witnesses_validate(self):
        M = pat.make_kl_matrix(1, 1)
        status, witnesses = ob.classify_minimality(gr.cycle(5), M)
        assert status == "minimal"
        for v in range(5):
            assert sv.validate(gr.delete_vertex(gr.cycle(5), v), M, witnesses[v].parts)


class TestEnumeration:
    def test_odd_cycles(self):
        report = ob.enumerate_minimal_obstructions(pat.make_kl_matrix(2, 0), "all", 7)
        got = {g6 for g6, _ in report.obstructions}
        want = {canonical_g6(gr.cycle(k)) for k in (3, 5, 7)}
        assert got == want
        assert report.counts == {3: 1, 5: 1, 7: 1}

    def test_split_characterization(self):
        report = ob.enumerate_minimal_obstructions(pat.make_kl_matrix(1, 1), "all", 6)
        want = {canonical_g6(G) for G in (two_k2(), gr.cycle(4), gr.cycle(5))}
        assert {g6 for g6, _ in report.obstructions} == want

    def test_split_class_empty(self):
        report = ob.enumerate_minimal_obstructions(pat.make_kl_matrix(1, 1), "split", 9)
        assert report.obstructions == ()

    def test_diagonal_star_trivial(self):
        report = ob.enumerate_minimal_obstructions(pat.parse_matrix("*0;00"), "all", 5)
        assert report.obstructions == ()
        assert "diagonal star" in report.note

    def test_too_large(self):
        with pytest.raises(errors.MPartError, match="n_max=9 above the all limit 8"):
            ob.enumerate_minimal_obstructions(pat.parse_matrix("0"), "all", 9)

    def test_cobipartite_class_empty_for_own_matrix(self):
        # every co-bipartite graph partitions under the (0,2) matrix
        report = ob.enumerate_minimal_obstructions(pat.make_kl_matrix(0, 2), "cobipartite", 6)
        assert report.obstructions == ()

    def test_cobipartite_route(self):
        # single clique part: the only small co-bipartite minimal obstruction
        # is a non-edge, the complement of the bipartite obstruction K2
        co = ob.enumerate_minimal_obstructions(pat.parse_matrix("1"), "cobipartite", 6)
        assert [g6 for g6, _ in co.obstructions] == [gr.to_graph6(gr.empty(2))]
        for _, cert in co.obstructions:
            assert rec.is_cobipartite(cert.graph) is not None
            assert sv.solve(cert.graph, pat.parse_matrix("1")) is None

    @pytest.mark.parametrize("rows", ["1", "0*;*1", "01;11", "0*1;*1*;1*0"])
    def test_cobipartite_is_complement_of_bipartite(self, rows):
        # at full range: the cobipartite catalog of M is the complement of the
        # bipartite catalog of the complement matrix, graph for graph, in the
        # canonical order of the complements, and witness for witness: the
        # complements column only orders the catalog
        M = pat.parse_matrix(rows)
        co = ob.enumerate_minimal_obstructions(M, "cobipartite", 8)
        bip = ob.enumerate_minimal_obstructions(pat.complement_matrix(M), "bipartite", 8)
        want = sorted((gr.complement(cert.graph) for _, cert in bip.obstructions),
                      key=aug.canonical_form)
        assert [g6 for g6, _ in co.obstructions] == [gr.to_graph6(H) for H in want]
        assert co.counts == bip.counts
        bip_witnesses = {gr.to_graph6(gr.complement(cert.graph)): cert.witnesses
                         for _, cert in bip.obstructions}
        for g6, cert in co.obstructions:
            assert [w.parts for w in cert.witnesses] == [w.parts for w in bip_witnesses[g6]]
            for v, w in enumerate(cert.witnesses):
                assert sv.validate(gr.delete_vertex(cert.graph, v), M, w.parts)

    @pytest.mark.parametrize("class_name", sorted(ob.CLASS_LIMITS))
    def test_graph6_is_a_canonical_representative(self, class_name):
        # cobipartite candidates are complements of canonical bipartite
        # graphs, so there the complement is the canonical representative
        flip = gr.complement if class_name == "cobipartite" else (lambda G: G)
        n_max = 7 if class_name == "split" else 6
        emitted = [g6 for rows in ["01;11", "01;10", "001;011;111", "0*1;*1*;1*0"]
                   for g6, _ in ob.enumerate_minimal_obstructions(
                       pat.parse_matrix(rows), class_name, n_max).obstructions]
        assert emitted
        for g6 in emitted:
            G = flip(gr.parse_graph6(g6))
            assert gr.to_graph6(G) == canonical_g6(G)

    def test_jobs_is_accepted_and_ignored(self):
        M = pat.make_kl_matrix(2, 0)
        seq = ob.enumerate_minimal_obstructions(M, "all", 6, jobs=1)
        par = ob.enumerate_minimal_obstructions(M, "all", 6, jobs=2)
        assert [g6 for g6, _ in seq.obstructions] == [g6 for g6, _ in par.obstructions]

    @pytest.mark.parametrize("rows", ["0*;*0", "0*;*1", "01;11", "1*;*1", "0**;*0*;**0",
                                      "0*1;*1*;1*0", "01*;10*;**1"])
    @pytest.mark.parametrize("class_name", sorted(ob.CLASS_LIMITS))
    def test_matches_per_candidate_oracle(self, rows, class_name):
        M = pat.parse_matrix(rows)
        n_max = 7 if class_name == "split" else 6
        report = ob.enumerate_minimal_obstructions(M, class_name, n_max)
        assert ob.report_to_json(report) == ob.report_to_json(oracle_report(M, class_name, n_max))

    @pytest.mark.parametrize("class_name", sorted(ob.CLASS_LIMITS))
    def test_matches_classifying_every_open_candidate(self, class_name):
        n_max = 7 if class_name == "split" else 6
        for M in vf._diag_star_free_matrices():
            report = ob.enumerate_minimal_obstructions(M, class_name, n_max)
            assert ob.report_to_json(report) == \
                ob.report_to_json(classify_open_report(M, class_name, n_max))

    def test_only_open_candidates_are_classified(self, monkeypatch):
        # a candidate reaches classify_minimality only if no deletion is obstructed
        M = pat.make_kl_matrix(2, 0)
        seen = []
        classify = ob.classify_minimality

        def recording(G, M):
            seen.append(G)
            return classify(G, M)

        monkeypatch.setattr(ob, "classify_minimality", recording)
        ob.enumerate_minimal_obstructions(M, "all", 6)
        assert 0 < len(seen) < sum(len(gr.enumerate_graphs(n)) for n in range(1, 7))
        for G in seen:
            assert all(sv.solve(gr.delete_vertex(G, v), M) is not None for v in range(G.n))

    @pytest.mark.parametrize("class_name", sorted(ob.CLASS_LIMITS))
    def test_extension_matches_the_per_vertex_oracle(self, class_name, monkeypatch):
        # every open candidate's extension equals the one found vertex by
        # vertex from the candidate's own adjacency, under the matrix the
        # walk runs (in cobipartite, the bipartite walk under the complement
        # matrix); at the top order only whether one exists
        extend = ob._extend
        limit = ob.CLASS_LIMITS[class_name]
        tables = [aug.decoded(n, class_name == "split") for n in range(limit + 1)]
        outcomes = set()

        def checking(gen, i, partitioned, spread, forbid, top):
            got = extend(gen, i, partitioned, spread, forbid, top)
            graphs, decks, orders, _ = tables[gen.n]
            want = per_vertex_extend(graphs[i], decks[i], orders[i], partitioned, W)
            if top:
                assert (got is None) == (want is None)
            else:
                assert got == want
            outcomes.add((M.m, got is not None))
            return got

        monkeypatch.setattr(ob, "_extend", checking)
        for M in EXTEND_MATRICES:
            W = pat.complement_matrix(M) if class_name == "cobipartite" else M
            ob.enumerate_minimal_obstructions(M, class_name, limit)
        assert {m for m, _ in outcomes} == {2, 3, 4, 9}
        assert {extended for _, extended in outcomes} == {False, True}

    def test_a_deck_missing_an_obstructed_deletion_raises_internal_error(self, monkeypatch):
        drop_k3_from_the_deck_of_k3_plus_k1(monkeypatch)
        with pytest.raises(errors.InternalError):
            ob.enumerate_minimal_obstructions(pat.make_kl_matrix(2, 0), "all", 4)

    @pytest.mark.parametrize("class_name", sorted(ob.CLASS_LIMITS))
    def test_candidates_arrive_in_catalog_order(self, class_name, monkeypatch):
        # the members of each order as enumeration takes them, at the limit
        # under "0", which no part pattern decides: their indices, and the
        # canonical forms of their graphs, strictly increase, so index order
        # is catalog order, and the walk's one sort, by order and then
        # index, puts the obstructions in catalog order in whatever order
        # they are reached.  cobipartite takes the bipartite candidates and
        # sorts by the index of each complement's class, which
        # test_cobipartite_is_complement_of_bipartite checks.  The cache is
        # warmed first: a cold _candidates of a class with a member test
        # calls _candidates at n - 1, which would record an order the walk
        # may not have drawn
        drawn = {}
        candidates = ob._candidates
        split = class_name == "split"
        limit = ob.CLASS_LIMITS[class_name]
        for n in range(1, limit + 1):
            candidates("bipartite" if class_name == "cobipartite" else class_name, n)

        def recording(name, n):
            got = candidates(name, n)
            drawn[n] = got[0]
            return got

        monkeypatch.setattr(ob, "_candidates", recording)
        ob.enumerate_minimal_obstructions(pat.parse_matrix("0"), class_name, limit)
        assert sorted(drawn) == list(range(1, limit + 1))
        for n, members in drawn.items():
            assert members and all(a < b for a, b in zip(members, members[1:])), n
            gen = gr.generation(n, split)
            forms = [aug.canonical_form(gen.graph(i)) for i in members]
            assert all(a < b for a, b in zip(forms, forms[1:])), n

    @pytest.mark.parametrize("class_name", sorted(ob.CLASS_LIMITS))
    def test_children_invert_the_decks(self, class_name):
        # each (parent, member) pair once, the members sorted, one entry
        # per graph of the generation one order down, all in the
        # generation's indices; and the decks hold distinct indices, so a
        # count of partitionable parents equal to a deck's length means its
        # whole deck partitions.  cobipartite runs the bipartite walk, so it
        # checks bipartite's candidates
        split = class_name == "split"
        walk = "bipartite" if class_name == "cobipartite" else class_name
        for n in range(1, ob.CLASS_LIMITS[class_name] + 1):
            decks = aug.decoded(n, split)[1]
            members, children = ob._candidates(walk, n)
            assert len(children) == len(gr.generation(n - 1, split))
            assert all(len(set(deck)) == len(deck) for deck in decks)
            edges = [(p, i) for p, kids in enumerate(children) for i in kids]
            assert edges == sorted((p, i) for i in members for p in decks[i]), n
            assert len(set(edges)) == len(edges)

    def test_cobipartite_has_no_candidates_of_its_own(self):
        # its walk is the bipartite one, so its candidates are never read,
        # and a read of them is refused rather than given every graph
        with pytest.raises(errors.InternalError, match="bipartite"):
            ob._candidates("cobipartite", 3)

    @pytest.mark.parametrize("class_name", ["bipartite", "chordal"])
    def test_members_are_the_recognizers_at_the_full_range(self, class_name):
        # the members are the graphs whose class byte has the class's bit,
        # and they are every graph the recognizer admits, at every order up
        # to the class limit.  From the first
        # minimal non-member's order on (K3's in bipartite, C4's in chordal)
        # some graph is not a member, so a member's index in the generation
        # and its position among the members differ
        first = 3 if class_name == "bipartite" else 4
        for n in range(1, ob.CLASS_LIMITS[class_name] + 1):
            graphs = gr.enumerate_graphs(n)
            want = [i for i, G in enumerate(graphs)
                    if rec.RECOGNIZERS[class_name](G) is not None]
            members = ob._candidates(class_name, n)[0]
            assert list(members) == want, n
            assert (set(members) < set(range(len(graphs)))) == (n >= first), n

    @pytest.mark.parametrize("class_name, whole", [("bipartite", 455), ("chordal", 2655)])
    def test_a_whole_deck_of_members_is_a_member_or_a_cycle(self, class_name, whole):
        # of the 13,598 graphs with n <= 8, the committed class bytes have
        # this many whose deletions are all members: the members, and the
        # class's minimal non-members, at order n the n-cycle, a hole
        # (n >= 4) in chordal (Dirac) and an odd cycle in bipartite (König)
        bit = ob._CLASSES[class_name][2]
        reached = 0
        for n in range(1, ob.CLASS_LIMITS[class_name] + 1):
            gen, below = gr.generation(n, False), gr.generation(n - 1, False)
            rejected = []
            for i, deck in enumerate(aug.decoded(n, False)[1]):
                if all(below.classes[p] & bit for p in deck):
                    reached += 1
                    if not gen.classes[i] & bit:
                        rejected.append(aug.canonical_form(gen.graph(i)))
            hole = n >= 4 if class_name == "chordal" else n >= 3 and n % 2 == 1
            assert rejected == ([aug.canonical_form(gr.cycle(n))] if hole else []), n
        assert reached == whole

    def test_reports_of_one_pair_share_witnesses(self):
        # a second report of the same pair, made while the first is held,
        # reuses its witness objects and its graph6 strings
        M = pat.parse_matrix("0**;*0*;**0")
        first = ob.enumerate_minimal_obstructions(M, "chordal", 7)
        second = ob.enumerate_minimal_obstructions(M, "chordal", 7)
        assert first.obstructions and len(first.obstructions) == len(second.obstructions)
        for (g1, c1), (g2, c2) in zip(first.obstructions, second.obstructions):
            assert g1 is g2
            assert len(c1.witnesses) == len(c2.witnesses)
            assert all(w1 is w2 for w1, w2 in zip(c1.witnesses, c2.witnesses))

    def test_reports_of_one_pair_share_certificates(self):
        # a second report of the same pair, made while the first is held,
        # reuses its certificate objects; a certificate pickles to an equal one
        M = pat.parse_matrix("0**;*0*;**0")
        first = ob.enumerate_minimal_obstructions(M, "all", 7)
        second = ob.enumerate_minimal_obstructions(M, "all", 7)
        assert first.obstructions and len(first.obstructions) == len(second.obstructions)
        assert all(c1 is c2 for (_, c1), (_, c2) in zip(first.obstructions, second.obstructions))
        cert = first.obstructions[-1][1]
        assert pickle.loads(pickle.dumps(cert)) == cert

    def test_negative_n_max(self):
        with pytest.raises(errors.MPartError, match="n_max=-3 is negative"):
            ob.enumerate_minimal_obstructions(pat.parse_matrix("0"), "all", -3)
        assert ob.enumerate_minimal_obstructions(pat.parse_matrix("0"), "all", 0).obstructions == ()

    def test_obstruction_heredity(self):
        # a minimal obstruction has no obstruction among proper induced subgraphs
        M = pat.make_kl_matrix(1, 1)
        report = ob.enumerate_minimal_obstructions(M, "all", 6)
        for _, cert in report.obstructions:
            G = cert.graph
            for k in range(1, G.n):
                for gone in combinations(range(G.n), k):
                    assert sv.solve(delete_vertices(G, gone), M) is not None


class TestColdBuilds:
    """A cold run builds a Graph only where one is read: none to decode the
    table or to take the candidates of any class, and in the walk one per
    candidate it classifies."""

    @pytest.fixture
    def counted(self, monkeypatch):
        # (built, classified), from cold caches: the orders of the Graphs
        # constructed anywhere but inside classify_minimality, whose
        # deletions are its own, and the graphs it classified
        built, classified, inside = [], [], []
        init, classify = gr.Graph.__init__, ob.classify_minimality

        def counting_init(self, n, adj):
            if not inside:
                built.append(n)
            init(self, n, adj)

        def counting_classify(G, M):
            classified.append(G)
            inside.append(G)
            try:
                return classify(G, M)
            finally:
                inside.pop()

        monkeypatch.setattr(gr.Graph, "__init__", counting_init)
        monkeypatch.setattr(ob, "classify_minimality", counting_classify)
        gr.generation.cache_clear()
        ob._candidates.cache_clear()
        return built, classified

    def test_decoding_and_candidates_build_no_graph(self, counted):
        # every class with candidates of its own, the members of bipartite
        # and chordal read from the class bytes
        built, _ = counted
        for split, top in ((False, gr.MAX_ENUM_ALL), (True, gr.MAX_ENUM_SPLIT)):
            for n in range(top + 1):
                gr.generation(n, split)
        for class_name in ("all", "split", "bipartite", "chordal"):
            for n in range(1, ob.CLASS_LIMITS[class_name] + 1):
                ob._candidates(class_name, n)
        assert built == []

    def test_the_all_class_walk_builds_only_what_it_classifies(self, counted):
        # 63 of the 13,598 graphs on 1 to 8 vertices under this matrix
        built, classified = counted
        report = ob.enumerate_minimal_obstructions(pat.parse_matrix("0*1;*1*;1*0"), "all", 8)
        assert report.obstructions
        assert 0 < len(built) <= len(classified) < 100


# class -> the diagonals of its 2-part pattern
TWO_SIDED = {"split": "01", "bipartite": "00", "cobipartite": "11"}


def star_pair(M, diagonals):
    """The first parts (p, q), p != q, with diagonals M[p][p], M[q][q] as
    given and M[p][q] = *, or None."""
    return next(((p, q) for p in range(M.m) for q in range(M.m)
                 if p != q and M.rows[p][p] + M.rows[q][q] == diagonals and M.rows[p][q] == "*"),
                None)


class TestClassPatterns:
    """The (matrix, class) pairs decided by a part pattern of the class,
    among the 228 diagonal-star-free matrices.  The lemma behind the rule,
    that every member partitions through the pattern's parts, is the
    class-patterns acceptance criterion."""

    def test_star_blocks_gives_the_first_star_pair(self):
        for M in vf._diag_star_free_matrices():
            for diagonals in TWO_SIDED.values():
                assert M.star_blocks.get(diagonals) == star_pair(M, diagonals)

    def test_coverage(self, monkeypatch):
        # a pair is decided iff enumeration takes no candidates, not even K1's
        # (_candidates at n = 1 makes no call of its own at n - 1)
        drawn = []
        candidates = ob._candidates
        monkeypatch.setattr(ob, "_candidates", lambda class_name, n: (
            drawn.append((class_name, n)) or candidates(class_name, n)))

        def decided(M, class_name):
            drawn.clear()
            ob.enumerate_minimal_obstructions(M, class_name, 1)
            assert ob.decided_by_pattern(M, class_name) == (not drawn)
            return not drawn

        matrices = vf._diag_star_free_matrices()
        covered = {c: {M for M in matrices if decided(M, c)} for c in ob.CLASS_LIMITS}
        assert {c: len(ms) for c, ms in covered.items()} == \
            {"all": 0, "bipartite": 47, "chordal": 0, "cobipartite": 47, "split": 92}
        for c, diagonals in TWO_SIDED.items():
            assert covered[c] == {M for M in matrices if star_pair(M, diagonals)}
        assert {pat.complement_matrix(M) for M in covered["bipartite"]} == covered["cobipartite"]
        # enumeration-determinism's matrix has no one-diagonal part
        assert pat.parse_matrix("0*1;*0*;1*0") not in covered["split"]

    def test_decided_report(self):
        for class_name, diagonals in TWO_SIDED.items():
            limit = ob.CLASS_LIMITS[class_name]
            for M in vf._diag_star_free_matrices():
                if star_pair(M, diagonals):
                    report = ob.enumerate_minimal_obstructions(M, class_name, limit)
                    assert report.obstructions == () and report.note == ""
                    with pytest.raises(errors.MPartError,
                                       match=f"n_max={limit + 1} above the {class_name} limit"):
                        ob.enumerate_minimal_obstructions(M, class_name, limit + 1)


class TestTheorem5:
    def test_sizes(self):
        for n in (1, 2):
            M, G = ob.construct_theorem5(n)
            assert G.n == ob.theorem5_size(n) == 4 * n + 1 + comb(2 * n, n)
            assert M == pat.make_m_kt(2 * n + 1, n)

    def test_clique_structure(self):
        _, G = ob.construct_theorem5(2)
        assert G.n == 15
        for u in range(5):  # a and B form a clique of size 2n+1
            for v in range(u + 1, 5):
                assert G.has_edge(u, v)

    def test_split(self):
        for n in (1, 2):
            _, G = ob.construct_theorem5(n)
            assert rec.split_partition(G) is not None

    def test_minimal_obstruction(self):
        for n in (1, 2):
            M, G = ob.construct_theorem5(n)
            assert ob.classify_minimality(G, M)[0] == "minimal"

    def test_solve_split_agrees_on_n1(self):
        M, G = ob.construct_theorem5(1)
        assert sv.solve_split(G, M) is None

    def test_solve_split_agrees_on_n2_and_deletions(self):
        M, G = ob.construct_theorem5(2)
        for H in [G] + [gr.delete_vertex(G, v) for v in range(G.n)]:
            s1 = sv.solve(H, M)
            s2 = sv.solve_split(H, M)
            assert (s1 is None) == (s2 is None) == (H is G)
            if s2 is not None:
                assert sv.validate(H, M, s2.parts)

    def test_bad_parameters(self):
        with pytest.raises(errors.MPartError, match="need n >= 1"):
            ob.construct_theorem5(0)
        with pytest.raises(errors.MPartError, match="n=4 needs more than 64 vertices"):
            ob.construct_theorem5(4)  # over the 64-vertex cap
        with pytest.raises(errors.MPartError, match="n=1000000000 needs more than 64 vertices"):
            ob.construct_theorem5(10**9)  # refused before C(2n, n) is computed


class TestGtFamily:
    def test_shape(self):
        G = ob.construct_gt(3)
        assert G.n == 7
        assert G.degree(6) == 4  # interior vertex misses the endpoints

    def test_chordal(self):
        assert rec.is_chordal(ob.construct_gt(3)) is not None

    def test_delete_u_gives_path(self):
        G = ob.construct_gt(3)
        assert aug.canonical_form(gr.delete_vertex(G, 6)) == aug.canonical_form(gr.path(6))

    def test_induced_2k2(self):
        G = ob.construct_gt(3)
        sub = delete_vertices(G, [2, 3, 6])
        assert aug.canonical_form(sub) == aug.canonical_form(two_k2())

    def test_bad_parameters(self):
        with pytest.raises(errors.MPartError, match="need t >= 3"):
            ob.construct_gt(2)
        with pytest.raises(errors.MPartError, match="above the 64-vertex cap"):
            ob.construct_gt(10**9)  # refused before the edge list is built


class TestBounds:
    def test_values(self):
        assert ob.theorem1_bound(1, 1) == 11
        assert ob.theorem4_bound(2, 0) == 6
        assert ob.theorem5_size(2) == 15
        assert ob.feder2008_bound(1, 1) == 4

    def test_theorem1_swap(self):
        assert ob.theorem1_bound(0, 2) == ob.theorem1_bound(2, 0)
        assert ob.theorem1_bound(1, 3) == ob.theorem1_bound(3, 1)

    def test_bad_parameters(self):
        with pytest.raises(errors.MPartError, match=r"need k\+ell >= 1, got k=0, ell=0"):
            ob.theorem1_bound(0, 0)
        with pytest.raises(errors.MPartError, match="need n >= 1"):
            ob.theorem5_size(0)

    def test_star_free_bound_at_the_class_limit(self):
        # under a matrix with no star, no minimal obstruction has more than
        # feder2008_bound(k, ell) = (k + 1)(ell + 1) vertices; of the 72
        # star-free 2x2 and 3x3 matrices, 26 have one of exactly that order
        matrices = [M for M in vf._diag_star_free_matrices()
                    if not any(pat.STAR in r for r in M.rows)]
        assert len(matrices) == 72
        reached = 0
        for M in matrices:
            bound = ob.feder2008_bound(*M.kl)
            orders = ob.enumerate_minimal_obstructions(M, "all", ob.CLASS_LIMITS["all"]).counts
            assert max(orders, default=0) <= bound, M.to_text()
            reached += bound in orders
        assert reached == 26


class TestReports:
    def test_json_and_tsv(self):
        report = ob.enumerate_minimal_obstructions(pat.make_kl_matrix(2, 0), "all", 5)
        data = json.loads(ob.report_to_json(report))
        assert data["counts"] == {"3": 1, "5": 1}
        tsv = ob.report_to_tsv(report).splitlines()
        assert tsv[:4] == ["order\tcount", "3\t1", "5\t1", ""]
        assert tsv[4] == "n\tgraph6\tcertificate-ok"
        assert len(tsv) == 7

    def test_save_catalog(self, tmp_path):
        report = ob.enumerate_minimal_obstructions(pat.make_kl_matrix(2, 0), "all", 5)
        base = Path(ob.save_catalog(report, tmp_path))
        assert (base / "n3.g6").read_text().strip() == "Bw"
        manifest = json.loads((base / "manifest.json").read_text())
        assert manifest["matrix"] == "0*;*0"
        assert manifest["bounds"]["bipartite_order_bound"] == 6
        assert manifest["version"] == mpart.__version__

    def test_save_catalog_removes_stale_orders(self, tmp_path):
        # a smaller run into the same directory leaves no file of an order
        # its manifest does not count, and keeps files that are not orders
        M = pat.make_kl_matrix(2, 0)
        first = Path(ob.save_catalog(ob.enumerate_minimal_obstructions(M, "all", 7), tmp_path))
        assert (first / "n7.g6").is_file()
        (first / "notes.txt").write_text("kept")
        base = Path(ob.save_catalog(ob.enumerate_minimal_obstructions(M, "all", 5), tmp_path))
        manifest = json.loads((base / "manifest.json").read_text())
        assert manifest["counts"] == {"3": 1, "5": 1}
        assert sorted(p.name for p in base.iterdir()) == \
            ["manifest.json", "n3.g6", "n5.g6", "notes.txt"]
