import random
from itertools import product

import pytest

from mpart import errors
from mpart import graph as gr
from mpart import obstruction as ob
from mpart import pattern as pat
from mpart import recognize as rec
from mpart import solver as sv
from unpruned import unpruned_solve


def two_k2():
    return gr.disjoint_union(gr.complete(2), gr.complete(2))


def random_graph(rng, n, p=0.5):
    return gr.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < p])


def random_matrix(rng, m, star_diag=False):
    alphabet = "01*" if star_diag else "01"
    rows = [["" for _ in range(m)] for _ in range(m)]
    for i in range(m):
        rows[i][i] = rng.choice(alphabet)
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = rng.choice("01*")
    return pat.make_matrix(["".join(r) for r in rows])


def first_valid_assignment(G, M):
    """The first assignment in product order that every pair's entry allows."""
    def valid(parts):
        return all(M.rows[parts[u]][parts[v]] == "*"
                   or (M.rows[parts[u]][parts[v]] == "1") == G.has_edge(u, v)
                   for u in range(G.n) for v in range(u + 1, G.n))

    return next((p for p in product(range(M.m), repeat=G.n) if valid(p)), None)


class TestValidate:
    def test_c4_bipartition(self):
        assert sv.validate(gr.cycle(4), pat.make_kl_matrix(2, 0), [0, 1, 0, 1])

    def test_k2_same_independent_part(self):
        assert not sv.validate(gr.complete(2), pat.parse_matrix("0"), [0, 0])

    def test_empty(self):
        assert sv.validate(gr.empty(0), pat.parse_matrix("0*;*1"), [])

    def test_part_out_of_range(self):
        with pytest.raises(errors.MPartError, match="part index 1 outside 0..0"):
            sv.validate(gr.complete(2), pat.parse_matrix("0"), [0, 1])


class TestSolve:
    def test_odd_cycle_not_bipartite(self):
        assert sv.solve(gr.cycle(3), pat.make_kl_matrix(2, 0)) is None

    def test_split_graph(self):
        assert sv.solve(gr.path(4), pat.make_kl_matrix(1, 1)) is not None
        assert sv.solve(two_k2(), pat.make_kl_matrix(1, 1)) is None

    def test_k2_single_independent_part(self):
        assert sv.solve(gr.complete(2), pat.parse_matrix("0")) is None

    def test_diagonal_star_fast_path(self):
        w = sv.solve(gr.complete(4), pat.parse_matrix("0*;**"))
        assert w == sv.PartAssignment((1, 1, 1, 1))

    def test_deterministic(self):
        M = pat.make_kl_matrix(2, 1)
        G = gr.cycle(6)
        assert sv.solve(G, M) == sv.solve(G, M)

    def test_witness_always_validates(self):
        rng = random.Random(31)
        for _ in range(150):
            G = random_graph(rng, rng.randint(0, 8))
            M = random_matrix(rng, rng.randint(1, 3), star_diag=True)
            w = sv.solve(G, M)
            if w is not None:
                assert sv.validate(G, M, w.parts)

    def test_witness_matches_unpruned_search_on_the_families(self):
        # the families with interchangeable parts: M_{k,t} and the (k, ell) matrices
        mats = [pat.make_m_kt(k, t) for k in range(2, 6) for t in range(1, k)]
        mats += [pat.make_kl_matrix(k, ell) for k in range(5) for ell in range(5 - k) if k + ell]
        assert len(mats) == 24
        for n in range(7):
            for G in gr.enumerate_split_graphs(n):
                for M in mats:
                    w = sv.solve(G, M)
                    assert (None if w is None else w.parts) == unpruned_solve(G, M)

    def test_witness_matches_unpruned_search_under_every_4_part_matrix(self):
        # The 5-cycle and a diamond with a pendant vertex at a tip, numbered as
        # enumerate_graphs numbers them.  Of the graphs on at most 5 vertices so
        # numbered, they are the only ones where, under some 4-part matrix, a
        # jump would skip a solution if a wipe-out were not explained by what
        # narrowed the emptied domain; with 3 parts, such graphs start at 7.
        graphs = [gr.parse_graph6("DLo"), gr.parse_graph6("DJk")]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for diag in product("01", repeat=4):
            for off in product("01*", repeat=len(pairs)):
                rows = [[diag[i]] * 4 for i in range(4)]
                for (i, j), e in zip(pairs, off):
                    rows[i][j] = rows[j][i] = e
                M = pat.make_matrix(["".join(r) for r in rows])
                for G in graphs:
                    w = sv.solve(G, M)
                    assert (None if w is None else w.parts) == unpruned_solve(G, M)


class TestExistsPartition:
    def test_empty_graph(self):
        assert sv.exists_partition(gr.empty(0), pat.parse_matrix("0*;*1")) == ()

    def test_k1(self):
        assert sv.exists_partition(gr.empty(1), pat.parse_matrix("0")) == (0,)

    def test_k2_takes_the_lowest_parts(self):
        assert sv.exists_partition(gr.complete(2), pat.make_kl_matrix(2, 0)) == (0, 1)
        assert sv.exists_partition(gr.complete(2), pat.parse_matrix("0")) is None

    def test_guard(self):
        with pytest.raises(errors.MPartError, match=r"guarded at n <= 10, m <= 4 \(n=11, m=1\)"):
            sv.exists_partition(gr.empty(11), pat.parse_matrix("0"))
        with pytest.raises(errors.MPartError, match=r"guarded at n <= 10, m <= 4 \(n=1, m=5\)"):
            sv.exists_partition(gr.empty(1), pat.make_kl_matrix(3, 2))

    def test_matches_the_lexicographic_brute_force(self):
        mats = [pat.make_matrix([a + b, b + c]) for a, b, c in product("01*", repeat=3)]
        for n in range(6):
            for G in gr.enumerate_graphs(n):
                for M in mats:
                    assert sv.exists_partition(G, M) == first_valid_assignment(G, M)


class TestExactness:
    def test_all_graphs_n4_all_2x2(self):
        mats = [pat.make_matrix([a + b, b + c])
                for a, b, c in product("01*", repeat=3)]
        for n in range(1, 5):
            for G in gr.enumerate_graphs(n):
                for M in mats:
                    assert (sv.solve(G, M) is None) == (sv.exists_partition(G, M) is None)

    def test_complement_duality(self):
        # complementing G and M swaps each part's clique and independent
        # masks, so the search sees the same domain sizes and interchangeable
        # parts: the witness and the minimality verdict are the same
        rng = random.Random(13)
        for _ in range(100):
            G = random_graph(rng, rng.randint(0, 8))
            M = random_matrix(rng, rng.randint(1, 4), star_diag=True)
            H, Mc = gr.complement(G), pat.complement_matrix(M)
            assert sv.solve(H, Mc) == sv.solve(G, M)
            assert ob.classify_minimality(H, Mc) == ob.classify_minimality(G, M)

    def test_deletion_monotonicity(self):
        rng = random.Random(17)
        for _ in range(60):
            G = random_graph(rng, rng.randint(1, 7))
            M = random_matrix(rng, rng.randint(1, 3))
            if sv.solve(G, M) is None:
                continue
            for v in range(G.n):
                assert sv.solve(gr.delete_vertex(G, v), M) is not None


class TestSolveSplit:
    def test_not_split(self):
        with pytest.raises(errors.MPartError, match="input graph is not split"):
            sv.solve_split(gr.cycle(4), pat.make_kl_matrix(1, 1))
        # the split check comes before the diagonal check
        with pytest.raises(errors.MPartError, match="input graph is not split"):
            sv.solve_split(gr.cycle(4), pat.parse_matrix("**;*1"))

    def test_diagonal_star_rejected(self):
        with pytest.raises(errors.MPartError, match=r"diagonal '\*1' contains a star"):
            sv.solve_split(gr.path(3), pat.parse_matrix("**;*1"))

    def test_c_star_direct_witness(self):
        # the witness is read off the C-star pair and the split partition:
        # the independent side goes to p, the clique to q
        for rows in ("0*;*1", "1**;*0*;**1"):
            M = pat.parse_matrix(rows)
            p, q = M.star_blocks["01"]
            for n in range(1, 8):
                for G in gr.enumerate_split_graphs(n):
                    sides = rec.split_partition(G)
                    w = sv.solve_split(G, M)
                    assert w.parts == tuple(q if s else p for s in sides)
                    assert sv.validate(G, M, w.parts)

    def test_c_star_witness_checked_without_assert(self, monkeypatch):
        # the check must survive python -O, which strips assert statements
        monkeypatch.setattr(sv, "validate", lambda G, M, w: False)
        with pytest.raises(errors.InternalError):
            sv.solve_split(gr.path(3), pat.parse_matrix("0*;*1"))

    def test_agrees_with_solve(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 12)
            c = rng.randint(0, n)
            edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
            p = rng.random()
            for u in range(c):
                for v in range(c, n):
                    if rng.random() < p:
                        edges.append((u, v))
            G = gr.from_edges(n, edges)
            M = random_matrix(rng, rng.randint(1, 4))
            s1 = sv.solve(G, M)
            s2 = sv.solve_split(G, M)
            assert (s1 is None) == (s2 is None)
            if s2 is not None:
                assert sv.validate(G, M, s2.parts)
