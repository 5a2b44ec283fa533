import gc
import random
import weakref
from itertools import product

import pytest

from mpart import errors
from mpart import graph as gr
from mpart import pattern as pat
from mpart import solver as sv


def rows(M):
    return list(M.rows)


class TestParse:
    def test_single_entry(self):
        assert rows(pat.parse_matrix("0")) == ["0"]

    def test_split_pattern(self):
        assert rows(pat.parse_matrix("0*;*1")) == ["0*", "*1"]

    def test_newline_and_whitespace(self):
        assert rows(pat.parse_matrix("0 *\n* 1")) == ["0*", "*1"]

    def test_not_symmetric(self):
        with pytest.raises(errors.MPartError, match=r"entry \(0,1\)='\*' != \(1,0\)='1'"):
            pat.parse_matrix("0*;11")

    def test_not_square(self):
        with pytest.raises(errors.MPartError, match="row '0' has length 1, expected 2"):
            pat.parse_matrix("01;0")

    def test_bad_character(self):
        with pytest.raises(errors.MPartError, match=r"invalid entries \['2'\]"):
            pat.parse_matrix("02;20")


class TestPredicates:
    def test_c_star(self):
        # the C-star pair: a zero-diagonal part, then a one-diagonal part
        assert pat.parse_matrix("0*;*1").star_blocks["01"] == (0, 1)
        # first zero-diagonal part, then first one-diagonal part, in index order
        assert pat.parse_matrix("0*1*;*0*0;1*1*;*0*1").star_blocks["01"] == (0, 3)
        assert pat.parse_matrix("1**;*0*;**1").star_blocks["01"] == (1, 0)
        assert "01" not in pat.parse_matrix("01;11").star_blocks
        assert "01" not in pat.make_m_kt(3, 1).star_blocks  # ell=0, C empty

    def test_star_blocks(self):
        assert pat.parse_matrix("0*;*1").star_blocks == {"0": (0,), "1": (1,), "01": (0, 1)}
        assert pat.parse_matrix("1*;*0").star_blocks == {"1": (0,), "0": (1,), "01": (1, 0)}
        assert pat.parse_matrix("0*1;*0*;1*0").star_blocks == {"0": (0,), "00": (0, 1)}
        assert pat.parse_matrix("*0;00").star_blocks == {"*": (0,), "0": (1,)}
        assert pat.parse_matrix("0*;**").star_blocks == {"0": (0,), "*": (1,), "*0": (1, 0)}
        assert pat.parse_matrix("1**;*1*;**1").star_blocks == {"1": (0,), "11": (0, 1)}
        assert pat.parse_matrix("1*1;*1*;1*1").star_blocks["11"] == (0, 1)
        assert pat.parse_matrix("11*;11*;**1").star_blocks["11"] == (0, 2)
        assert pat.parse_matrix("01;11").star_blocks == {"0": (0,), "1": (1,)}
        M = pat.parse_matrix("0*;*0")
        assert M.star_blocks is M.star_blocks

    def test_kl(self):
        assert pat.parse_matrix("1**;*0*;**1").kl == (1, 2)
        assert pat.make_m_kt(3, 1).kl == (3, 0)
        assert pat.make_kl_matrix(2, 3).kl == (2, 3)

    def test_masks_match_definition(self):
        for m in (1, 2, 3):
            for cells in product("01*", repeat=m * (m + 1) // 2):
                it = iter(cells)
                g = [[None] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        g[i][j] = g[j][i] = next(it)
                M = pat.make_matrix(["".join(r) for r in g])
                adj_ok, nonadj_ok = M.masks
                for p in range(m):
                    for q in range(m):
                        assert bool(adj_ok[p] >> q & 1) == (g[p][q] != "0")
                        assert bool(nonadj_ok[p] >> q & 1) == (g[p][q] != "1")
                    assert adj_ok[p] >> m == nonadj_ok[p] >> m == 0

    def test_interchangeable_matches_definition(self):
        count = 0
        for m in (1, 2, 3):
            for cells in product("01*", repeat=m * (m + 1) // 2):
                it = iter(cells)
                g = [[None] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        g[i][j] = g[j][i] = next(it)
                M = pat.make_matrix(["".join(r) for r in g])
                count += 1
                twins = M.interchangeable
                assert len(twins) == m
                for p in range(m):
                    for q in range(m):
                        same = g[p][p] == g[q][q] and all(
                            g[p][r] == g[q][r] for r in range(m) if r not in (p, q))
                        assert bool(twins[p] >> q & 1) == (q < p and same)
        assert count == 759

    def test_interchangeable_groups_of_the_families(self):
        for k in range(2, 8):
            for t in range(1, k):
                first = set(range(k - 1 - t))
                second = set(range(k - 1 - t, k - 1))
                if t == 1:
                    # part k-1 and the one part it is adjacent to, k-2, both
                    # see every other part through a star: they swap too
                    want = [first, second | {k - 1}]
                else:
                    want = [first, second, {k - 1}]
                assert groups(pat.make_m_kt(k, t)) == [g for g in want if g]
        for k in range(5):
            for ell in range(5 - k):
                if k + ell:
                    want = [set(range(k)), set(range(k, k + ell))]
                    assert groups(pat.make_kl_matrix(k, ell)) == [g for g in want if g]

    def test_derived_once(self):
        M = pat.parse_matrix("0*;*1")
        assert M.masks is M.masks
        assert M.interchangeable is M.interchangeable

    def test_equal_rows_share_one_live_matrix(self):
        M = pat.parse_matrix("0*;*1")
        assert pat.make_matrix(["0*", "*1"]) is M
        assert pat.make_kl_matrix(1, 1) is M
        assert pat.complement_matrix(pat.complement_matrix(M)) is M
        assert pat.make_m_kt(3, 1) is pat.parse_matrix("0**;*01;*10")

    def test_released_matrix_leaves_the_table(self):
        key = ("0*10", "*0*1", "1*0*", "01*0")  # a matrix no other test makes
        M = pat.make_matrix(key)
        assert pat._LIVE[key] is M
        ref = weakref.ref(M)
        del M
        gc.collect()
        assert ref() is None
        assert key not in pat._LIVE


def groups(M):
    """The classes of interchangeable parts, each listed at its lowest part."""
    out = []
    for p, lower in enumerate(M.interchangeable):
        if lower:
            low = (lower & -lower).bit_length() - 1
            next(g for g in out if low in g).add(p)
        else:
            out.append({p})
    return out


def random_symmetric(rng, m, alphabet="01*"):
    g = [[None] * m for _ in range(m)]
    for i in range(m):
        g[i][i] = rng.choice(alphabet)
        for j in range(i + 1, m):
            g[i][j] = g[j][i] = rng.choice(alphabet)
    return pat.make_matrix(["".join(r) for r in g])


class TestComplement:
    def test_split_pattern(self):
        assert rows(pat.complement_matrix(pat.parse_matrix("0*;*1"))) == ["1*", "*0"]

    def test_m31(self):
        assert rows(pat.complement_matrix(pat.make_m_kt(3, 1))) == ["1**", "*10", "*01"]

    def test_involution(self):
        rng = random.Random(0)
        for _ in range(50):
            M = random_symmetric(rng, rng.randint(1, 5))
            assert pat.complement_matrix(pat.complement_matrix(M)) == M


class TestFamilies:
    def test_m31_entries(self):
        assert rows(pat.make_m_kt(3, 1)) == ["0**", "*01", "*10"]

    def test_m53_last_row(self):
        assert pat.make_m_kt(5, 3).rows[4] == "*1110"

    def test_mkt_bad_parameters(self):
        with pytest.raises(errors.MPartError, match="need 1 <= t <= k-1, got k=3, t=3"):
            pat.make_m_kt(3, 3)
        # refused before its k * k cells are allocated
        with pytest.raises(errors.MPartError, match="k=1000000000 is above the 64-part cap"):
            pat.make_m_kt(10**9, 1)
        with pytest.raises(errors.MPartError, match="k=65 is above the 64-part cap"):
            pat.make_m_kt(gr.MAX_VERTICES + 1, 1)
        assert pat.make_m_kt(gr.MAX_VERTICES, 1).m == gr.MAX_VERTICES

    def test_mkt_properties(self):
        for k in range(2, 7):
            for t in range(1, k):
                M = pat.make_m_kt(k, t)
                assert M.diagonal() == "0" * k
                assert sum(r.count("1") for r in M.rows) == 2 * t

    def test_kl_matrices(self):
        assert rows(pat.make_kl_matrix(1, 1)) == ["0*", "*1"]
        assert rows(pat.make_kl_matrix(2, 0)) == ["0*", "*0"]
        assert rows(pat.make_kl_matrix(0, 2)) == ["1*", "*1"]
        with pytest.raises(errors.MPartError, match=r"need k\+ell >= 1, got k=0, ell=0"):
            pat.make_kl_matrix(0, 0)


def test_block_normalization_preserves_solvability():
    # solve is invariant under renaming the parts of M; the permutations come
    # from their own generator, so the cases drawn from rng do not depend on them
    rng = random.Random(42)
    perm_rng = random.Random(43)
    for _ in range(60):
        m = rng.randint(1, 3)
        M = random_symmetric(rng, m)
        if "*" in M.diagonal():
            continue
        perm = perm_rng.sample(range(m), m)  # new part i is old part perm[i]
        renamed = pat.make_matrix(["".join(M.rows[perm[i]][perm[j]] for j in range(m))
                                   for i in range(m)])
        n = rng.randint(0, 6)
        G = gr.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < 0.5])
        w1 = sv.solve(G, M)
        w2 = sv.solve(G, renamed)
        assert (w1 is None) == (w2 is None)
        if w2 is not None:
            relabeled = [perm[p] for p in w2.parts]
            assert sv.validate(G, M, relabeled)
