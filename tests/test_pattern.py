import random

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
        with pytest.raises(errors.NotSymmetric):
            pat.parse_matrix("0*;11")

    def test_not_square(self):
        with pytest.raises(errors.NotSquare):
            pat.parse_matrix("01;0")

    def test_bad_character(self):
        with pytest.raises(errors.BadCharacter):
            pat.parse_matrix("02;20")


class TestBlockForm:
    def test_swap(self):
        block, permuted = pat.normalize_block_form(pat.parse_matrix("1*;*0"))
        assert rows(permuted) == ["0*", "*1"]
        assert block.perm == (1, 0)
        assert (block.k, block.ell) == (1, 1)

    def test_identity(self):
        block, permuted = pat.normalize_block_form(pat.parse_matrix("0*;*1"))
        assert block.perm == (0, 1)
        assert block.a == ("0",)
        assert block.b == ("1",)
        assert block.c == ("*",)
        block, _ = pat.normalize_block_form(pat.parse_matrix("0*1*;*0*0;1*1*;*0*1"))
        assert block.perm == (0, 1, 2, 3)
        assert block.c == ("1*", "*0")

    def test_diagonal_star(self):
        with pytest.raises(errors.DiagonalStar):
            pat.normalize_block_form(pat.parse_matrix("*0;01"))

    def test_stable_permutation(self):
        M = pat.parse_matrix("1**;*0*;**1")
        block, permuted = pat.normalize_block_form(M)
        assert block.perm == (1, 0, 2)
        assert permuted.diagonal() == "011"


class TestPredicates:
    def test_c_star(self):
        assert pat.block_c_has_star(pat.parse_matrix("0*;*1"))
        assert not pat.block_c_has_star(pat.parse_matrix("01;11"))
        assert not pat.block_c_has_star(pat.make_m_kt(3, 1))  # ell=0, C empty


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
        with pytest.raises(errors.BadParameters):
            pat.make_m_kt(3, 3)

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
        with pytest.raises(errors.BadParameters):
            pat.make_kl_matrix(0, 0)


def test_block_normalization_preserves_solvability():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(1, 3)
        M = random_symmetric(rng, m)
        if "*" in M.diagonal():
            continue
        block, permuted = pat.normalize_block_form(M)
        n = rng.randint(0, 6)
        G = gr.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < 0.5])
        w1 = sv.solve(G, M)
        w2 = sv.solve(G, permuted)
        assert (w1 is None) == (w2 is None)
        if w2 is not None:
            relabeled = [block.perm[p] for p in w2.parts]
            assert sv.validate(G, M, relabeled)
