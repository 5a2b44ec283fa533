"""Symmetric {0,1,*} pattern matrices and their block-form structure.

A pattern matrix defines a partition problem: entry '1' between two part
indices forces completeness between those parts, '0' forces
anticompleteness, '*' imposes nothing.  Entries are kept as the characters
'0', '1', '*'; a matrix is a tuple of row strings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadCharacter, BadParameters, DiagonalStar, NotSquare, NotSymmetric

ZERO = "0"
ONE = "1"
STAR = "*"

_VALID = frozenset("01*")


@dataclass(frozen=True)
class PatternMatrix:
    """Immutable symmetric pattern matrix; rows[i][j] is the (i, j) entry."""

    rows: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> str:
        return self.rows[i][j]

    def diagonal(self) -> str:
        return "".join(self.rows[i][i] for i in range(self.m))

    def to_text(self) -> str:
        return ";".join(self.rows)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class BlockForm:
    """Result of diagonal normalization: zero-diagonal parts first.

    perm maps new part index -> original part index.  A is the k x k
    sub-pattern among zero-diagonal parts, B the ell x ell sub-pattern
    among one-diagonal parts, C the k x ell cross block.
    """

    perm: tuple[int, ...]
    k: int
    ell: int
    a: tuple[str, ...]
    b: tuple[str, ...]
    c: tuple[str, ...]


def make_matrix(rows) -> PatternMatrix:
    """Build a PatternMatrix from row strings, validating shape and symmetry."""
    rows = tuple(str(r) for r in rows)
    m = len(rows)
    if m == 0:
        raise NotSquare("matrix must have at least one row")
    for r in rows:
        if len(r) != m:
            raise NotSquare(f"row {r!r} has length {len(r)}, expected {m}")
        bad = set(r) - _VALID
        if bad:
            raise BadCharacter(f"invalid entries {sorted(bad)} in row {r!r}")
    for i in range(m):
        for j in range(i + 1, m):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(f"entry ({i},{j})={rows[i][j]!r} != ({j},{i})={rows[j][i]!r}")
    return PatternMatrix(rows)


def parse_matrix(text: str) -> PatternMatrix:
    """Parse matrix text: rows separated by ';' or newlines, whitespace ignored."""
    raw = text.replace("\n", ";")
    rows = ["".join(r.split()) for r in raw.split(";")]
    rows = [r for r in rows if r]
    return make_matrix(rows)


def normalize_block_form(M: PatternMatrix) -> tuple[BlockForm, PatternMatrix]:
    """Permute part indices so all zero-diagonal parts come first.

    Uses a stable sort of indices by diagonal value, so the permutation is
    reproducible.  Raises DiagonalStar when the diagonal has a star.
    """
    d = M.diagonal()
    if STAR in d:
        raise DiagonalStar(f"diagonal {d!r} contains a star")
    perm = tuple(sorted(range(M.m), key=lambda i: d[i]))
    permuted = PatternMatrix(tuple("".join(M.rows[i][j] for j in perm) for i in perm))
    k = d.count(ZERO)
    ell = M.m - k
    a = tuple(permuted.rows[i][:k] for i in range(k))
    b = tuple(permuted.rows[i][k:] for i in range(k, M.m))
    c = tuple(permuted.rows[i][k:] for i in range(k))
    return BlockForm(perm, k, ell, a, b, c), permuted


def block_c_has_star(M: PatternMatrix) -> bool:
    """True iff the cross block C contains a star entry."""
    block, _ = normalize_block_form(M)
    return any(STAR in row for row in block.c)


_COMPLEMENT = str.maketrans("01", "10")


def complement_matrix(M: PatternMatrix) -> PatternMatrix:
    """Entrywise swap of 0 and 1; stars are fixed."""
    return PatternMatrix(tuple(r.translate(_COMPLEMENT) for r in M.rows))


def make_m_kt(k: int, t: int) -> PatternMatrix:
    """The k x k all-zero-diagonal matrix with t ones at the end of the last
    row and column and stars everywhere else."""
    if not (1 <= t <= k - 1):
        raise BadParameters(f"need 1 <= t <= k-1, got k={k}, t={t}")
    rows = [[STAR] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = ZERO
    for j in range(k - 1 - t, k - 1):
        rows[k - 1][j] = ONE
        rows[j][k - 1] = ONE
    return PatternMatrix(tuple("".join(r) for r in rows))


def make_kl_matrix(k: int, ell: int) -> PatternMatrix:
    """Diagonal (0^k, 1^ell), all off-diagonal entries star.

    Partitionability by this matrix is exactly membership in the class of
    graphs splitting into k independent sets and ell cliques.
    """
    if k < 0 or ell < 0 or k + ell < 1:
        raise BadParameters(f"need k+ell >= 1, got k={k}, ell={ell}")
    m = k + ell
    rows = [[STAR] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = ZERO if i < k else ONE
    return PatternMatrix(tuple("".join(r) for r in rows))
