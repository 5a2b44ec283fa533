"""Symmetric {0,1,*} pattern matrices and the structure derived from them.

A pattern matrix defines a partition problem: entry '1' between two part
indices forces completeness between those parts, '0' forces
anticompleteness, '*' imposes nothing.  Entries are kept as the characters
'0', '1', '*'; a matrix is a tuple of row strings.
"""

from __future__ import annotations

import weakref
from functools import cached_property

from .errors import MPartError
from .graph import MAX_VERTICES, Frozen

ZERO = "0"
ONE = "1"
STAR = "*"

_VALID = frozenset("01*")


class PatternMatrix(Frozen):
    """Immutable symmetric pattern matrix; rows[i][j] is the (i, j) entry.

    The structure the solvers, the enumeration and the bounds read (part
    masks, the interchangeable parts, (k, ell), the parts each part pattern
    embeds in) is derived once per instance and cached in its __dict__.
    The constructors below return one live instance per row tuple
    (`_shared`), so its caches are shared too: callers must not mutate
    `star_blocks`, the one cache that is a mutable dict.
    """

    _fields = ("rows",)

    def __init__(self, rows: tuple[str, ...]):
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    def diagonal(self) -> str:
        return "".join(self.rows[i][i] for i in range(self.m))

    @cached_property
    def masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(adj_ok, nonadj_ok): bit q of adj_ok[p] is set iff M[p][q] != 0,
        bit q of nonadj_ok[p] iff M[p][q] != 1, i.e. the parts a neighbour,
        resp. a non-neighbour, of a vertex in part p may take."""
        adj_ok = tuple(sum(1 << q for q, e in enumerate(r) if e != ZERO) for r in self.rows)
        nonadj_ok = tuple(sum(1 << q for q, e in enumerate(r) if e != ONE) for r in self.rows)
        return adj_ok, nonadj_ok

    @cached_property
    def interchangeable(self) -> tuple[int, ...]:
        """Bit q of entry p is set iff q < p and parts p and q are
        interchangeable: the same diagonal and M[p][r] == M[q][r] for every
        other part r.  Swapping such parts is an automorphism of M."""
        rows = self.rows
        # the same diagonal, and rows p and q agree outside columns q and p
        return tuple(
            sum(1 << q for q, rq in enumerate(rows[:p])
                if rp[p] == rq[q]
                and rp[:q] == rq[:q] and rp[q + 1:p] == rq[q + 1:p] and rp[p + 1:] == rq[p + 1:])
            for p, rp in enumerate(rows))

    @cached_property
    def kl(self) -> tuple[int, int]:
        """(k, ell): the numbers of zero-diagonal and one-diagonal parts."""
        d = self.diagonal()
        return d.count(ZERO), d.count(ONE)

    @cached_property
    def star_blocks(self) -> dict[str, tuple[int, ...]]:
        """Each part pattern M embeds, mapped to the first parts, in index
        order, that embed it.  A pattern is the sorted diagonals of one part,
        or of two parts p != q with M[p][q] = *; parts[i] has diagonal
        pattern[i].  Every graph partitionable by the pattern ("*": all
        graphs; "01": split, "00": bipartite, "11": cobipartite) is
        M-partitionable: its parts go to the pattern's parts."""
        d = self.diagonal()
        blocks = {e: (d.index(e),) for e in d}
        for p, row in enumerate(self.rows):
            for q, e in enumerate(row):
                if e == STAR and p != q and d[p] <= d[q]:
                    blocks.setdefault(d[p] + d[q], (p, q))
        return blocks

    def to_text(self) -> str:
        return ";".join(self.rows)


_LIVE: weakref.WeakValueDictionary[tuple[str, ...], PatternMatrix] = weakref.WeakValueDictionary()


def _shared(rows: tuple[str, ...]) -> PatternMatrix:
    """The live PatternMatrix with these rows, made if there is none.  The
    table holds its matrices weakly, so a matrix nothing else holds is
    freed, and its entry with it."""
    M = _LIVE.get(rows)
    if M is None:
        M = _LIVE[rows] = PatternMatrix(rows)
    return M


def make_matrix(rows) -> PatternMatrix:
    """Build a PatternMatrix from row strings, validating shape and symmetry."""
    rows = tuple(str(r) for r in rows)
    m = len(rows)
    if m == 0:
        raise MPartError("matrix must have at least one row")
    for r in rows:
        if len(r) != m:
            raise MPartError(f"row {r!r} has length {len(r)}, expected {m}")
        bad = set(r) - _VALID
        if bad:
            raise MPartError(f"invalid entries {sorted(bad)} in row {r!r}")
    for i in range(m):
        for j in range(i + 1, m):
            if rows[i][j] != rows[j][i]:
                raise MPartError(f"entry ({i},{j})={rows[i][j]!r} != ({j},{i})={rows[j][i]!r}")
    return _shared(rows)


def parse_matrix(text: str) -> PatternMatrix:
    """Parse matrix text: rows separated by ';' or newlines, whitespace ignored."""
    raw = text.replace("\n", ";")
    rows = ["".join(r.split()) for r in raw.split(";")]
    rows = [r for r in rows if r]
    return make_matrix(rows)


_COMPLEMENT = str.maketrans("01", "10")


def complement_matrix(M: PatternMatrix) -> PatternMatrix:
    """Entrywise swap of 0 and 1; stars are fixed."""
    return _shared(tuple(r.translate(_COMPLEMENT) for r in M.rows))


def make_m_kt(k: int, t: int) -> PatternMatrix:
    """The k x k all-zero-diagonal matrix with t ones at the end of the last
    row and column and stars everywhere else."""
    if not (1 <= t <= k - 1):
        raise MPartError(f"need 1 <= t <= k-1, got k={k}, t={t}")
    if k > MAX_VERTICES:
        raise MPartError(f"k={k} is above the {MAX_VERTICES}-part cap")
    rows = [[STAR] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = ZERO
    for j in range(k - 1 - t, k - 1):
        rows[k - 1][j] = ONE
        rows[j][k - 1] = ONE
    return _shared(tuple("".join(r) for r in rows))


def check_kl(k: int, ell: int) -> None:
    """Refuse a (k, ell) that counts no part, or a negative number of them."""
    if k < 0 or ell < 0 or k + ell < 1:
        raise MPartError(f"need k+ell >= 1, got k={k}, ell={ell}")


def make_kl_matrix(k: int, ell: int) -> PatternMatrix:
    """Diagonal (0^k, 1^ell), all off-diagonal entries star.

    Partitionability by this matrix is exactly membership in the class of
    graphs splitting into k independent sets and ell cliques.
    """
    check_kl(k, ell)
    m = k + ell
    rows = [[STAR] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = ZERO if i < k else ONE
    return _shared(tuple("".join(r) for r in rows))
