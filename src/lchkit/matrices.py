"""Exact dense-matrix helpers shared across the package.

Matrices are lists of rows (lists).  Entries are Python ints (or Fractions
where stated); nothing here ever rounds.  Shapes are not always small:
connected sums reach hundreds of chords.  These dense routines serve
products and ranks over fields; integral invariant factors use the sparse
elimination in `homology`.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A, B, inner: int | None = None) -> list[list[int]]:
    """A @ B with explicit inner dimension for empty-shape safety."""
    if inner is None:
        inner = len(B)
    rows = len(A)
    cols = len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                Oi = out[i]
                for j in range(cols):
                    Oi[j] += a * Bk[j]
    return out


def mat_vec(A, v) -> list:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def is_zero_matrix(M) -> bool:
    return all(all(x == 0 for x in row) for row in M)


def reduce_mod(M, m: int) -> list[list[int]]:
    return [[x % m for x in row] for row in M]


def rank_rationals(M) -> int:
    """Rank over Q by exact Fraction elimination."""
    A = [[Fraction(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if A else 0
    rank = 0
    for col in range(cols):
        pivot = None
        for i in range(rank, rows):
            if A[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = 1 / A[rank][col]
        A[rank] = [x * inv for x in A[rank]]
        for i in range(rows):
            if i != rank and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def rank_mod_p(M, p: int) -> int:
    """Rank over the field Z/p (p prime)."""
    A = [[x % p for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if A else 0
    rank = 0
    for col in range(cols):
        pivot = None
        for i in range(rank, rows):
            if A[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = pow(A[rank][col], -1, p)
        A[rank] = [(x * inv) % p for x in A[rank]]
        for i in range(rows):
            if i != rank and A[i][col]:
                f = A[i][col]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def kernel_mod_p(M, rows: int, cols: int, p: int) -> list[list[int]]:
    """Basis of ker(M) over Z/p for an explicit rows x cols matrix."""
    A = [[M[i][j] % p for j in range(cols)] for i in range(rows)]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for col in range(cols):
        pivot = None
        for i in range(r, rows):
            if A[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = pow(A[r][col], -1, p)
        A[r] = [(x * inv) % p for x in A[r]]
        for i in range(rows):
            if i != r and A[i][col]:
                f = A[i][col]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivot_of_col[col] = r
        r += 1
    basis = []
    free_cols = [c for c in range(cols) if c not in pivot_of_col]
    for fc in free_cols:
        v = [0] * cols
        v[fc] = 1
        for c, pr in pivot_of_col.items():
            v[c] = (-A[pr][fc]) % p
        basis.append(v)
    return basis


class SpanModP:
    """Incremental row-space of vectors over Z/p, for membership tests."""

    def __init__(self, p: int):
        self.p = p
        self.rows: list[list[int]] = []  # reduced echelon rows
        self.pivots: list[int] = []

    def copy(self) -> "SpanModP":
        other = SpanModP(self.p)
        other.rows = [row[:] for row in self.rows]
        other.pivots = self.pivots[:]
        return other

    def _reduce(self, v: list[int]) -> list[int]:
        p = self.p
        v = [x % p for x in v]
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                f = v[piv]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return v

    def contains(self, v: list[int]) -> bool:
        return all(x == 0 for x in self._reduce(v))

    def add(self, v: list[int]) -> bool:
        """Add v to the span; returns True if the rank grew."""
        v = self._reduce(v)
        for piv, x in enumerate(v):
            if x:
                inv = pow(x, -1, self.p)
                v = [(y * inv) % self.p for y in v]
                for i, row in enumerate(self.rows):
                    if row[piv]:
                        f = row[piv]
                        self.rows[i] = [(a - f * b) % self.p for a, b in zip(row, v)]
                self.rows.append(v)
                self.pivots.append(piv)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)
