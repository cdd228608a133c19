import random
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb

import pytest

from lchkit.augment import (
    Augmentation,
    enumerate_augmentations,
    enumerate_augmentations_bounded,
)
from lchkit.dga import (
    DGA,
    connected_sum,
    connected_sum_augmented,
    euler_tb,
    geography_dga,
    lambda0,
    lambda_k,
    unknot,
)
from lchkit.errors import FieldRequired, NotAComplex, RingMismatch
from lchkit.homology import (
    GradedHomology,
    HomologyGroup,
    _divisibility_chain,
    bockstein,
    boundary_factors,
    field_homology,
    from_orders,
    integral_homology,
    invariant_factors,
    uct_check,
)
from lchkit.linearize import ChainComplex, linearized_differential
from lchkit.matrices import (
    _SparseMatrix,
    diagonal_of_rows,
    matmul,
    rank_mod_p,
    rank_of_rows,
    rank_rationals,
    sparse_rows,
)
from lchkit.rings import QQ, ZZ, Zmod
from lchkit.verify import DualityReport, torsion_scan


def eps_n(n):
    return Augmentation(ZZ, {"a1": n, "a2": -1, "a3": 1, "a6": 1})


def eps_n_k(k, n):
    values = {"a1": n, "a2": -1, "a3": 1}
    values.update({f"a{i}": 1 for i in range(10, k + 11)})
    return Augmentation(ZZ, values)


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_inplace(A, m: int, n: int, U, V) -> int:
    """Diagonalize A by unimodular row/column operations; returns the rank.

    Pivot choice is the entry of minimal absolute value in the remaining
    block; between reductions, failures of the pivot to divide the rest of
    the block are repaired by folding the offending row into the pivot row,
    which strictly shrinks the pivot.  All arithmetic is exact.
    """

    def row_add(i, j, q):  # row_i += q * row_j
        Ai, Aj = A[i], A[j]
        for c in range(n):
            Ai[c] += q * Aj[c]
        Ui, Uj = U[i], U[j]
        for c in range(m):
            Ui[c] += q * Uj[c]

    def col_add(j, i, q):  # col_j += q * col_i
        for r in range(m):
            A[r][j] += q * A[r][i]
        for r in range(n):
            V[r][j] += q * V[r][i]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                x = Ai[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            p = A[t][t]
            # Shrink the pivot one non-divisible entry at a time: the
            # remainder replaces the pivot, so |pivot| strictly decreases
            # and the loop terminates.
            shrunk = False
            for i in range(t + 1, m):
                if A[i][t] % p:
                    row_add(i, t, -(A[i][t] // p))
                    row_swap(t, i)
                    shrunk = True
                    break
            if shrunk:
                continue
            for j in range(t + 1, n):
                if A[t][j] % p:
                    col_add(j, t, -(A[t][j] // p))
                    col_swap(t, j)
                    shrunk = True
                    break
            if shrunk:
                continue
            # The pivot divides its whole row and column: eliminate exactly.
            for i in range(t + 1, m):
                if A[i][t]:
                    row_add(i, t, -(A[i][t] // p))
            for j in range(t + 1, n):
                if A[t][j]:
                    col_add(j, t, -(A[t][j] // p))
            # Fold in a row whose entries the pivot fails to divide, so the
            # next round shrinks the pivot; this enforces d1 | d2 | ...
            offender = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    for i in range(t):
        if A[i][i] < 0:
            for c in range(n):
                A[i][c] = -A[i][c]
            for c in range(m):
                U[i][c] = -U[i][c]
    return t


def smith_normal_form(M):
    """Smith normal form: returns (U, D, V) with D = U*M*V.

    U and V are unimodular; D is diagonal with nonnegative entries forming
    a divisibility chain d1 | d2 | ...  M is a list of equal-length rows.
    This dense routine keeps both transforms; it is the tests' oracle for
    the sparse `matrices.diagonal_of_rows`, which computes the diagonal alone.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    D = [list(row) for row in M]
    U = identity(m)
    V = identity(n)
    _snf_inplace(D, m, n, U, V)
    return U, D, V


def determinant(M) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def minors_gcd(M, k):
    """gcd of all k x k minors (0 if all vanish)."""
    m, n = len(M), len(M[0]) if M else 0
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[M[i][j] for j in cols] for i in rows]
            g = _gcd(g, determinant(sub))
            if g == 1:
                return 1
    return abs(g)


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def check_snf(M):
    m, n = len(M), len(M[0]) if M else 0
    U, D, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == D
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(min(m, n)):
        for j in range(n):
            if j != i:
                assert D[i][j] == 0, "off-diagonal entry"
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(x >= 0 for x in diag)
    return diag


def test_snf_examples():
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]
    U, D, V = smith_normal_form([[0, 0], [0, 0]])
    assert D == [[0, 0], [0, 0]]
    assert U == identity(2) and V == identity(2)
    for n in (5, -5, 0, 7):
        assert check_snf([[n]]) == [abs(n)]


def test_snf_empty_shapes():
    U, D, V = smith_normal_form([])
    assert U == [] and D == [] and V == []
    U, D, V = smith_normal_form([[], []])
    assert len(U) == 2 and D == [[], []] and V == []


def _geography_shaped(rng, linked: bool):
    """A dense integer matrix shaped like a boundary of a connected sum.

    Square-ish blocks down the diagonal, one per summand, about half full
    and mostly +-1.  If `linked`, each pair of neighbouring blocks also
    shares one column, with an entry in a row of each, as the c chords
    link neighbouring summands.  Elimination inside a block empties other
    columns of it, and dropping a block's rows leaves its link column with
    one entry, so columns reach one entry part-way through elimination.
    """
    values = (1, -1) * 6 + (2, -2, 3, 4, -6, 9)
    sizes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(2, 6))]
    links = len(sizes) - 1 if linked else 0
    M = [[0] * (sum(c for _, c in sizes) + links) for _ in range(sum(r for r, _ in sizes))]
    top = left = 0
    for k, (r, c) in enumerate(sizes):
        for i in range(top, top + r):
            for j in range(left, left + c):
                if rng.random() < 0.5:
                    M[i][j] = rng.choice(values)
        if k < links:
            column = len(M[0]) - links + k
            M[rng.randrange(top, top + r)][column] = rng.choice((1, -1))
            M[top + r + rng.randrange(sizes[k + 1][0])][column] = rng.choice(values)
        top, left = top + r, left + c
    return M


def _check_pivot_rule(A, r, c):
    """(r, c) is a pivot by the documented rule: least |value| (over Z),
    then least Markowitz cost (r-1)(c-1), over all entries."""

    def key(i, j):
        cost = (len(A.rows[i]) - 1) * (len(A.cols[j]) - 1)
        return (1 if A.modulus else abs(A.rows[i][j]), cost)

    assert key(r, c) == min(key(i, j) for i, row in A.rows.items() for j in row)


def _emptied_columns(M, modulus: int = 0) -> int:
    """Columns that reach exactly one entry during rank elimination, without
    having one at the start.  Every pivot is checked against the rule.
    """
    A = _SparseMatrix(sparse_rows(M), modulus)
    start = {j for j, rows in A.cols.items() if len(rows) == 1}
    emptied = set()
    while A.rows:
        r, c = A.pivot()
        _check_pivot_rule(A, r, c)
        A.clear_column(r, c)
        A.drop_row(r)
        emptied.update(j for j, rows in A.cols.items() if len(rows) == 1 and j not in start)
    return len(emptied)


def _with_lone_entries(rng, M, lone):
    """M plus each of `lone` as a 1x1 diagonal block, rows and columns shuffled."""
    n, k = len(M[0]), len(lone)
    rows = [row + [0] * k for row in M]
    rows += [[0] * n + [x if j == i else 0 for j in range(k)] for i, x in enumerate(lone)]
    row_order = rng.sample(range(len(rows)), len(rows))
    col_order = rng.sample(range(n + k), n + k)
    return [[rows[i][j] for j in col_order] for i in row_order]


def test_snf_random_matrices_with_oracle(monkeypatch):
    rng = random.Random(1234)
    for _ in range(300):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag = check_snf(M)
        r = rank_rationals(M)
        assert sum(1 for x in diag if x) == r
        dk_prev = 1
        for k in range(1, r + 1):
            dk = minors_gcd(M, k)
            assert diag[k - 1] == dk // dk_prev
            dk_prev = dk
    # Boundary-shaped cases: up to 40 x 40, about 5% dense, mostly +-1.
    # The sparse invariant_factors must match the dense Smith diagonal.
    units = (1, -1) * 4 + (2, -2, 3, -5, 6)
    for _ in range(200):
        m = rng.randint(1, 40)
        n = rng.randint(1, 40)
        M = [[rng.choice(units) if rng.random() < 0.05 else 0 for _ in range(n)]
             for _ in range(m)]
        _, D, _ = smith_normal_form(M)
        diag = [D[i][i] for i in range(min(m, n)) if D[i][i]]
        assert invariant_factors(sparse_rows(M)) == diag
    # Block-diagonal and chain-linked cases, shaped like geography boundaries,
    # as they are and with lone non-unit entries (alone in their row and
    # column, so they split off before any pivot) shuffled in.
    emptied = 0
    lone_rng = random.Random(2001)
    for k in range(160):
        M = _geography_shaped(rng, linked=k % 2 == 1)
        lone = lone_rng.choices((6, 10, 4, -15), k=lone_rng.randint(1, 5))
        for A in (M, _with_lone_entries(lone_rng, M, lone)):
            _, D, _ = smith_normal_form(A)
            diag = [D[i][i] for i in range(min(len(A), len(A[0]))) if D[i][i]]
            assert invariant_factors(sparse_rows(A)) == diag, A
        emptied += _emptied_columns(M)
    assert emptied > 100
    # Dense square cases, where pivots rarely divide their rows: every pivot
    # that `invariant_factors` takes follows the rule, and some pivot rows
    # keep nonzero remainders after their reduction.
    pivot, reduce_row = _SparseMatrix.pivot, _SparseMatrix.reduce_row
    kept = []

    def checked_pivot(self):
        r, c = pivot(self)
        _check_pivot_rule(self, r, c)
        return r, c

    def counted_reduce_row(self, r, c):
        reduce_row(self, r, c)
        kept.append(len(self.rows[r]) > 1)

    monkeypatch.setattr(_SparseMatrix, "pivot", checked_pivot)
    monkeypatch.setattr(_SparseMatrix, "reduce_row", counted_reduce_row)
    dense_rng = random.Random(4321)
    for _ in range(60):
        n = dense_rng.randint(8, 14)
        M = [[dense_rng.randint(-9, 9) if dense_rng.random() < 0.3 else 0 for _ in range(n)]
             for _ in range(n)]
        _, D, _ = smith_normal_form(M)
        assert invariant_factors(sparse_rows(M)) == [D[i][i] for i in range(n) if D[i][i]], M
    assert any(kept)


def test_lone_torsion_entries_take_no_pivot(monkeypatch):
    # The degree-3 boundary of a sum of 16 copies of lambda_2 at eps_6 is
    # one entry 6 per copy, each alone in its row and column: no pivot.
    C = linearized_differential(*geography_dga(2, 0, [6] * 16))
    top = C.rows_of(3)
    assert sorted(abs(x) for row in top.values() for x in row.values()) == [6] * 16
    pivoted = []
    load, pivot = _SparseMatrix.__init__, _SparseMatrix.pivot

    def recording_load(self, rows, modulus=0):
        load(self, rows, modulus)
        self.source = rows

    def counting_pivot(self):
        pivoted.append(self.source)
        return pivot(self)

    monkeypatch.setattr(_SparseMatrix, "__init__", recording_load)
    monkeypatch.setattr(_SparseMatrix, "pivot", counting_pivot)
    H = integral_homology(C)
    assert H.group(2) == from_orders([6] * 16)
    assert pivoted  # the degree-1 boundary still pivots
    assert sum(rows is top for rows in pivoted) == 0


@pytest.mark.parametrize(
    "grading, orders, pivots",
    [(2, [6] * 64, 319), (-1, [4, 6, 9, 10, 12] * 20, 399), (3, [35] * 64, 383)],
    ids=["lambda2-x64", "lambda0-x100", "lambda3-x64"],
)
def test_kernel_work_on_geography_sums_is_pinned(monkeypatch, grading, orders, pivots):
    """Integral homology of three sums takes a fixed number of pivots, and the
    Smith diagonal never reduces a row mod a unit pivot: such a row is
    dropped at once, with diagonal entry 1."""
    C = linearized_differential(*geography_dga(grading, 0, orders))
    pivot, reduce_row = _SparseMatrix.pivot, _SparseMatrix.reduce_row
    pivoted = []
    reduced_by = []

    def counting_pivot(self):
        pivoted.append(1)
        return pivot(self)

    def recording_reduce_row(self, r, c):
        reduced_by.append(self.rows[r][c])
        reduce_row(self, r, c)

    monkeypatch.setattr(_SparseMatrix, "pivot", counting_pivot)
    monkeypatch.setattr(_SparseMatrix, "reduce_row", recording_reduce_row)
    H = integral_homology(C)
    assert H.group(grading) == from_orders(orders)
    assert len(pivoted) == pivots
    assert not any(p in (1, -1) for p in reduced_by)


def fraction_rank(M) -> int:
    """Rank over Q by dense Gauss-Jordan elimination on Fractions (reference)."""
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


def test_rank_rationals_matches_fraction_elimination():
    assert rank_rationals([]) == 0
    assert rank_rationals([[], []]) == 0
    assert rank_rationals([[0, 0], [0, 0]]) == 0
    assert rank_rationals([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    rng = random.Random(4321)

    def entry():
        if rng.random() < 0.3:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    # Non-integral entries, with some zero rows and columns, and products
    # of thin factors so that the rank is often below min(m, n).
    for _ in range(600):
        m = rng.randint(0, 9)
        n = rng.randint(0, 9)
        if rng.random() < 0.5:
            k = rng.randint(0, 4)
            B = [[entry() for _ in range(k)] for _ in range(m)]
            C = [[entry() for _ in range(n)] for _ in range(k)]
            M = matmul(B, C) if k else [[0] * n for _ in range(m)]
        else:
            M = [[entry() for _ in range(n)] for _ in range(m)]
        for i in rng.sample(range(m), rng.randint(0, m // 3)):
            M[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(0, n // 3)):
            for row in M:
                row[j] = 0
        assert rank_rationals(M) == fraction_rank(M), M
    # Boundary-shaped integer matrices: up to 60 x 60, about 5% dense,
    # mostly +-1 with some entries of size 2..60.
    for _ in range(80):
        m = rng.randint(1, 60)
        n = rng.randint(1, 60)
        M = [
            [
                (rng.choice((1, -1)) if rng.random() < 0.8 else rng.randint(2, 60) * rng.choice((1, -1)))
                if rng.random() < 0.05
                else 0
                for _ in range(n)
            ]
            for _ in range(m)
        ]
        assert rank_rationals(M) == fraction_rank(M)


def dense_rank_mod_p(M, p: int) -> int:
    """Rank over Z/p by dense Gauss-Jordan elimination (reference)."""
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


RANK_PRIMES = (2, 3, 5, 7, 2**61 - 1)


def _huge_lift(rng, x: int, p: int) -> int:
    """x plus a multiple of p far larger than p, or x itself."""
    return x + rng.choice((0, 1, -1, rng.randint(-2**90, 2**90))) * p


def test_rank_mod_p_matches_dense_elimination():
    for p in RANK_PRIMES:
        assert rank_mod_p([], p) == 0
        assert rank_mod_p([[], []], p) == 0
        assert rank_mod_p([[0, 0], [0, 0]], p) == 0
        assert rank_mod_p([[p, 2 * p], [-p, 5 * p]], p) == 0
        assert rank_mod_p([[1, 2], [2, 4 + p]], p) == 1
    rng = random.Random(6061)

    def entry(p):
        if rng.random() < 0.3:
            return 0
        if rng.random() < 0.3:
            return rng.randint(-2**100, 2**100)
        return _huge_lift(rng, rng.randint(-9, 9), p)

    # Empty shapes, zero rows and columns, and products of thin factors so
    # that the rank is often below min(m, n); entries far larger than p.
    for p in RANK_PRIMES:
        for _ in range(150):
            m = rng.randint(0, 9)
            n = rng.randint(0, 9)
            if rng.random() < 0.5:
                k = rng.randint(0, 4)
                B = [[entry(p) for _ in range(k)] for _ in range(m)]
                C = [[entry(p) for _ in range(n)] for _ in range(k)]
                M = matmul(B, C) if k else [[0] * n for _ in range(m)]
            else:
                M = [[entry(p) for _ in range(n)] for _ in range(m)]
            for i in rng.sample(range(m), rng.randint(0, m // 3)):
                M[i] = [0] * n
            for j in rng.sample(range(n), rng.randint(0, n // 3)):
                for row in M:
                    row[j] = 0
            assert rank_mod_p(M, p) == dense_rank_mod_p(M, p), (p, M)
    # Boundary-shaped matrices: up to 60 x 60, about 5% dense, mostly +-1
    # with some entries of size 2..60, each lifted by a large multiple of p.
    for p in RANK_PRIMES:
        for _ in range(25):
            m = rng.randint(1, 60)
            n = rng.randint(1, 60)
            M = [
                [
                    _huge_lift(rng, rng.choice((1, -1)) if rng.random() < 0.8
                               else rng.randint(2, 60) * rng.choice((1, -1)), p)
                    if rng.random() < 0.05
                    else 0
                    for _ in range(n)
                ]
                for _ in range(m)
            ]
            assert rank_mod_p(M, p) == dense_rank_mod_p(M, p)
    # Block-diagonal and chain-linked cases, shaped like geography boundaries,
    # over the primes that divide some of their entries.
    for k in range(120):
        M = _geography_shaped(rng, linked=k % 2 == 1)
        for p in (2, 3, 5, 7):
            assert rank_mod_p(M, p) == dense_rank_mod_p(M, p), (p, M)
        _emptied_columns(M, rng.choice((2, 3, 5, 7)))


def test_empty_and_one_row_boundaries_skip_the_kernel(monkeypatch):
    """No rows or one row: factors and ranks agree with the dense references.

    The kernel is made to fail on load, so the answers come from the short
    cuts alone.
    """

    def no_load(*args, **kwargs):
        raise AssertionError("kernel loaded")

    monkeypatch.setattr(_SparseMatrix, "__init__", no_load)
    assert invariant_factors({}) == []
    assert rank_of_rows({}) == 0
    for p in RANK_PRIMES:
        assert rank_of_rows({}, p) == 0

    rng = random.Random(1729)

    def one_row(kind, p):
        n = rng.randint(1, 8)
        if kind == "fractions":
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
        scale = {"mixed": 1, "common gcd": rng.randint(2, 12), "zero mod p": p}[kind]
        return [scale * _huge_lift(rng, rng.randint(-9, 9), p) for _ in range(n)]

    rows = [[-4, 0, 6, -10], [0, -7, 0], [3, -6, 9], [0, 0], [Fraction(-1, 2), 0, 3]]
    for _ in range(300):
        kind = rng.choice(("mixed", "common gcd", "zero mod p", "fractions"))
        rows.append(one_row(kind, rng.choice(RANK_PRIMES)))
    seen = {"negative": 0, "gcd > 1": 0, "zero mod p": 0, "fractions": 0}
    for row in rows:
        M = [row]
        assert rank_of_rows(sparse_rows(M)) == fraction_rank(M), row
        if any(isinstance(x, Fraction) for x in row):
            seen["fractions"] += 1
            continue
        D = smith_normal_form(M)[1]
        assert invariant_factors(sparse_rows(M)) == ([D[0][0]] if D[0][0] else []), row
        seen["negative"] += any(x < 0 for x in row)
        seen["gcd > 1"] += D[0][0] > 1
        for p in RANK_PRIMES:
            assert rank_of_rows(sparse_rows(M), p) == dense_rank_mod_p(M, p), (row, p)
            seen["zero mod p"] += any(row) and not any(x % p for x in row)
    assert min(seen.values()) > 20, seen


def comprehension_load(rows, modulus):
    """The kernel's load as one dict comprehension per row and a second walk
    over its keys (reference): kept rows, column index and single columns."""
    kept, cols = {}, {}
    for i in sorted(rows):
        if modulus:
            entries = {j: y for j, x in rows[i].items() if (y := x % modulus)}
        else:
            entries = {j: x for j, x in rows[i].items() if x}
        if entries:
            kept[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    return kept, cols, [j for j, rs in cols.items() if len(rs) == 1]


def test_load_matches_the_comprehension_load():
    """`_SparseMatrix` keeps the reference's rows, columns and worklist in
    the same order, entry by entry: every pivot and Euclid step rests on
    that order."""

    def check(rows, modulus):
        A = _SparseMatrix(rows, modulus)
        kept, cols, singles = comprehension_load(rows, modulus)
        assert [(i, list(row.items())) for i, row in A.rows.items()] == [
            (i, list(row.items())) for i, row in kept.items()
        ], (rows, modulus)
        assert list(A.cols.items()) == list(cols.items()), (rows, modulus)
        assert A.singles == singles, (rows, modulus)

    loads = 0
    dga = lambda0()
    for aug in enumerate_augmentations(dga, Zmod(7)):
        check(linearized_differential(dga, aug).rows_of(1), 7)
        loads += 1
    dga = connected_sum(lambda0(), lambda_k(1))
    for aug in enumerate_augmentations_bounded(dga, 1):
        check(linearized_differential(dga, aug).rows_of(1), 0)
        loads += 1
    assert loads > 1000

    rng = random.Random(2718)
    moduli = (0, 2, 3, 5, 7)

    def entry():
        kind = rng.random()
        if kind < 0.15:
            return 0
        if kind < 0.3:
            return rng.choice((2, 3, 5, 7, 210)) * rng.randint(-3, 3)
        if kind < 0.45:
            return rng.randint(7, 10**6)
        return rng.randint(-9, 9)

    for _ in range(300):
        keys = rng.sample(range(40), rng.randint(1, 12))  # unsorted row keys
        rows = {
            i: {j: entry() for j in rng.sample(range(30), rng.randint(1, 6))}
            for i in keys
        }
        for m in moduli:
            check(rows, m)


def gcd_of_row(row) -> int:
    """gcd of the entries of one row by Euclid (reference)."""
    g = 0
    for x in row:
        g = _gcd(g, x)
    return g


def test_trivial_boundaries_match_independent_oracles():
    """Zero- and one-row inputs, and Q rows of plain ints, against dense
    Gauss-Jordan elimination and the dense Smith form written here."""
    assert rank_of_rows({}) == 0
    assert diagonal_of_rows({}) == []
    for p in RANK_PRIMES:
        assert rank_of_rows({}, p) == 0

    one_rows = [
        {4: 0},
        {0: 0, 3: 0},
        {2: -4, 0: 0, 5: 6},  # an explicit 0, negatives
        {1: -7},
        {7: 14, 1: -21, 3: 35},  # all = 0 mod 7
        {0: 6, 1: 10, 2: 15},
        {3: 2**70 * 3, 9: -(2**70 * 5)},
        {0: Fraction(-1, 2), 1: 0, 2: 3},
    ]
    for row in one_rows:
        width = max(row) + 1
        M = [[row.get(j, 0) for j in range(width)]]
        assert rank_of_rows({5: row}) == fraction_rank(M), row
        if any(isinstance(x, Fraction) for x in row.values()):
            continue
        D = smith_normal_form(M)[1]
        assert diagonal_of_rows({5: row}) == ([D[0][0]] if D[0][0] else []), row
        assert diagonal_of_rows({5: row}) == ([gcd_of_row(M[0])] if any(M[0]) else []), row
        for p in RANK_PRIMES:
            assert rank_of_rows({5: row}, p) == dense_rank_mod_p(M, p), (row, p)

    # Several rows over Q: all-int rows load as they are, the others are
    # scaled by their denominators first; the rank is the same either way.
    rng = random.Random(3141)

    def q_entry(fractions):
        if rng.random() < 0.3:
            return 0
        if fractions and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(2, 12))
        return rng.randint(-9, 9)

    for _ in range(200):
        m = rng.randint(2, 7)
        n = rng.randint(1, 7)
        M = [[q_entry(rng.random() < 0.5) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:  # a dependent row, mixing both kinds
            M.append([Fraction(x, 3) + y for x, y in zip(M[0], M[1])])
        rows = {i: {j: x for j, x in enumerate(row)} for i, row in enumerate(M)}
        assert rank_of_rows(rows) == fraction_rank(M), M
        assert rank_of_rows(sparse_rows(M)) == fraction_rank(M), M
        assert all(rows[i] == dict(enumerate(row)) for i, row in enumerate(M))

    # The divisibility chain against the Smith form of the diagonal matrix.
    assert _divisibility_chain([]) == []
    assert _divisibility_chain([1]) == [1]
    for n in (2, 12, 2**61 - 1):
        assert _divisibility_chain([n]) == [n]
    diagonal = [1, 1, 4, 6, 9, 10, 12, 35, 1, 2]
    rng.shuffle(diagonal)
    n = len(diagonal)
    D = smith_normal_form([[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)])[1]
    assert _divisibility_chain(diagonal) == [D[i][i] for i in range(n)]


def test_sparse_kernel_mod_p_keeps_entries_reduced():
    # Under a modulus every row step is one exact step with the pivot's
    # inverse: clear_column hands back the pivot unchanged, leaves it alone
    # in its column, and every stored entry stays in [1, p), whatever the
    # size of the integer lift.
    rng = random.Random(1789)
    for p in RANK_PRIMES:
        for _ in range(30):
            m = rng.randint(1, 25)
            n = rng.randint(1, 25)
            M = [[_huge_lift(rng, rng.randint(-9, 9), p) if rng.random() < 0.2 else 0
                  for _ in range(n)] for _ in range(m)]
            A = _SparseMatrix(sparse_rows(M), p)
            rank = 0
            while A.rows:
                assert all(0 < x < p for row in A.rows.values() for x in row.values())
                r, c = A.pivot()
                pivot = A.rows[r][c]
                assert A.clear_column(r, c) == pivot
                assert A.cols[c] == {r}
                A.drop_row(r)
                rank += 1
            assert rank == dense_rank_mod_p(M, p)


@pytest.mark.parametrize("summands, chords", [(64, 1023), (128, 2047)])
def test_field_homology_of_large_sums_matches_uct(summands, chords):
    # Geography sums of 1023 and 2047 chords, with boundaries up to 895 x 640
    # at the larger size: field homology over Z/2 and Z/3 must agree with
    # integral homology through the universal coefficient theorem.
    dga, aug = geography_dga(2, 0, [2, 3] * (summands // 2))
    assert len(dga.chords) == chords
    C = linearized_differential(dga, aug)
    H = integral_homology(C)
    assert H.group(2) == from_orders([2, 3] * (summands // 2))
    for p in (2, 3):
        dims = field_homology(C, Zmod(p))
        assert dims[2] == summands // 2
        assert uct_check(H, p, dims)


def test_invariant_factors():
    assert invariant_factors(sparse_rows([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(sparse_rows([[4, 0], [0, 6]])) == [2, 12]
    assert invariant_factors(sparse_rows([[0]])) == []


def test_rebound_invariant_factors_sees_every_integral_elimination(monkeypatch):
    # A profiler wraps `invariant_factors` by rebinding every lchkit module
    # attribute that holds it (``from .x import f`` copies the binding).
    # The wrapper must then see one call per nonempty boundary that the
    # integral readers eliminate, and none for an empty one.
    calls = []

    def counted(rows):
        calls.append(rows)
        return invariant_factors(rows)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "lchkit" or name.startswith("lchkit.")):
            for attr, value in list(vars(module).items()):
                if value is invariant_factors:
                    monkeypatch.setattr(module, attr, counted)

    def nonempty(C):
        return [rows for rows in C.rows.values() if rows]

    dga = lambda0()
    bounded = enumerate_augmentations_bounded(dga, 1)
    complexes = [linearized_differential(dga, aug) for aug in bounded]
    assert {len(nonempty(C)) for C in complexes} == {1, 2}
    assert all(len(nonempty(C)) < len(C.rows) for C in complexes)
    for C in complexes[:8]:
        for reader in (boundary_factors, integral_homology):
            calls.clear()
            reader(C)
            assert calls == nonempty(C)
    calls.clear()
    torsion_scan(dga, [2, 3], bound=1)
    assert len(calls) == sum(len(nonempty(C)) for C in complexes) > len(bounded)


# ----------------------------------------------------------------------
# groups
# ----------------------------------------------------------------------


def test_from_orders_canonicalizes():
    assert from_orders([2, 3]) == HomologyGroup(0, (6,))
    assert from_orders([4, 6]) == HomologyGroup(0, (2, 12))
    assert from_orders([0, 0, 1, 1]) == HomologyGroup(2, ())
    assert from_orders([2, 4, 2]) == HomologyGroup(0, (2, 2, 4))
    assert from_orders([-3, 1, 0]) == HomologyGroup(1, (3,))


def _prime_power_parts(n):
    parts, p = [], 2
    while n > 1:
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            parts.append(q)
        p += 1
    return parts


def test_from_orders_matches_primary_parts():
    """The canonical group has the same free rank and prime-power parts as
    the direct sum of the given cyclic groups."""
    rng = random.Random(5)
    for _ in range(500):
        orders = [rng.choice([0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 30, 49, 360])
                  for _ in range(rng.randrange(8))]
        G = from_orders(orders)
        assert G.free_rank == orders.count(0)
        parts = [q for n in orders if n for q in _prime_power_parts(n)]
        got = [q for d in G.torsion for q in _prime_power_parts(d)]
        assert sorted(got, reverse=True) == sorted(parts, reverse=True)


def test_group_direct_sum_and_str():
    g = HomologyGroup(2, (6,))
    assert str(g) == "Z^2 + Z/6"
    assert str(HomologyGroup(0, ())) == "0"
    assert g.direct_sum(HomologyGroup(0, (4,))) == from_orders([0, 0, 6, 4])


def test_bad_invariant_factors_rejected():
    with pytest.raises(ValueError):
        HomologyGroup(0, (3, 4))
    with pytest.raises(ValueError):
        HomologyGroup(0, (1, 2))
    with pytest.raises(ValueError) as err:
        HomologyGroup(0, (1,))
    assert str(err.value) == "invariant factors must be >= 2: (1,)"
    with pytest.raises(ValueError):
        HomologyGroup(-1)
    with pytest.raises(ValueError):
        GradedHomology.from_json_obj([{"degree": 0, "free_rank": -2, "torsion": []}])


# ----------------------------------------------------------------------
# integral homology
# ----------------------------------------------------------------------


def test_lambda0_torsion_table():
    d = lambda0()
    for n in (2, 3, 4, 6, 12):
        H = integral_homology(linearized_differential(d, eps_n(n)))
        assert H.groups == {
            1: HomologyGroup(1, ()),
            0: HomologyGroup(2, (n,)),
            -1: HomologyGroup(0, (n,)),
        }




def test_lambda1_table():
    d = lambda_k(1)
    for n in (2, 5):
        H = integral_homology(linearized_differential(d, eps_n_k(1, n)))
        assert H.groups == {
            1: HomologyGroup(1, (n,)),
            0: HomologyGroup(2, ()),
            -2: HomologyGroup(0, (n,)),
        }


def test_lambda_k_table():
    for k in (2, 3):
        d = lambda_k(k)
        for n in (3, 4):
            H = integral_homology(linearized_differential(d, eps_n_k(k, n)))
            assert H.groups == {
                1: HomologyGroup(1, ()),
                0: HomologyGroup(2, ()),
                k: HomologyGroup(0, (n,)),
                -k - 1: HomologyGroup(0, (n,)),
            }


@pytest.fixture(scope="module")
def scanned_complexes():
    """The complexes of every integral augmentation with |values| <= 2 of
    lambda0 and lambda_1..3, the points `lch scan --bound 2` visits."""
    return [
        linearized_differential(dga, aug)
        for dga in (lambda0(), lambda_k(1), lambda_k(2), lambda_k(3))
        for aug in enumerate_augmentations_bounded(dga, 2)
    ]


def test_factors_match_determinantal_divisors_on_scanned_boundaries(scanned_complexes):
    # The k-th invariant factor is d_k / d_{k-1}, where d_k is the gcd of
    # all k x k minors (Newman, Integral Matrices, 1972): a route to the
    # Smith diagonal that shares nothing with the elimination kernel.  Zero
    # rows and columns are dropped first, since they only multiply the
    # number of vanishing minors.
    assert len(scanned_complexes) == 248
    boundaries = {}
    for C in scanned_complexes:
        for rows in C.rows.values():
            if len(rows) >= 2:
                key = tuple((i, tuple(sorted(row.items()))) for i, row in sorted(rows.items()))
                boundaries[key] = rows
    checked = with_torsion = 0
    for rows in boundaries.values():
        cols = sorted({j for row in rows.values() for j in row})
        M = [[row.get(j, 0) for j in cols] for _, row in sorted(rows.items())]
        size = min(len(M), len(cols))
        if sum(comb(len(M), k) * comb(len(cols), k) for k in range(1, size + 1)) > 2000:
            continue
        quotients, prev = [], 1
        for k in range(1, size + 1):
            dk = minors_gcd(M, k)
            if not dk:
                break
            quotients.append(dk // prev)
            prev = dk
        factors = invariant_factors(rows)
        assert factors == quotients, M
        checked += 1
        with_torsion += factors[-1] > 1
    assert (len(boundaries), checked, with_torsion) == (242, 242, 40)


def _integral_duality_failures(H):
    """Where H breaks Sabloff duality over Z: rank H_i = rank H_{-i} for
    i != +-1, rank H_1 = rank H_{-1} + 1, and the torsion of H_k equals the
    torsion of H_{-k-1}."""
    failures = [
        ("rank", i)
        for i in sorted({0, 1, *(abs(d) for d in H.degrees())})
        if H.group(i).free_rank - H.group(-i).free_rank != (1 if i == 1 else 0)
    ]
    failures += [
        ("torsion", k) for k in H.degrees() if H.group(k).torsion != H.group(-k - 1).torsion
    ]
    return failures


def _seeded_geography_sums():
    """The complexes of 60 seeded `geography_dga` sums: free rank 0..2 and
    up to 4 torsion orders in 2..12, in a grading among -4..-1 and 2..4."""
    rng = random.Random(1806)
    sums = []
    for _ in range(60):
        free = rng.randint(0, 2)
        orders = [rng.randint(2, 12) for _ in range(rng.randint(0 if free else 1, 4))]
        grading = rng.choice((-4, -3, -2, -1, 2, 3, 4))
        sums.append(linearized_differential(*geography_dga(grading, free, orders)))
    return sums


def test_integral_sabloff_duality(scanned_complexes):
    # Sabloff, "Duality for Legendrian contact homology", Geom. Topol. 10
    # (2006).  Field duality plus UCT only fixes how many p-primary summands
    # each degree has; over Z the orders themselves must pair up, so this
    # checks where `integral_homology` puts each torsion order.  The
    # report of `lch duality --field Z` reads the same rules, and must agree.
    torsion = 0
    for C in scanned_complexes + _seeded_geography_sums():
        H = integral_homology(C)
        assert _integral_duality_failures(H) == [], H.format_report()
        assert DualityReport("Z", H).duality_ok
        torsion += any(g.torsion for g in H.groups.values())
    assert torsion > 60
    # Torsion moved from H_-1 to H_-2: the ranks still pair, the orders do not.
    moved = GradedHomology({1: HomologyGroup(1), 0: HomologyGroup(2, (5,)), -2: HomologyGroup(0, (5,))})
    assert _integral_duality_failures(moved) == [("torsion", -2), ("torsion", 0), ("torsion", 1)]
    report = DualityReport("Z", moved)
    assert not report.duality_ok
    assert report.format_report().splitlines()[-3:] == [
        "torsion_0 = [5]   torsion_-1 = []  <-- mismatch",
        "torsion_1 = []   torsion_-2 = [5]  <-- mismatch",
        "duality FAILS",
    ]


def _apply(rows, vector):
    """rows * vector for sparse rows {i: {j: x}} and a vector {j: x}."""
    out = {}
    for i, row in rows.items():
        value = sum(x * vector.get(j, 0) for j, x in row.items())
        if value:
            out[i] = value
    return out


def _certified_torsion(C, d):
    """The orders of H_d's torsion, each shown by a cycle and a cocycle.

    D = U M V is the dense Smith form of M, the boundary into degree d.
    Each D_ii = f > 1 gives w = V e_i, the cycle z = M w / f, and
    phi = (row i of U) mod f.  phi kills every boundary mod f, so it is a
    map from H_d to Z/f; phi(z) = 1 there, so [z] has order f, and
    phi_i(z_j) = delta_ij mod f_i for all pairs makes the classes
    independent.  Only the Smith form is dense: every product is taken on
    `C.rows_of`, and nothing here runs the sparse kernel.
    """
    upper = C.rows_of(d + 1)
    if not upper:
        return ()
    U, D, V = smith_normal_form(C.matrix(d + 1))
    certificates = []
    for i in range(min(len(D), len(V))):
        f = D[i][i]
        if f < 2:
            continue
        boundary = _apply(upper, {j: row[i] for j, row in enumerate(V)})
        assert all(x % f == 0 for x in boundary.values())
        z = {k: x // f for k, x in boundary.items()}
        assert _apply(C.rows_of(d), z) == {}
        phi = {k: x % f for k, x in enumerate(U[i]) if x % f}
        cocycle = {}
        for k, row in upper.items():
            for j, x in row.items():
                cocycle[j] = cocycle.get(j, 0) + phi.get(k, 0) * x
        assert all(x % f == 0 for x in cocycle.values())
        certificates.append((f, z, phi))
    for i, (f, _, phi) in enumerate(certificates):
        for j, (_, z, _) in enumerate(certificates):
            pairing = sum(x * z.get(k, 0) for k, x in phi.items())
            assert pairing % f == (i == j), (d, i, j)
    return tuple(f for f, _, _ in certificates)


def test_torsion_certificates(scanned_complexes):
    # Every Z/f that `integral_homology` reports, and no other, is certified
    # by an explicit cycle of order f and a cocycle mod f that detects it,
    # read from the dense Smith form with its transforms.
    members = [(lambda0(), eps_n)] + [(lambda_k(k), partial(eps_n_k, k)) for k in (1, 2, 3)]
    lambdas = [
        linearized_differential(dga, aug_of(n)) for dga, aug_of in members for n in range(2, 13)
    ]
    sixes = [
        linearized_differential(*geography_dga(i, 0, [6] * count))
        for i, count in ((2, 8), (-1, 8), (3, 6))
    ]
    corpus = (lambdas, scanned_complexes, _seeded_geography_sums(), *([C] for C in sixes))
    counts = []
    for complexes in corpus:
        certified = 0
        for C in complexes:
            H = integral_homology(C)
            for d in H.degrees():
                orders = _certified_torsion(C, d)
                assert orders == H.group(d).torsion, (d, H.format_report())
                certified += len(orders)
        counts.append(certified)
    assert counts == [88, 104, 194, 16, 16, 12]


def test_large_lambda0_sums():
    # Mixed torsion orders on lambda0 sums once made the dense Smith form's
    # entries grow for tens of seconds; the sparse route takes milliseconds.
    rng = random.Random(7)
    for orders in ([60, 40, 32, 42, 39, 6], [rng.randint(2, 60) for _ in range(20)]):
        dga, aug = geography_dga(-1, 0, orders)
        H = integral_homology(linearized_differential(dga, aug))
        assert H.group(-1) == from_orders(orders)
        # each lambda0 summand adds Z^2 to H_0 next to its torsion
        assert H.group(0) == from_orders([0] * (2 * len(orders)) + orders)


def test_unknot_homology():
    H = integral_homology(linearized_differential(unknot(), Augmentation(ZZ, {})))
    assert H.groups == {1: HomologyGroup(1, ())}


def test_chordless_dga():
    empty = DGA(name="empty", chords=())
    C = linearized_differential(empty, Augmentation(ZZ, {}))
    H = integral_homology(C)
    assert H.groups == {} and H.euler_characteristic() == 0
    assert field_homology(C, QQ) == {}
    assert bockstein(C) == {}


def test_integral_homology_requires_integer_complex():
    C = linearized_differential(lambda0(), eps_n(2).reduction(3))
    with pytest.raises(NotAComplex):
        integral_homology(C)


def test_non_complex_rejected():
    with pytest.raises(NotAComplex):
        ChainComplex(
            ring=ZZ,
            basis={0: ["x"], 1: ["y"], 2: ["z"]},
            boundary={0: [], 1: [[1]], 2: [[1]], 3: [[]]},
        )
    basis = {0: ["x"], 1: ["y", "z"]}
    for boundary in ({1: [[0]]}, {1: [[0, 0], [0, 0]]}, {1: [[0, 0, 0]]}, {1: []}):
        with pytest.raises(NotAComplex) as err:
            ChainComplex(ZZ, basis, boundary)
        assert str(err.value) == "boundary from degree 1 is not 1x2"


def test_chain_complex_takes_only_dense_boundaries():
    """Sparse rows with an index outside the basis once read as LCH = 0;
    the one public form checks shapes, so the same complex reads H_1 = Z."""
    basis = {0: ["x"], 1: ["y"]}
    with pytest.raises(TypeError):
        ChainComplex(ZZ, basis, rows={1: {0: {5: 1}}})
    H = integral_homology(ChainComplex(ZZ, basis, {1: [[0]]}))
    assert (str(H.group(1)), str(H.group(0))) == ("Z", "Z")


def _hand_built(ring, sizes, boundary):
    """A complex with sizes[d] chords in degree d and dense boundaries."""
    basis = {d: [f"g{d}_{i}" for i in range(n)] for d, n in sizes.items()}
    return ChainComplex(ring=ring, basis=basis, boundary=boundary)


def test_square_zero_is_checked_in_the_ring():
    # Two paths of weight 1 from degree 2 to degree 0: the integer product
    # is 2, which vanishes over Z/2 only.
    sizes = {0: 1, 1: 2, 2: 1}
    boundary = {1: [[1, 1]], 2: [[1], [1]]}
    C = _hand_built(Zmod(2), sizes, boundary)
    assert C.matrix(2) == [[1], [1]] and field_homology(C, Zmod(2)) == {}
    for ring in (ZZ, Zmod(4), QQ):
        with pytest.raises(NotAComplex, match="nonzero from degree 2"):
            _hand_built(ring, sizes, boundary)


def test_square_zero_failure_off_the_first_row_and_column():
    sizes = {0: 3, 1: 3, 2: 3}
    lower = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    upper = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    _hand_built(ZZ, sizes, {1: lower, 2: upper})
    upper[2][1] = -3  # product entry (2, 1) only
    with pytest.raises(NotAComplex, match="nonzero from degree 2"):
        _hand_built(ZZ, sizes, {1: lower, 2: upper})


def test_square_zero_with_fraction_entries():
    sizes = {0: 1, 1: 2, 2: 1}
    lower = [[Fraction(1, 2), Fraction(-1, 3)]]
    C = _hand_built(QQ, sizes, {1: lower, 2: [[Fraction(2, 3)], [1]]})
    assert field_homology(C, QQ) == {}
    with pytest.raises(NotAComplex, match="nonzero from degree 2"):
        _hand_built(QQ, sizes, {1: lower, 2: [[Fraction(2, 3)], [Fraction(1, 2)]]})


def test_square_zero_failure_at_one_end_only():
    sizes = {0: 1, 1: 1, 2: 1, 3: 1}
    # d1 d2 = 0 but d2 d3 != 0: only the top pair fails ...
    with pytest.raises(NotAComplex, match="nonzero from degree 3"):
        _hand_built(ZZ, sizes, {1: [[0]], 2: [[1]], 3: [[1]]})
    # ... and here only the bottom pair.
    with pytest.raises(NotAComplex, match="nonzero from degree 2"):
        _hand_built(ZZ, sizes, {1: [[1]], 2: [[1]], 3: [[0]]})


def test_square_zero_failure_after_an_empty_product_row():
    # Row g0_0 of d1 meets only g1_0, whose row of d2 is empty, so its
    # product row has no entries; row g0_1 meets g1_1 and composes to 2 * 2.
    sizes = {0: 2, 1: 2, 2: 1}
    boundary = {1: [[1, 0], [0, 2]], 2: [[0], [2]]}
    for ring in (ZZ, Zmod(8), QQ):
        with pytest.raises(NotAComplex, match="nonzero from degree 2"):
            _hand_built(ring, sizes, boundary)
    # Over Z/4 the product 4 is 0, and the empty row is no failure either.
    assert _hand_built(Zmod(4), sizes, boundary).rows_of(2) == {1: {0: 2}}


def test_square_zero_checked_once_per_complex(monkeypatch):
    """Construction checks d^2 = 0; no consumer checks the same complex again."""
    calls = []
    check = ChainComplex.check_square_zero

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(ChainComplex, "check_square_zero", counted)
    cases = [(lambda0(), eps_n(2)), (lambda0(), eps_n(6)), (lambda_k(2), eps_n_k(2, 6))]
    for dga, aug in cases:
        C = linearized_differential(dga, aug)
        integral_homology(C)
        bockstein(C)
        field_homology(C, Zmod(2))
        field_homology(C, QQ)
    assert len(calls) == len(cases)


def test_euler_characteristic_matches_tb():
    cases = [
        (lambda0(), eps_n(2)),
        (lambda0(), eps_n(0)),
        (lambda_k(2), eps_n_k(2, 3)),
        (unknot(), Augmentation(ZZ, {})),
    ]
    for dga, aug in cases:
        H = integral_homology(linearized_differential(dga, aug))
        assert H.euler_characteristic() == euler_tb(dga)


def test_euler_characteristic_across_enumerated_augmentations():
    from lchkit.augment import enumerate_augmentations_bounded

    for dga in (lambda0(), lambda_k(1)):
        for aug in enumerate_augmentations_bounded(dga, 2):
            H = integral_homology(linearized_differential(dga, aug))
            assert H.euler_characteristic() == euler_tb(dga)


def seeded_lambda_sum(rng, chords):
    """Sum of lambda_k summands (k in 1..4) with `chords` chords, at eps_n.

    s summands have sum(2 k_i + 12) - 1 chords, so any odd count from 19
    up is reached by the fewest summands that fit; the seed picks the k_i,
    their order and each summand's n in 0..60.
    """
    summands = next(s for s in range(1, chords) if 14 * s - 1 <= chords <= 20 * s - 1)
    ks = [1] * summands
    for _ in range((chords + 1 - 12 * summands) // 2 - summands):
        ks[rng.choice([i for i, k in enumerate(ks) if k < 4])] += 1
    parts = [(lambda_k(k), eps_n_k(k, rng.randint(0, 60))) for k in ks]
    dga, aug = parts[0]
    for piece, piece_aug in parts[1:]:
        dga, aug = connected_sum_augmented(dga, aug, piece, piece_aug)
    assert len(dga.chords) == chords
    return dga, aug


def test_free_rank_matches_rational_dimension():
    # The same integer eps read over Q gives the Q ranks by a route that
    # shares no rank code with the invariant factors over Z.
    rng = random.Random(2024)
    cases = [(lambda0(), eps_n(3)), (lambda_k(2), eps_n_k(2, 4)), (lambda_k(3), eps_n_k(3, 0))]
    cases += [seeded_lambda_sum(rng, n) for n in (19, 27, 41, 55, 83, 111, 143, 143)]
    for dga, aug in cases:
        C = linearized_differential(dga, aug)
        H = integral_homology(C)
        free = {d: H.group(d).free_rank for d in H.degrees() if H.group(d).free_rank}
        assert field_homology(C, QQ) == free
        C_q = linearized_differential(dga, Augmentation(QQ, aug.values))
        assert field_homology(C_q, QQ) == free


# ----------------------------------------------------------------------
# field homology
# ----------------------------------------------------------------------


def test_mod_p_dimension_jump():
    d = lambda0()
    for n, p, expected in [(6, 2, 4), (6, 3, 4), (6, 5, 2), (5, 2, 2)]:
        C = linearized_differential(d, eps_n(n).reduction(p))
        dims = field_homology(C, Zmod(p))
        assert dims.get(0, 0) == expected


def test_lambda_k_field_cases():
    d = lambda_k(2)
    # eps(a1) != 0 over the field: dims {1: 1, 0: 2}
    aug = Augmentation(Zmod(5), {"a1": 1, "a10": 1, "a11": 1, "a12": 1})
    C = linearized_differential(d, aug)
    assert field_homology(C, Zmod(5)) == {1: 1, 0: 2}
    # eps(a1) = 0: seven dimensions spread over six degrees
    aug0 = Augmentation(Zmod(5), {"a3": 1, "a10": 1, "a11": 1, "a12": 1})
    C0 = linearized_differential(d, aug0)
    assert field_homology(C0, Zmod(5)) == {3: 1, 2: 1, 1: 1, 0: 2, -2: 1, -3: 1}


def test_field_homology_ring_rules():
    C = linearized_differential(lambda0(), eps_n(2))
    assert field_homology(C, QQ) == {1: 1, 0: 2}
    with pytest.raises(FieldRequired):
        field_homology(C, Zmod(6))
    Cp = linearized_differential(lambda0(), eps_n(2).reduction(3))
    with pytest.raises(RingMismatch):
        field_homology(Cp, Zmod(5))


# ----------------------------------------------------------------------
# Bockstein and UCT
# ----------------------------------------------------------------------


def test_bockstein_lambda0():
    C2 = linearized_differential(lambda0(), eps_n(2))
    ranks = bockstein(C2)
    assert ranks.get(0, 0) == 1
    # the Z/2 in H_0 is visible from degree 1 as well
    assert ranks == {1: 1, 0: 1}
    C3 = linearized_differential(lambda0(), eps_n(3))
    assert bockstein(C3) == {}


def test_bockstein_matches_exact_two_torsion_counts():
    """rank beta_d = number of invariant factors of H_{d-1} exactly
    divisible by 2 (== 2 mod 4)."""
    cases = [
        (lambda0(), eps_n(2)),
        (lambda0(), eps_n(4)),
        (lambda0(), eps_n(6)),
        (lambda_k(1), eps_n_k(1, 2)),
        (lambda_k(2), eps_n_k(2, 6)),
    ]
    for dga, aug in cases:
        C = linearized_differential(dga, aug)
        H = integral_homology(C)
        ranks = bockstein(C)
        degrees = set(H.degrees()) | {d + 1 for d in H.degrees()}
        for d in degrees:
            expected = sum(1 for f in H.group(d - 1).torsion if f % 2 == 0 and f % 4)
            assert ranks.get(d, 0) == expected


def _bockstein_by_lift(C):
    """Reference Bockstein: lift mod-2 cycles, apply the integer boundary,
    halve, and reduce mod 2.  Vectors over Z/2 are int bitmasks."""

    def columns(M, n_cols):
        return [sum(1 << i for i, row in enumerate(M) if row[j] % 2) for j in range(n_cols)]

    def add(span, v):  # span: leading bit -> vector; True if the rank grew
        while v:
            top = v.bit_length() - 1
            if top not in span:
                span[top] = v
                return True
            v ^= span[top]
        return False

    ranks = {}
    for d in C.degrees():
        n_d = len(C.basis_of(d))
        M_d = C.matrix(d)
        # kernel of M_d mod 2, from the column combinations that vanish
        kernel, pivots = [], {}
        for j, col in enumerate(columns(M_d, n_d)):
            comb = 1 << j
            while col:
                top = col.bit_length() - 1
                if top not in pivots:
                    pivots[top] = (col, comb)
                    break
                col ^= pivots[top][0]
                comb ^= pivots[top][1]
            else:
                kernel.append(comb)
        span = {}
        for col in columns(C.matrix(d + 1), len(C.basis_of(d + 1))):
            add(span, col)
        reps = [z for z in kernel if add(span, z)]
        target = {}
        for col in columns(M_d, n_d):
            add(target, col)
        rank = 0
        for z in reps:
            w = [sum(row[j] for j in range(n_d) if z >> j & 1) for row in M_d]
            assert all(x % 2 == 0 for x in w)
            if add(target, sum(1 << i for i, x in enumerate(w) if x // 2 % 2)):
                rank += 1
        if rank:
            ranks[d] = rank
    return ranks


def _bockstein_corpus():
    """Bounded-2 integer augmentations of lambda0..lambda3, and 90 seeded
    geography sums in gradings +-2..+-4."""
    for dga in (lambda0(), lambda_k(1), lambda_k(2), lambda_k(3)):
        for aug in enumerate_augmentations_bounded(dga, 2):
            yield linearized_differential(dga, aug)
    rng = random.Random(7)
    for grading in (2, 3, 4, -2, -3, -4):
        for _ in range(15):
            free = rng.randrange(2)
            torsion = [rng.choice([2, 3, 4, 6, 10, 12]) for _ in range(rng.randrange(1, 4))]
            yield linearized_differential(*geography_dga(grading, free, torsion))


def test_bockstein_matches_mod2_lift_reference():
    nonzero = 0
    for count, C in enumerate(_bockstein_corpus(), 1):
        ranks = bockstein(C)
        assert ranks == _bockstein_by_lift(C)
        nonzero += bool(ranks)
    assert count == 338 and nonzero > 100


def test_bockstein_zero_complex():
    C = linearized_differential(
        DGA(name="free", chords=(("x", 0), ("y", 1))), Augmentation(ZZ, {})
    )
    assert bockstein(C) == {}


def test_bockstein_requires_integer_complex():
    C = linearized_differential(lambda0(), eps_n(2).reduction(2))
    with pytest.raises(RingMismatch):
        bockstein(C)


def test_uct_check():
    d = lambda0()
    C = linearized_differential(d, eps_n(2))
    H = integral_homology(C)
    assert uct_check(H, 2, field_homology(C, Zmod(2)))
    assert uct_check(H, 3, field_homology(C, Zmod(3)))
    assert field_homology(C, Zmod(3)) == {1: 1, 0: 2}
    # rational dims match free ranks (trivial UCT instance)
    dims_q = field_homology(C, QQ)
    assert all(H.group(deg).free_rank == dim for deg, dim in dims_q.items())
    # a wrong table must fail
    assert not uct_check(H, 2, {0: 1})


def test_uct_across_enumerated_augmentations():
    d = lambda_k(1)
    for aug in enumerate_augmentations(d, Zmod(3)):
        pass  # enumerated field augs exercised elsewhere; here use integer ones
    from lchkit.augment import enumerate_augmentations_bounded

    for aug in enumerate_augmentations_bounded(d, 2):
        C = linearized_differential(d, aug)
        H = integral_homology(C)
        for p in (2, 3, 5, 7):
            Cp = linearized_differential(d, aug.reduction(p))
            assert uct_check(H, p, field_homology(Cp, Zmod(p)))


def _fraction_inverse(M):
    """Exact inverse of a unimodular integer matrix (test-local helper)."""
    from fractions import Fraction

    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if A[i][col] != 0)
        A[col], A[pivot] = A[pivot], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for i in range(n):
            if i != col and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[col])]
    out = [[x for x in row[n:]] for row in A]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


def _random_unimodular(rng, n):
    M = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for c in range(n):
            M[i][c] += q * M[j][c]
    if rng.random() < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        M[i], M[j] = M[j], M[i]
    return M


def test_integral_homology_on_scrambled_known_complexes():
    """Build complexes with homology fixed by design (elementary blocks:
    Z summands and x -> n*y pairs), scramble every chain group by a random
    unimodular change of basis, and demand the designed answer back."""
    rng = random.Random(42)
    for _ in range(60):
        degrees = range(-2, 3)
        sizes = {d: 0 for d in degrees}
        blocks = []  # (degree d, order n) places Z/n at degree d (0 = Z)
        expected: dict[int, list[int]] = {d: [] for d in degrees}
        for _ in range(rng.randrange(1, 6)):
            d = rng.choice([-2, -1, 0, 1])
            n = rng.choice([0, 0, 1, 2, 3, 4, 6, 12])
            if n == 0:
                sizes[d] += 1
                blocks.append((d, 0, sizes[d] - 1, None))
                expected[d].append(0)
            else:
                sizes[d] += 1
                sizes[d + 1] += 1
                blocks.append((d, n, sizes[d] - 1, sizes[d + 1] - 1))
                if n > 1:
                    expected[d].append(n)
        boundary = {
            d: [[0] * sizes.get(d, 0) for _ in range(sizes.get(d - 1, 0))]
            for d in range(-2, 4)
        }
        for d, n, row, col in blocks:
            if n:
                boundary[d + 1][row][col] = n
        # scramble: M'_d = P_{d-1}^{-1} M_d P_d
        P = {d: _random_unimodular(rng, sizes[d]) for d in degrees}
        Pinv = {d: _fraction_inverse(P[d]) for d in degrees}
        scrambled = {}
        for d in range(-2, 4):
            M = boundary[d]
            lo = Pinv.get(d - 1)
            hi = P.get(d)
            if lo and M:
                M = matmul(lo, M)
            if hi and M and M[0]:
                M = matmul(M, hi)
            scrambled[d] = M
        C = ChainComplex(
            ring=ZZ,
            basis={d: [f"g{d}_{i}" for i in range(sizes[d])] for d in degrees},
            boundary=scrambled,
        )
        H = integral_homology(C)
        want = {
            d: from_orders(orders)
            for d, orders in expected.items()
            if not from_orders(orders).is_trivial()
        }
        assert H.groups == want
        # field dimensions agree with UCT on the designed groups
        for p in (2, 3):
            assert uct_check(H, p, field_homology(C, Zmod(p)))
        # Bockstein rank at d counts the exactly-Z/2 factors of H_{d-1}
        ranks = bockstein(C)
        for d in range(-2, 4):
            exact_two = sum(
                1 for f in H.group(d - 1).torsion if f % 2 == 0 and f % 4
            )
            assert ranks.get(d, 0) == exact_two


def test_graded_homology_json_round_trip():
    H = integral_homology(linearized_differential(lambda0(), eps_n(6)))
    obj = H.to_json_obj()
    assert GradedHomology.from_json_obj(obj) == H
    assert H.format_report() == "H_1 = Z\nH_0 = Z^2 + Z/6\nH_-1 = Z/6"
