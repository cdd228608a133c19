"""Exact matrix helpers, and the one elimination kernel of the package.

Dense matrices are lists of rows (lists); sparse ones are dicts
``{row: {col: value}}`` of nonzero entries, the form in which
`linearize.ChainComplex` stores its boundaries.  Entries are Python ints
(or Fractions where stated); nothing here ever rounds.  Shapes are not
always small: connected sums reach hundreds of chords.  No package code
calls the dense `matmul`, `rank_rationals` or `rank_mod_p`; they remain
because `bench/tracing.py` wraps each of them by name.

`_SparseMatrix` is the one elimination kernel, over Z or over Z/p, built
from sparse rows; two loops drive it, and both live here.  A load walks
each row's items once, in row-index order: it reduces each entry mod p
under a modulus, drops zeros, and adds the row to its column's set, so
columns are indexed in the order their first entries occur.  Its pivot
rule is Markowitz's: least |value| (every value counts as 1 under a
modulus), then least fill cost (r-1)(c-1).  A worklist of columns left
with one entry serves the cheapest cases without a scan.  Each pivot's
column is cleared by row steps: over Z/p one exact step per row with the
pivot's inverse, over Z Euclid against the pivot row by row additions and
row swaps, which leaves the column's gcd as the pivot.  A pivot already
alone in its column takes no step at all.

- `rank_of_rows` clears each pivot's column and drops its row, so the rank
  is the number of pivots.  Over Z/p the entries are reduced mod p, over Q
  each row's denominators are cleared first, so rank over Q needs no
  Fraction arithmetic; a row of plain ints has none and goes to the load
  without that copy.  The dense `rank_rationals` and `rank_mod_p` convert
  with `sparse_rows` and take the same route.
- `diagonal_of_rows` gives the nonzero Smith diagonal over Z.  An entry
  alone in both its row and its column, as the torsion entries of a
  connected sum are, is a diagonal block of its own and splits off before
  any pivot.  After each pivot the pivot row is reduced mod the pivot,
  which stands for column steps against a pivot alone in its column.  If
  the pivot is then all that is left of its row, it splits off as one
  diagonal entry; otherwise the remainders, each smaller than it, wait for
  a later pivot.  A pivot of +-1 would reduce every other entry of its row
  to 0, so its row is dropped at once and the entry 1 recorded, without
  the reduction.  Neither shortcut changes which pivots are taken.  After
  the split, a unit alone in its column is optimal, and on the
  block-and-link boundaries of connected sums about half the pivots are
  such units.

No rows, or one row, need no kernel and are not loaded: the rank is 1
exactly when some value of the row is nonzero in the field, and the
diagonal is the gcd of its values.  `rank_of_row` and `diagonal_of_row`
state this rule once, also for a scan's boundaries filled in one row.
"""

from __future__ import annotations

from math import gcd, lcm


# No package code calls this; `bench/tracing.py` wraps it by name.
def matmul(A, B) -> list[list[int]]:
    """A @ B; the inner dimension is len(B)."""
    rows = len(A)
    cols = len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(len(B)):
            a = Ai[k]
            if a:
                Bk = B[k]
                Oi = out[i]
                for j in range(cols):
                    Oi[j] += a * Bk[j]
    return out


def sparse_rows(M) -> dict[int, dict[int, int]]:
    """The nonzero entries of a dense matrix as ``{row: {col: value}}``."""
    rows = {}
    for i, row in enumerate(M):
        entries = {j: x for j, x in enumerate(row) if x}
        if entries:
            rows[i] = entries
    return rows


class _SparseMatrix:
    """Matrix over Z, or over Z/m for a prime m, as rows of {col: value}
    dicts with a col -> rows index.

    Only nonzero entries are stored; empty rows are dropped.  Over Z every
    step keeps the Smith form: `add_row` and `swap_rows` are unimodular row
    operations, and `reduce_row` stands for unimodular column operations.
    With a modulus m > 0 every entry is kept reduced into [1, m), so
    entries never grow, and only `add_row` steps are taken.
    """

    def __init__(self, rows: dict[int, dict[int, int]], modulus: int = 0):
        """From sparse rows ``{i: {j: x}}``; the caller's dicts are not touched.

        Rows are taken in index order, so elimination visits them as it
        would the rows of the dense matrix.
        """
        self.modulus = modulus
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        cols = self.cols
        for i in sorted(rows):
            entries = {}
            for j, x in rows[i].items():
                if modulus:
                    x %= modulus
                if x:
                    entries[j] = x
                    col = cols.get(j)
                    if col is None:
                        cols[j] = {i}
                    else:
                        col.add(i)
            if entries:
                self.rows[i] = entries
        # Columns that were left with one row; entries go stale as the
        # column changes and are checked when popped.
        self.singles = [j for j, rs in self.cols.items() if len(rs) == 1]

    def pivot(self) -> tuple[int, int]:
        """Entry of least |value|, ties broken by Markowitz cost (r-1)(c-1).

        Over Z/m every nonzero entry is a unit, so |value| counts as 1 and
        the cost alone decides.  A column with one entry costs 0, so if that
        entry is a unit (any entry, under a modulus) it is optimal, and it
        is taken from the worklist `singles` without a scan; the full scan
        runs only when the worklist holds no such column.
        """
        cols = self.cols
        singles = self.singles
        m = self.modulus
        while singles:
            j = singles.pop()
            if len(cols[j]) == 1:
                (i,) = cols[j]
                if m or self.rows[i][j] in (1, -1):
                    return i, j
        best_a = best_cost = best = None
        for i, row in self.rows.items():
            row_fill = len(row) - 1
            for j, x in row.items():
                a = 1 if m else x if x > 0 else -x
                if best_a is not None and a > best_a:
                    continue
                cost = row_fill * (len(cols[j]) - 1)
                if best_a is None or a < best_a or cost < best_cost:
                    best_a, best_cost, best = a, cost, (i, j)
                    if a == 1 and cost == 0:
                        return best
        return best

    def add_row(self, i: int, r: int, q: int) -> None:
        """row_i += q * row_r, for q != 0 (reduced mod m under a modulus)."""
        Ri = self.rows[i]
        cols = self.cols
        m = self.modulus
        for j, x in self.rows[r].items():
            old = Ri.get(j)
            y = q * x if old is None else old + q * x
            if m:
                y %= m
            if y:
                Ri[j] = y
                if old is None:
                    cols[j].add(i)
            else:
                del Ri[j]
                col = cols[j]
                col.discard(i)
                if len(col) == 1:
                    self.singles.append(j)
        if not Ri:
            del self.rows[i]

    def swap_rows(self, r: int, i: int) -> None:
        """Exchange rows r and i; only the columns they do not share change
        their index, and no column changes its size."""
        rows, cols = self.rows, self.cols
        Rr, Ri = rows[r], rows[i]
        rows[r], rows[i] = Ri, Rr
        for j in Rr:
            if j not in Ri:
                col = cols[j]
                col.discard(r)
                col.add(i)
        for j in Ri:
            if j not in Rr:
                col = cols[j]
                col.discard(i)
                col.add(r)

    def reduce_row(self, r: int, c: int) -> None:
        """Reduce row r mod its entry p at (r, c), which is alone in column c.

        Column c is zero outside row r, so each column step
        col_j -= q * col_c changes (r, j) alone: every other entry of row r
        is replaced in place by its remainder mod p.  A zero leaves the row
        and the column index.
        """
        row = self.rows[r]
        p = row[c]
        cols = self.cols
        for j, y in list(row.items()):
            if j == c:
                continue
            y %= p
            if y:
                row[j] = y
            else:
                del row[j]
                col = cols[j]
                col.discard(r)
                if len(col) == 1:
                    self.singles.append(j)

    def clear_column(self, r: int, c: int) -> int:
        """Make (r, c) the only entry of column c by row steps; returns it.

        A pivot already alone in its column is returned at once.  Under a
        modulus each row takes one exact step, row_i -= x/p * row_r
        with the inverse of the pivot p mod m.  Over Z each row i runs
        Euclid against row r: `add_row` leaves the remainder of its entry
        mod p, and a nonzero remainder swaps rows i and r, so the gcd of the
        column ends at (r, c) and row r stays the pivot row.
        """
        rows = self.rows
        p = rows[r][c]
        if len(self.cols[c]) == 1:
            return p
        m = self.modulus
        if m:
            minus_inv = -pow(p, -1, m)
            for i in list(self.cols[c]):
                if i != r:
                    self.add_row(i, r, rows[i][c] * minus_inv % m)
            return p
        for i in list(self.cols[c]):
            if i == r:
                continue
            while True:
                q = rows[i][c] // p
                if q:
                    self.add_row(i, r, -q)
                if c not in rows.get(i, ()):
                    break
                self.swap_rows(r, i)
                p = rows[r][c]
        return p

    def drop_row(self, r: int) -> None:
        cols = self.cols
        for j in self.rows.pop(r):
            col = cols[j]
            col.discard(r)
            if len(col) == 1:
                self.singles.append(j)


def rank_of_row(values, modulus: int | None = None) -> int:
    """Rank of one row's values over Q (modulus None) or Z/p: 1 if any is nonzero there."""
    for x in values:
        if x % modulus if modulus else x:
            return 1
    return 0


def diagonal_of_row(values) -> list[int]:
    """The nonzero Smith diagonal over Z of one row's values: their gcd, if not 0."""
    g = gcd(*values)
    return [g] if g else []


def rank_of_rows(rows: dict[int, dict[int, int]], modulus: int | None = None) -> int:
    """Rank of sparse rows over Q (modulus None) or over Z/p (modulus p prime).

    Over Q each row is multiplied by the lcm of its entries' denominators,
    which leaves the row space unchanged.
    """
    if len(rows) < 2:
        return rank_of_row([x for row in rows.values() for x in row.values()], modulus)
    if not modulus:
        cleared = {}
        for i, row in rows.items():
            if all(type(x) is int for x in row.values()):
                cleared[i] = row
                continue
            scale = lcm(*(x.denominator for x in row.values()))
            cleared[i] = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        rows = cleared
    A = _SparseMatrix(rows, modulus or 0)
    rank = 0
    while A.rows:
        r, c = A.pivot()
        A.clear_column(r, c)
        A.drop_row(r)
        rank += 1
    return rank


def diagonal_of_rows(rows: dict[int, dict[int, int]]) -> list[int]:
    """The nonzero Smith diagonal over Z of sparse integer rows, as |values|
    in the order they split off, not yet in divisibility order.

    The loop ends: a pivot from the scan is the least |value| left, and a
    pass that keeps its row leaves there a remainder smaller than that
    pivot, so between two passes that drop a row the least |value| strictly
    falls.
    """
    if len(rows) < 2:
        return diagonal_of_row([x for row in rows.values() for x in row.values()])
    A = _SparseMatrix(rows)
    diagonal = []
    for j in A.singles:
        (i,) = A.cols[j]
        if len(A.rows[i]) == 1:
            diagonal.append(abs(A.rows[i][j]))
            A.drop_row(i)
    while A.rows:
        r, c = A.pivot()
        p = A.clear_column(r, c)
        if p in (1, -1):
            A.drop_row(r)
            diagonal.append(1)
            continue
        A.reduce_row(r, c)
        if len(A.rows[r]) == 1:
            A.drop_row(r)
            diagonal.append(abs(p))
    return diagonal


# No package code calls this; `bench/tracing.py` wraps it by name.
def rank_rationals(M) -> int:
    """Rank over Q of a dense matrix of ints and Fractions; see `rank_of_rows`."""
    return rank_of_rows(sparse_rows(M))


# No package code calls this; `bench/tracing.py` wraps it by name.
def rank_mod_p(M, p: int) -> int:
    """Rank over the field Z/p (p prime) of a dense integer matrix; see `rank_of_rows`."""
    return rank_of_rows(sparse_rows(M), p)
