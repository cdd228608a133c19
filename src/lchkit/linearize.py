"""Linearized chain complex of a DGA at an augmentation.

Conjugating the differential by x -> s*x + eps(x) on chords (and t -> -1)
and keeping the first-order part in s turns the free module on the chords
into a finite chain complex (V, d^eps).  The constant part must vanish on
every chord -- that is exactly the augmentation equation, and it is
asserted here, so a non-augmentation cannot slip through.

The word rule: the column of chord a in the boundary from |a| is read off
the words of d(a) as eps sees them.  Each t or t^-1 flips the sign, and
eps vanishes off degree 0, so a word of degree-0 chords adds its value to
eps(d a) and the value of its other letters to each letter's entry, a
word with one graded letter adds the value of its degree-0 letters to
that letter's entry, and a word with two drops out.  Entries keep the
order in which their chords first occur in the words, dropped words
included, as in `algebra.s_linear_part`.

This module holds the rule, the plan `compile_plan` compiles from it (read
by `augment` through `constraints`), and its two routes: one point is read
word by word by `linearized_differential`, which compiles nothing, and a
scan's grid is evaluated from the plan by `linearized_grid`, each term
over all points at once.  Both give the same rows in the same order and
raise the same first failure.  The boundaries are stored as sparse rows,
which the d^2 check and the elimination kernel read directly.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import compress, repeat
from operator import add, mod, mul

from .algebra import T_INV_SYMBOL, T_SYMBOL
from .errors import NotAComplex, NotAnAugmentation, ValidationFailed
from .matrices import sparse_rows
from .rings import RingDesc

# `DGA` and `Augmentation` in annotations are lchkit.dga.DGA and
# lchkit.augment.Augmentation.  They are not imported: both modules import
# this one, and imports in the model layer run one way.


class ChainComplex:
    """Per-degree chord bases and boundaries over `ring`, stored as sparse rows.

    ``rows[d]`` is the boundary from degree d to degree d-1 as
    ``{i: {j: x}}`` with nonzero entries only: i indexes ``basis[d-1]`` and
    j indexes ``basis[d]``.  Boundaries are stored for every occupied
    degree d and for d + 1, so compositions are checkable at the ends;
    other degrees have empty bases and zero boundaries, and a gap between
    degrees costs nothing.  Entries are exact (ints; Fractions over Q).

    ``ChainComplex(ring, basis, boundary)`` builds a complex from dense
    matrices, checking that ``boundary[d]`` is len(basis[d-1]) x
    len(basis[d]); `linearized_differential` and `linearized_grid` hand
    their rows to the private `_of_rows`.  ``boundary`` and ``matrix(d)``
    are dense views.

    Construction checks d^2 = 0 in the ring (raising NotAComplex), so every
    consumer may rely on it without checking again.  Do not mutate the
    bases or the rows afterwards: the check is not repeated, and complexes
    of one DGA share their basis.
    """

    def __init__(self, ring: RingDesc, basis: dict[int, list[str]], boundary: dict[int, list]):
        rows = {}
        for d, M in boundary.items():
            n_rows, n_cols = len(basis.get(d - 1, ())), len(basis.get(d, ()))
            if len(M) != n_rows or any(len(row) != n_cols for row in M):
                raise NotAComplex(f"boundary from degree {d} is not {n_rows}x{n_cols}")
            rows[d] = sparse_rows(M)
        self.ring = ring
        self.basis = basis
        self.rows = rows
        self.check_square_zero()

    @classmethod
    def _of_rows(cls, ring: RingDesc, basis: dict[int, list[str]], rows: dict) -> ChainComplex:
        """The complex with exactly these sparse rows, which the caller hands over.

        Each index must lie in its basis and each entry be nonzero and
        reduced in the ring; nothing is checked or copied but d^2 = 0.
        """
        C = object.__new__(cls)
        C.ring = ring
        C.basis = basis
        C.rows = rows
        C.check_square_zero()
        return C

    def degrees(self) -> list[int]:
        return sorted(d for d, names in self.basis.items() if names)

    def basis_of(self, degree: int) -> list[str]:
        return self.basis.get(degree, [])

    def rows_of(self, degree: int) -> dict[int, dict[int, int]]:
        """Sparse boundary from `degree`; empty where none is stored."""
        return self.rows.get(degree, {})

    @cached_property
    def boundary(self) -> dict[int, list[list[int]]]:
        """Dense view: each stored boundary as a list of rows."""
        return {d: self._dense(d) for d in self.rows}

    def matrix(self, degree: int) -> list[list[int]]:
        """Dense boundary from `degree`, len(basis[degree-1]) x len(basis[degree])."""
        if degree in self.rows:
            return self.boundary[degree]
        return self._dense(degree)

    def _dense(self, degree: int) -> list[list[int]]:
        n_cols = len(self.basis_of(degree))
        M = [[0] * n_cols for _ in self.basis_of(degree - 1)]
        for i, row in self.rows_of(degree).items():
            for j, x in row.items():
                M[i][j] = x
        return M

    def check_square_zero(self) -> None:
        """Raise NotAComplex unless consecutive boundaries compose to zero.

        Each row of the product is summed sparsely over the shared middle
        degree, and its entries are reduced in the ring.  A middle index
        whose upper row is empty adds nothing, and a product row with no
        entries at all has nothing to reduce.
        """
        reduce = self.ring.reduce
        rows = self.rows
        for d, lower in rows.items():
            upper = rows.get(d + 1)
            if not upper:
                continue
            for row in lower.values():
                product: dict[int, int] = {}
                for k, x in row.items():
                    above = upper.get(k)
                    if above:
                        for j, y in above.items():
                            product[j] = product.get(j, 0) + x * y
                if product and any(reduce(z) for z in product.values()):
                    raise NotAComplex(f"boundary squared is nonzero from degree {d + 1}")


def _not_an_augmentation(chord: str, constant) -> NotAnAugmentation:
    return NotAnAugmentation(f"eps(d {chord}) = {constant} != 0: not an augmentation")


def _misgraded(dga: DGA, chord: str, name: str, degree: int) -> ValidationFailed:
    """A nonzero entry of d `chord`, from `degree`, on a row chord of another degree."""
    return ValidationFailed(
        f"d {chord} has an s-linear term on {name} of degree "
        f"{dga.grading[name]}, expected {degree - 1}; validate the DGA"
    )


def compile_plan(dga: DGA) -> dict[int, list]:
    """The word rule compiled for evaluation at many augmentations.

    Maps each of :attr:`DGA.boundary_degrees` to the columns of the
    boundary from that degree d: ``(j, chord, constant, entries)`` for the
    chord at index j of :attr:`DGA.basis`, if its differential is nonzero.
    ``constant`` holds the terms of eps(d chord), and ``entries`` holds
    ``(i, terms, misgraded)`` per row chord of its linear part, in the
    rule's order: i is the row chord's index within its degree, and
    ``misgraded`` is None, or the row chord's name if it does not sit in
    degree d - 1, so that a nonzero entry there is an error.  A term
    ``(c, names)`` is c * eps(x_1) * ... * eps(x_k).  One pass reads each
    word once; :attr:`DGA.linear_plan` caches the result.
    """
    grading, index, degree_zero = dga.grading, dga.basis_index, dga.degree_zero_chords
    basis = dga.basis
    columns: dict[int, list] = {}
    for d in dga.boundary_degrees:
        columns[d] = plan = []
        for j, chord in enumerate(basis.get(d, ())):
            p = dga.diff.get(chord)
            if p is None:
                continue
            # Letters enter rows as their words are read, fed or not: first occurrence.
            constant, rows = [], {}
            for word, coeff in p.terms.items():
                letters = word
                if T_SYMBOL in word or T_INV_SYMBOL in word:
                    letters = tuple([x for x in word if x != T_SYMBOL and x != T_INV_SYMBOL])
                    if (len(word) - len(letters)) % 2:
                        coeff = -coeff
                if degree_zero.issuperset(letters):
                    constant.append((coeff, letters))
                    for k, x in enumerate(letters):
                        rows.setdefault(x, []).append((coeff, letters[:k] + letters[k + 1 :]))
                    continue
                for x in letters:
                    rows.setdefault(x, [])
                for k, graded in enumerate(letters):
                    if graded not in degree_zero:
                        break
                rest = letters[:k] + letters[k + 1 :]
                if degree_zero.issuperset(rest):  # else a second graded letter drops the word
                    rows[graded].append((coeff, rest))
            entries = [
                (index[name], row_terms, None if grading[name] == d - 1 else name)
                for name, row_terms in rows.items()
                if row_terms
            ]
            plan.append((j, chord, constant, entries))
    return columns


def constraints(dga: DGA) -> list[list[tuple[int, tuple[str, ...]]]]:
    """The nonempty constant-term lists of the DGA's plan, in plan order.

    Each holds the terms ``(c, names)`` of one eps(d chord).  Reading them
    compiles :attr:`DGA.linear_plan`, which `linearized_grid` then sums.
    """
    return [constant for plan in dga.linear_plan.values() for _, _, constant, _ in plan if constant]


def linearized_differential(dga: DGA, aug: Augmentation) -> ChainComplex:
    """Build (V, d^eps) for a valid DGA and an augmentation of it.

    The column of chord a is the s-linear part of d(a) on chords of degree
    |a| - 1, read by the word rule at :meth:`Augmentation.eps_map` (which
    checks the augmentation's names first) and reduced mod m over Z/m, in
    one pass over the words; the plan is neither read nor compiled.

    The s^0 part of every conjugated differential is checked to vanish in
    the ring; a failure raises NotAnAugmentation, quoting the unreduced
    constant.  A nonzero entry on a chord of another degree raises
    ValidationFailed.  Degrees are visited in increasing order, columns in
    basis order, and a column's constant before its entries, so the first
    failure met is the one raised.
    """
    eps = aug.eps_map(dga)
    m = aug.ring.modulus or 0
    rows: dict[int, dict[int, dict[int, int]]] = {}
    grading, index, degree_zero = dga.grading, dga.basis_index, dga.degree_zero_chords
    basis, diff = dga.basis, dga.diff
    for d in dga.boundary_degrees:
        rows[d] = boundary = {}
        for j, chord in enumerate(basis.get(d, ())):
            p = diff.get(chord)
            if p is None:
                continue
            # Letters enter as their words are read, fed or not: first occurrence.
            constant = 0
            entries: dict[str, int] = {}
            for word, coeff in p.terms.items():
                letters = word
                if T_SYMBOL in word or T_INV_SYMBOL in word:
                    letters = tuple([x for x in word if x != T_SYMBOL and x != T_INV_SYMBOL])
                    if (len(word) - len(letters)) % 2:
                        coeff = -coeff
                if degree_zero.issuperset(letters):
                    values = [eps[x] for x in letters]
                    for k, x in enumerate(letters):
                        c = coeff
                        for i, v in enumerate(values):
                            if i != k:
                                c *= v
                        entries[x] = entries.get(x, 0) + c
                    for v in values:
                        coeff *= v
                    constant += coeff
                    continue
                graded = None
                for x in letters:
                    if x not in entries:
                        entries[x] = 0
                    if x in degree_zero:
                        coeff *= eps[x]
                    elif graded is None:
                        graded = x
                    else:
                        coeff = 0  # a second graded letter drops the word
                if coeff:
                    entries[graded] += coeff
            if constant % m if m else constant:
                raise _not_an_augmentation(chord, constant)
            for name, value in entries.items():
                if m:
                    value %= m
                if not value:
                    continue
                if grading[name] != d - 1:
                    raise _misgraded(dga, chord, name, d)
                i = index[name]
                row = boundary.get(i)
                if row is None:
                    boundary[i] = {j: value}
                else:
                    row[j] = value

    return ChainComplex._of_rows(aug.ring, basis, rows)


def linearized_grid(dga: DGA, ring: RingDesc, augs: list[Augmentation]) -> Iterator[ChainComplex]:
    """`linearized_differential` at each of `augs`, augmentations over `ring`, in order.

    The plan is summed once for the whole grid: each term is evaluated over
    every point at once, from each degree-0 chord's list of values, and
    each constant and each entry gets one list of sums, reduced mod m over
    Z/m.  The least point with a nonzero constant, a nonzero misgraded
    entry or a name outside degree 0 is the first that fails; entries zero
    at every point are dropped.  Each point before it yields its complex,
    its rows inserted in the order `linearized_differential` inserts them,
    and at that point `linearized_differential` raises its first failure.
    Only one complex is alive at a time, besides the grid's lists of sums.
    """
    n, m = len(augs), ring.modulus or 0
    degree_zero = dga.degree_zero_chords
    # Names outside degree 0 carry nonzero values (zeros are dropped), so eps_map raises there.
    fail = next(compress(range(n), [not aug.values.keys() <= degree_zero for aug in augs]), n)
    values = {x: [aug.values.get(x, 0) for aug in augs] for x in degree_zero}

    def sums(terms: list) -> list:
        total = repeat(0, n)
        for c, names in terms:
            term = repeat(c, n)
            for x in names:
                term = map(mul, term, values[x])
            total = map(add, total, term)
        return list(map(mod, total, repeat(m)) if m else total)

    # Every entry kept, as (d, i, j) and its sums, in the order rows are inserted.
    slots, entries_sums = [], []
    for d, columns in dga.linear_plan.items():
        for j, _, constant_terms, entries in columns:
            if constant_terms:
                fail = next(compress(range(fail), sums(constant_terms)), fail)
            for i, terms, misgraded in entries:
                entry = sums(terms)
                if misgraded:
                    fail = next(compress(range(fail), entry), fail)
                elif any(entry):
                    slots.append((d, i, j))
                    entries_sums.append(entry)

    degrees = dga.boundary_degrees
    for _, point in zip(range(fail), zip(*entries_sums) if slots else repeat(())):
        rows: dict[int, dict[int, dict[int, int]]] = {d: {} for d in degrees}
        for (d, i, j), value in compress(zip(slots, point), point):
            boundary = rows[d]
            row = boundary.get(i)
            if row is None:
                boundary[i] = {j: value}
            else:
                row[j] = value
        yield ChainComplex._of_rows(ring, dga.basis, rows)
    if fail < n:
        linearized_differential(dga, augs[fail])  # raises the point's first failure
