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
word by word by `linearized_differential`, which compiles nothing, raises
the first failure it meets and builds a checked `ChainComplex`, and a
scan's grid is evaluated from the plan by `linearized_grid`, each term
over all points at once, with no complex and no check: each point's
values fill the grid's slots, which `grid_rows` turns into rows.  The grid
is only for a valid DGA at augmentations, where (d^eps)^2 = 0 holds at
every point (Chekanov 2002) and nothing can fail; `verify.torsion_scan`
validates the DGA before it sums any grid.  Where both routes run, they
give the same rows in the same order.  Boundaries are sparse rows, which
the d^2 check and the elimination kernel read directly.
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
    len(basis[d]); `linearized_differential` hands its rows to the private
    `_of_rows`.  ``boundary`` and ``matrix(d)`` are dense views.

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


def compile_plan(dga: DGA) -> dict[int, list]:
    """The word rule compiled for evaluation at many augmentations.

    Maps each of :attr:`DGA.boundary_degrees` to the columns of the
    boundary from that degree d: ``(j, constant, entries)`` for the chord
    at index j of :attr:`DGA.basis`, if its differential is nonzero.
    ``constant`` holds the terms of eps(d chord), and ``entries`` holds
    ``(i, terms)`` per row chord of degree d - 1 in its linear part, in the
    rule's order, where i is the row chord's index within its degree.  On a
    validly graded DGA these are all its entries; a row chord of another
    degree is left out, and only `linearized_differential` reports it.  A
    term ``(c, names)`` is c * eps(x_1) * ... * eps(x_k).  One pass reads
    each word once; :attr:`DGA.linear_plan` caches the result.
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
                (index[name], row_terms)
                for name, row_terms in rows.items()
                if row_terms and grading[name] == d - 1
            ]
            plan.append((j, constant, entries))
    return columns


def constraints(dga: DGA) -> list[list[tuple[int, tuple[str, ...]]]]:
    """The nonempty constant-term lists of the DGA's plan, in plan order.

    Each holds the terms ``(c, names)`` of one eps(d chord).  Reading them
    compiles :attr:`DGA.linear_plan`, which `linearized_grid` then sums.
    """
    return [constant for plan in dga.linear_plan.values() for _, constant, _ in plan if constant]


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
                raise NotAnAugmentation(f"eps(d {chord}) = {constant} != 0: not an augmentation")
            for name, value in entries.items():
                if m:
                    value %= m
                if not value:
                    continue
                if grading[name] != d - 1:
                    raise ValidationFailed(
                        f"d {chord} has an s-linear term on {name} of degree "
                        f"{grading[name]}, expected {d - 1}; validate the DGA"
                    )
                i = index[name]
                row = boundary.get(i)
                if row is None:
                    boundary[i] = {j: value}
                else:
                    row[j] = value

    return ChainComplex._of_rows(aug.ring, basis, rows)


def grid_rows(slots: list[tuple[int, int]], values: tuple) -> dict[int, dict[int, int]]:
    """One boundary's rows at one point, from its slots in a `linearized_grid`
    layout and the point's values there, as `linearized_differential` stores them."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), value in compress(zip(slots, values), values):
        row = rows.get(i)
        if row is None:
            rows[i] = {j: value}
        else:
            row[j] = value
    return rows


def linearized_grid(dga: DGA, ring: RingDesc, augs: list[Augmentation]) -> tuple[dict, Iterator]:
    """`linearized_differential` at each of `augs`, in order, with nothing checked.

    The caller enforces the precondition: `dga` is valid (`dga.validate`),
    and each of `augs` is an augmentation over `ring` that assigns only
    degree-0 chords, as the enumerators return.  Then no entry is misgraded
    and d^2 = 0 at every point, so the rows are those of
    `linearized_differential`, which would raise nothing there.

    The plan is summed once for the whole grid: each term is evaluated over
    every point at once, from each degree-0 chord's list of values, and
    each entry gets one list of sums, reduced mod m over Z/m.  Entries zero
    at every point are dropped; the rest are the slots.  Returns the
    layout, each boundary degree to the ``(i, j)`` of its slots in the
    order `linearized_differential` inserts its rows, and an iterator that
    yields each point as a tuple, per degree, of its values in those slots
    (see `grid_rows`).
    """
    n, m = len(augs), ring.modulus or 0
    values = {x: [aug.values.get(x, 0) for aug in augs] for x in dga.degree_zero_chords}

    def sums(terms: list) -> list:
        total = repeat(0, n)
        for c, names in terms:
            term = repeat(c, n)
            for x in names:
                term = map(mul, term, values[x])
            total = map(add, total, term)
        return list(map(mod, total, repeat(m)) if m else total)

    # Per degree, every entry kept, as (i, j) and its sums, in the order rows are inserted.
    layout: dict[int, list[tuple[int, int]]] = {}
    kept: dict[int, list[list]] = {}
    for d, columns in dga.linear_plan.items():
        layout[d], kept[d] = slots, lists = [], []
        for j, _, entries in columns:
            for i, terms in entries:
                entry = sums(terms)
                if any(entry):
                    slots.append((i, j))
                    lists.append(entry)
    columns = [zip(*lists) if lists else repeat((), n) for lists in kept.values()]
    return layout, zip(*columns) if columns else repeat((), n)
