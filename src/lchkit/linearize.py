"""Linearized chain complex of a DGA at an augmentation.

Conjugating the differential by x -> s*x + eps(x) on chords (and t -> -1)
and keeping the first-order part in s turns the free module on the chords
into a finite chain complex (V, d^eps).  The constant part must vanish on
every chord -- that is exactly the augmentation equation, and it is
asserted here, so a non-augmentation cannot slip through.

`linearized_differential` is the one entry point, and it picks the route
by one rule: a DGA that already holds its compiled :attr:`DGA.linear_plan`
(every DGA a scan enumerates, since the enumerators compile it) is
linearized by summing the plan's terms; any other DGA is read word by
word, each word once, and nothing is compiled.  Both routes take the
bases and degrees from the DGA and their errors from the helpers below,
so they cannot drift apart.  The boundaries are built and stored as
sparse rows, which the d^2 check and the elimination kernel read
directly; the dense matrices are views for printing and for callers that
want them.
"""

from __future__ import annotations

from functools import cached_property

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

    ``ChainComplex(ring, basis, boundary)`` builds a complex by hand from
    dense matrices, ``boundary[d]`` of shape len(basis[d-1]) x
    len(basis[d]); `linearized_differential` passes ``rows=`` instead.
    ``boundary`` and ``matrix(d)`` are dense views of the stored rows,
    built on first use, and ``dump()`` prints them.

    Construction checks d^2 = 0 in the ring (raising NotAComplex), so every
    consumer may rely on it without checking again.  Do not mutate the
    bases or the rows afterwards: the check is not repeated, and complexes
    of one DGA share their basis.
    """

    def __init__(
        self,
        ring: RingDesc,
        basis: dict[int, list[str]],
        boundary: dict[int, list[list[int]]] | None = None,
        *,
        rows: dict[int, dict[int, dict[int, int]]] | None = None,
    ):
        if (boundary is None) == (rows is None):
            raise TypeError("give either dense boundary matrices or sparse rows")
        self.ring = ring
        self.basis = basis
        if rows is None:
            rows = {}
            for d, M in boundary.items():
                n_rows, n_cols = len(self.basis_of(d - 1)), len(self.basis_of(d))
                if len(M) != n_rows or any(len(row) != n_cols for row in M):
                    raise NotAComplex(f"boundary from degree {d} is not {n_rows}x{n_cols}")
                rows[d] = sparse_rows(M)
        self.rows = rows
        self.check_square_zero()

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

    def dump(self) -> str:
        """Human-readable matrix dump with chord labels, for goldens."""
        lines = []
        for d in sorted(self.rows, reverse=True):
            rows = self.basis_of(d - 1)
            cols = self.basis_of(d)
            if not cols:
                continue
            lines.append(f"degree {d}: columns [{' '.join(cols)}] rows [{' '.join(rows)}]")
            M = self.boundary[d]
            for i, row_name in enumerate(rows):
                entries = " ".join(str(M[i][j]) for j in range(len(cols)))
                lines.append(f"  {row_name}: {entries}")
            if not rows:
                lines.append("  (target is zero)")
        return "\n".join(lines)


def _not_an_augmentation(chord: str, constant) -> NotAnAugmentation:
    return NotAnAugmentation(f"eps(d {chord}) = {constant} != 0: not an augmentation")


def _misgraded(dga: DGA, chord: str, name: str, degree: int) -> ValidationFailed:
    """A nonzero entry of d `chord`, from `degree`, on a row chord of another degree."""
    return ValidationFailed(
        f"d {chord} has an s-linear term on {name} of degree "
        f"{dga.grading[name]}, expected {degree - 1}; validate the DGA"
    )


def linearized_differential(dga: DGA, aug: Augmentation) -> ChainComplex:
    """Build (V, d^eps) for a valid DGA and an augmentation of it.

    The column of chord a in the boundary from |a| is the s-linear part of
    d(a) restricted to chords of degree |a| - 1, read at
    :meth:`Augmentation.eps_map`, which checks the augmentation's names
    first.  Each entry is reduced mod m over Z/m.

    The route rule: if the DGA already holds its compiled
    :attr:`DGA.linear_plan`, the complex is the sum of the plan's terms;
    otherwise one pass reads each word of d(a) once and nothing is
    compiled.  In that pass each t or t^-1 flips the sign, and eps
    vanishes off degree 0, so a word of degree-0 chords adds its value to
    eps(d a) and the value of its other letters to each letter's entry, a
    word with one graded letter adds the value of its degree-0 letters to
    that letter's entry, and a word with two drops out.  Entries keep the
    order in which their chords first occur in the words, dropped words
    included, as in `algebra.s_linear_part`, and the plan keeps that order.

    The s^0 part of every conjugated differential is checked to vanish in
    the ring; a failure raises NotAnAugmentation, quoting the unreduced
    constant.  A nonzero entry on a chord of another degree raises
    ValidationFailed.  Degrees are visited in increasing order, columns in
    basis order, and a column's constant before its entries, so the first
    failure met is the one raised, on either route.
    """
    eps = aug.eps_map(dga)
    m = aug.ring.modulus or 0
    rows: dict[int, dict[int, dict[int, int]]] = {}

    # The cached plan sits in vars(dga) once compiled; reading the
    # attribute here would compile it for a one-shot job.
    if "linear_plan" in vars(dga):
        for d, plan in dga.linear_plan.items():
            rows[d] = boundary = {}
            for j, chord, constant_terms, entries in plan:
                constant = 0
                for c, names in constant_terms:
                    for x in names:
                        c *= eps[x]
                    constant += c
                if constant % m if m else constant:
                    raise _not_an_augmentation(chord, constant)
                for i, terms, misgraded in entries:
                    value = 0
                    for c, names in terms:
                        for x in names:
                            c *= eps[x]
                        value += c
                    if m:
                        value %= m
                    if not value:
                        continue
                    if misgraded:
                        raise _misgraded(dga, chord, misgraded, d)
                    row = boundary.get(i)
                    if row is None:
                        boundary[i] = {j: value}
                    else:
                        row[j] = value
        return ChainComplex(aug.ring, dga.basis, rows=rows)

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

    return ChainComplex(aug.ring, basis, rows=rows)
