"""Linearized chain complex of a DGA at an augmentation.

Conjugating the differential by x -> s*x + eps(x) on chords (and t -> -1)
and keeping the first-order part in s turns the free module on the chords
into a finite chain complex (V, d^eps).  The constant part must vanish on
every chord -- that is exactly the augmentation equation, and it is
asserted here, so a non-augmentation cannot slip through.

Everything that depends on the DGA alone (the bases, the row and column
of each entry, the compiled terms and the grading checks) comes from
:attr:`DGA.linear_plan`, built once per DGA; linearizing at one more
augmentation only sums terms.  The boundaries are built and stored as
sparse rows, which the d^2 check and the elimination kernel read
directly; the dense matrices are views for printing and for callers that
want them.
"""

from __future__ import annotations

from functools import cached_property

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


def linearized_differential(dga: DGA, aug: Augmentation) -> ChainComplex:
    """Build (V, d^eps) for a valid DGA and an augmentation of it.

    The column of chord a in the boundary from |a| is the s-linear part of
    d(a) restricted to chords of degree |a| - 1, evaluated by the DGA's
    :attr:`~DGA.linear_plan` at :meth:`Augmentation.eps_map`, which checks
    the augmentation's names first.  Each entry's terms are summed here
    and reduced mod m over Z/m.  The s^0 part of every conjugated
    differential is checked to vanish in the ring; a failure raises
    NotAnAugmentation, quoting the unreduced constant.  A nonzero entry on
    a chord of another degree raises ValidationFailed.  Degrees are visited
    in increasing order and columns in basis order, so the first failure
    met is the one raised.
    """
    basis, columns = dga.linear_plan
    eps = aug.eps_map(dga)
    m = aug.ring.modulus or 0

    rows: dict[int, dict[int, dict[int, int]]] = {}
    for d, plan in columns.items():
        rows[d] = boundary = {}
        for j, chord, constant_terms, entries in plan:
            constant = 0
            for c, names in constant_terms:
                for x in names:
                    c *= eps[x]
                constant += c
            if constant % m if m else constant:
                raise NotAnAugmentation(
                    f"eps(d {chord}) = {constant} != 0: not an augmentation"
                )
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
                    raise ValidationFailed(misgraded)
                row = boundary.get(i)
                if row is None:
                    boundary[i] = {j: value}
                else:
                    row[j] = value

    return ChainComplex(aug.ring, basis, rows=rows)
