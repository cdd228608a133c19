"""Linearized chain complex of a DGA at an augmentation.

Conjugating the differential by x -> s*x + eps(x) on chords (and t -> -1)
and keeping the first-order part in s turns the free module on the chords
into a finite chain complex (V, d^eps).  The constant part must vanish on
every chord -- that is exactly the augmentation equation, and it is
asserted here, so a non-augmentation cannot slip through.
"""

from __future__ import annotations

from dataclasses import dataclass

from .augment import Augmentation
from .dga import DGA, evaluate_terms
from .errors import NotAComplex, NotAnAugmentation, ValidationFailed
from .matrices import matmul
from .rings import RingDesc


@dataclass
class ChainComplex:
    """Per-degree chord bases and boundary matrices over `ring`.

    ``boundary[d]`` maps degree d to degree d-1: shape
    len(basis[d-1]) x len(basis[d]), columns indexed by degree-d chords.
    Matrices are stored for every occupied degree d and for d + 1, so
    compositions are checkable at the ends; other degrees have empty bases
    and zero matrices, and a gap between degrees costs nothing.  Entries
    are exact (ints; Fractions over Q).

    Construction checks d^2 = 0 (raising NotAComplex), so every consumer
    may rely on it without checking again.  Do not mutate the boundaries
    afterwards: the check is not repeated.
    """

    ring: RingDesc
    basis: dict[int, list[str]]
    boundary: dict[int, list[list[int]]]

    def __post_init__(self):
        self.check_square_zero()

    def degrees(self) -> list[int]:
        return sorted(d for d, names in self.basis.items() if names)

    def basis_of(self, degree: int) -> list[str]:
        return self.basis.get(degree, [])

    def matrix(self, degree: int) -> list[list[int]]:
        if degree in self.boundary:
            return self.boundary[degree]
        return [[0] * len(self.basis_of(degree)) for _ in self.basis_of(degree - 1)]

    def check_square_zero(self) -> None:
        """Raise NotAComplex unless consecutive boundaries compose to zero."""
        for d in self.boundary:
            A = self.matrix(d + 1)
            B = self.matrix(d)
            n_mid = len(self.basis_of(d))
            if not B or not A or n_mid == 0:
                continue
            prod = matmul(B, A)
            if any(self.ring.reduce(x) for row in prod for x in row):
                raise NotAComplex(f"boundary squared is nonzero from degree {d + 1}")

    def dump(self) -> str:
        """Human-readable matrix dump with chord labels, for goldens."""
        lines = []
        for d in sorted(self.boundary, reverse=True):
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

    The column of chord a in boundary[|a|] is the s-linear part of d(a)
    restricted to chords of degree |a| - 1.  The s^0 part of every
    conjugated differential is checked to vanish in the ring; a failure
    raises NotAnAugmentation.
    """
    grading = dga.grading
    compiled = dga.compiled
    eps = aug.eps_map(dga)
    ring = aug.ring

    basis: dict[int, list[str]] = {}
    for name, deg in dga.chords:
        basis.setdefault(deg, []).append(name)

    row_index: dict[str, int] = {}
    for names in basis.values():
        for i, name in enumerate(names):
            row_index[name] = i

    boundary: dict[int, list[list[int]]] = {}
    for d in sorted({*basis, *(d + 1 for d in basis)}):
        rows = basis.get(d - 1, [])
        cols = basis.get(d, [])
        M = [[0] * len(cols) for _ in rows]
        for j, chord in enumerate(cols):
            if chord not in compiled:
                continue
            constant_terms, linear = compiled[chord]
            constant = evaluate_terms(constant_terms, eps)
            if not ring.is_zero(constant):
                raise NotAnAugmentation(
                    f"eps(d {chord}) = {constant} != 0: not an augmentation"
                )
            for name, terms in linear:
                value = ring.reduce(evaluate_terms(terms, eps))
                if ring.is_zero(value):
                    continue
                if grading[name] != d - 1:
                    raise ValidationFailed(
                        f"d {chord} has an s-linear term on {name} of degree "
                        f"{grading[name]}, expected {d - 1}; validate the DGA"
                    )
                M[row_index[name]][j] = value
        boundary[d] = M

    return ChainComplex(ring=ring, basis=basis, boundary=boundary)
