"""Structural checks on linearized homology.

These operations package the theorems that constrain what linearized
homology can look like: Sabloff duality over fields, the rigidity of
knots with all chords in nonnegative degree, the dimension obstruction to
a filling inducing an augmentation, torsion evidence scans over several
primes, and additivity of homology under connected sums away from
degrees 0 and 1.  Each report keeps what was measured and reads its
verdict from one rule.  The filling group (Z in degree 1, Z^{tb+1} in
degree 0) is one helper: positivity compares LCH with it, and the
obstruction, which fires outright on even tb and on odd tb < -1, needs
the total dimension to be its rank tb + 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .augment import (
    Augmentation,
    enumerate_augmentations,
    enumerate_augmentations_bounded,
)
from .dga import DGA, connected_sum_augmented
from .errors import FieldRequired, RingMismatch
from .homology import GradedHomology, HomologyGroup, field_homology, integral_homology
from .linearize import linearized_differential
from .rings import ZZ, Zmod


def _field_dims(dga: DGA, aug: Augmentation) -> dict[int, int]:
    if not aug.ring.is_field:
        raise FieldRequired(f"a field augmentation is required, got {aug.ring}")
    complex_ = linearized_differential(dga, aug)
    return field_homology(complex_, aug.ring)


def _filling_homology(tb: int) -> GradedHomology:
    """The LCH a filling forces: Z in degree 1, plus Z^{tb+1} in degree 0 when tb + 1 > 0."""
    return GradedHomology(
        {1: HomologyGroup(free_rank=1), 0: HomologyGroup(free_rank=max(tb + 1, 0))}
    )


# ----------------------------------------------------------------------
# Sabloff duality
# ----------------------------------------------------------------------


def _duality_rows(dims: dict[int, int]):
    """(i, dim_i, dim_{-i}, holds) for i = 0, 1 and each |degree| that occurs;
    duality wants dim_i - dim_{-i} to be 1 at i = 1 and 0 at every other i."""
    for i in sorted({0, 1, *(abs(d) for d in dims)}):
        a, b = dims.get(i, 0), dims.get(-i, 0)
        yield i, a, b, a - b == (1 if i == 1 else 0)


@dataclass(frozen=True)
class DualityReport:
    """Field dimensions of LCH paired degree against minus-degree.

    Duality holds when dim_i = dim_{-i} for every i != 1 and the degree-1
    dimension exceeds the degree minus-1 dimension by exactly one.
    """

    field_name: str
    dims: dict[int, int]

    @property
    def pairs(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((i, a, b) for i, a, b, _ in _duality_rows(self.dims))

    @property
    def duality_ok(self) -> bool:
        return all(holds for *_, holds in _duality_rows(self.dims))

    @property
    def degree1_excess(self) -> int:
        return self.dims.get(1, 0) - self.dims.get(-1, 0)

    def format_report(self) -> str:
        lines = [f"field {self.field_name}"]
        for i, a, b, holds in _duality_rows(self.dims):
            mark = "" if holds else "  <-- mismatch"
            lines.append(f"dim_{i} = {a}   dim_{-i} = {b}{mark}")
        lines.append("duality holds" if self.duality_ok else "duality FAILS")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "field": self.field_name,
            "dims": {str(d): v for d, v in sorted(self.dims.items(), reverse=True)},
            "duality_ok": self.duality_ok,
            "degree1_excess": self.degree1_excess,
        }


def sabloff_check(dga: DGA, aug: Augmentation) -> DualityReport:
    """Dimension symmetry dim_i = dim_{-i} (i != 1), dim_1 = dim_{-1} + 1."""
    return DualityReport(field_name=str(aug.ring), dims=_field_dims(dga, aug))


# ----------------------------------------------------------------------
# positivity
# ----------------------------------------------------------------------


class Positivity(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not applicable"


def positivity_check(dga: DGA, aug: Augmentation) -> Positivity:
    """For all-nonnegative gradings, LCH must be the filling group:
    Z in degree 1 and Z^{tb+1} in degree 0, nothing else.

    Returns NOT_APPLICABLE when some chord has negative grading.  The
    augmentation must be integer-valued (the statement is integral).
    """
    if aug.ring != ZZ:
        raise RingMismatch("positivity_check is an integral statement; use a Z augmentation")
    if any(deg < 0 for _, deg in dga.chords):
        return Positivity.NOT_APPLICABLE
    homology = integral_homology(linearized_differential(dga, aug))
    matches = homology == _filling_homology(dga.tb_value())
    return Positivity.HOLDS if matches else Positivity.FAILS


# ----------------------------------------------------------------------
# filling obstruction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionVerdict:
    """Total field dimension of LCH vs. what a filling would force.

    A filling of a knot with odd tb >= -1 is a once-punctured
    genus-(tb+1)/2 surface, so the Seidel isomorphism forces the filling
    group, and the dimensions must add up to its rank tb + 2.  Even tb (no
    orientable filling) and odd tb < -1 (negative genus) leave
    `expected_filling_dim` None.  `geometric_possible` False is
    conclusive; True only means this obstruction is silent.
    """

    field_name: str
    total_dim: int
    expected_filling_dim: int | None
    geometric_possible: bool
    reason: str

    def format_report(self) -> str:
        lines = [
            f"field {self.field_name}",
            f"total LCH dimension: {self.total_dim}",
            f"filling would give:  {self.expected_filling_dim}",
            ("no obstruction (filling not excluded)" if self.geometric_possible else f"NOT geometric: {self.reason}"),
        ]
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "field": self.field_name,
            "total_dim": self.total_dim,
            "expected_filling_dim": self.expected_filling_dim,
            "geometric_possible": self.geometric_possible,
            "reason": self.reason,
        }


def filling_obstruction(dga: DGA, aug: Augmentation) -> ObstructionVerdict:
    total = sum(_field_dims(dga, aug).values())
    tb = dga.tb_value()
    genus, expected = (tb + 1) // 2, None
    if tb % 2 == 0:
        reason = (
            f"tb = {tb} is even: 2g - 1 = tb has no integer solution, "
            "so no orientable exact filling exists"
        )
    elif genus < 0:
        reason = f"tb = {tb}: the genus (tb+1)/2 = {genus} is negative, so no exact filling exists"
    else:
        expected = sum(g.free_rank for g in _filling_homology(tb).groups.values())
        reason = (
            f"dimension matches a once-punctured genus-{genus} filling"
            if total == expected
            else f"total dimension {total} != {expected} forced by the Seidel isomorphism"
        )
    return ObstructionVerdict(
        field_name=str(aug.ring),
        total_dim=total,
        expected_filling_dim=expected,
        geometric_possible=total == expected,
        reason=reason,
    )


# ----------------------------------------------------------------------
# torsion scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DimClass:
    dims: tuple[tuple[int, int], ...]  # sorted (degree, dim) pairs
    count: int
    example: str  # literal of one augmentation in the class


@dataclass(frozen=True)
class TorsionScanReport:
    """Evidence table: mod-p dimension classes and bounded integral torsion.

    A prime is flagged when different Z/p augmentations give different
    dimension vectors -- the signature that integral torsion can hide
    behind field-level jumps.
    """

    dga_name: str
    prime_classes: dict[int, tuple[DimClass, ...]]
    bound: int | None
    integral_torsion: tuple[tuple[str, tuple[tuple[int, tuple[int, ...]], ...]], ...]
    torsion_free_count: int

    @property
    def flagged_primes(self) -> tuple[int, ...]:
        return tuple(p for p, classes in self.prime_classes.items() if len(classes) > 1)

    def format_report(self) -> str:
        lines = [f"torsion scan: {self.dga_name}"]
        for p in sorted(self.prime_classes):
            classes = self.prime_classes[p]
            flag = "  ** dimension jump **" if p in self.flagged_primes else ""
            lines.append(f"mod {p}: {len(classes)} dimension class(es){flag}")
            for cls in classes:
                dims = ", ".join(f"{d}:{v}" for d, v in cls.dims)
                lines.append(f"  {{{dims}}} x{cls.count}   e.g. {cls.example}")
        if self.bound is not None:
            lines.append(f"integer augmentations with |values| <= {self.bound}:")
            lines.append(f"  torsion-free: {self.torsion_free_count}")
            for literal, torsion in self.integral_torsion:
                parts = "; ".join(
                    f"H_{d} torsion {list(t)}" for d, t in torsion
                )
                lines.append(f"  {literal}: {parts}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "dga": self.dga_name,
            "primes": {
                str(p): [
                    {"dims": {str(d): v for d, v in cls.dims}, "count": cls.count, "example": cls.example}
                    for cls in classes
                ]
                for p, classes in self.prime_classes.items()
            },
            "flagged_primes": list(self.flagged_primes),
            "bound": self.bound,
            "integral_torsion": [
                {"augmentation": lit, "torsion": {str(d): list(t) for d, t in tors}}
                for lit, tors in self.integral_torsion
            ],
            "torsion_free_count": self.torsion_free_count,
        }


def torsion_scan(
    dga: DGA,
    primes: list[int],
    bound: int | None = None,
    cap: int | None = None,
) -> TorsionScanReport:
    """Dimension classes over each Z/p, plus integral torsion at |values| <= bound.

    Each prime is scanned once, in order of first occurrence, and every one
    is checked to be prime before any enumeration starts.  Every grid (each
    prime's, then the bounded one) is enumerated before any point is
    linearized, so a bad bound or an oversized grid fails before any homology.
    """
    rings = [Zmod(p) for p in dict.fromkeys(primes)]
    for ring in rings:
        if not ring.is_field:
            raise FieldRequired(f"{ring.modulus} is not prime")
    grids = [enumerate_augmentations(dga, ring, cap=cap) for ring in rings]
    bounded = [] if bound is None else enumerate_augmentations_bounded(dga, bound, cap=cap)
    prime_classes: dict[int, tuple[DimClass, ...]] = {}
    for ring, grid in zip(rings, grids):
        groups: dict[tuple, list[Augmentation]] = {}
        for aug in grid:
            dims = _field_dims(dga, aug)
            key = tuple(sorted(dims.items()))
            groups.setdefault(key, []).append(aug)
        prime_classes[ring.modulus] = tuple(
            DimClass(dims=key, count=len(augs), example=augs[0].literal())
            for key, augs in sorted(groups.items())
        )

    integral: list[tuple[str, tuple]] = []
    torsion_free = 0
    for aug in bounded:
        homology = integral_homology(linearized_differential(dga, aug))
        torsion = tuple(
            (d, homology.group(d).torsion)
            for d in homology.degrees()
            if homology.group(d).torsion
        )
        if torsion:
            integral.append((aug.literal(), torsion))
        else:
            torsion_free += 1
    return TorsionScanReport(
        dga_name=dga.name,
        prime_classes=prime_classes,
        bound=bound,
        integral_torsion=tuple(integral),
        torsion_free_count=torsion_free,
    )


# ----------------------------------------------------------------------
# connected-sum additivity
# ----------------------------------------------------------------------


def connected_sum_additivity_check(
    d1: DGA, aug1: Augmentation, d2: DGA, aug2: Augmentation
) -> bool:
    """Compare LCH of the sum with the degreewise direct sum, away from 0, 1.

    Both augmentations must be integer-valued over the same ring; the
    comparison is integral (free rank and invariant factors).
    """
    if aug1.ring != aug2.ring:
        raise RingMismatch(f"rings differ: {aug1.ring} vs {aug2.ring}")
    if aug1.ring != ZZ:
        raise RingMismatch("additivity is compared integrally; use Z augmentations")
    summed, combined = connected_sum_augmented(d1, aug1, d2, aug2)
    H_sum = integral_homology(linearized_differential(summed, combined))
    H1 = integral_homology(linearized_differential(d1, aug1))
    H2 = integral_homology(linearized_differential(d2, aug2))
    degrees = set(H_sum.degrees()) | set(H1.degrees()) | set(H2.degrees())
    for d in degrees:
        if d in (0, 1):
            continue
        if H_sum.group(d) != H1.group(d).direct_sum(H2.group(d)):
            return False
    return True
