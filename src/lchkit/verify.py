"""Structural checks on linearized homology.

These operations package the theorems that constrain what linearized
homology can look like: Sabloff duality, the rigidity of knots with all
chords in nonnegative degree, the obstruction to a filling inducing an
augmentation, torsion evidence scans over several primes, and additivity
under connected sums away from degrees 0 and 1.  Each one-point check
reads LCH through `_lch`: integral homology over Z, and over a field the
dimensions as free ranks, so each theorem is stated once for every ring,
and each report keeps the homology it read.  A filling forces LCH to be
the filling group (Z in degree 1, Z^{tb+1} in degree 0): positivity is
that equality, and so is the obstruction, which also fires on even tb and
on odd tb < -1.  A scan validates its DGA once, before it enumerates
anything, and then reads every point of its grids from the grid's sums,
with no check per point and no complex: a boundary its grid fills in one
row or none is read by rule, only the rest are eliminated, and homology
is assembled once per distinct vector of boundary invariants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .augment import (
    Augmentation,
    enumerate_augmentations,
    enumerate_augmentations_bounded,
)
from .dga import DGA, connected_sum_augmented, euler_tb, validate
from .errors import FieldRequired, RingMismatch, ValidationFailed
from .homology import (
    GradedHomology,
    HomologyGroup,
    dims_from_ranks,
    field_homology,
    homology_from_factors,
    integral_homology,
    invariant_factors,
)
from .linearize import grid_rows, linearized_differential, linearized_grid
from .matrices import diagonal_of_row, rank_of_row, rank_of_rows
from .rings import ZZ, RingDesc, Zmod


def _lch(dga: DGA, aug: Augmentation) -> GradedHomology:
    """LCH at aug: integral homology over Z, the dimensions as free ranks over
    a field; any other ring is refused before anything is linearized."""
    if aug.ring == ZZ:
        return integral_homology(linearized_differential(dga, aug))
    if not aug.ring.is_field:
        raise FieldRequired(f"Z or a field is required, got {aug.ring}")
    dims = field_homology(linearized_differential(dga, aug), aug.ring)
    return GradedHomology({d: HomologyGroup(free_rank=n) for d, n in dims.items()})


def _free_ranks(homology: GradedHomology) -> dict[int, int]:
    """Free rank per degree, nonzero only: the dimensions over a field, or over Q for Z."""
    return {d: g.free_rank for d, g in homology.groups.items() if g.free_rank}


def _filling_homology(tb: int) -> GradedHomology:
    """The LCH a filling forces: Z in degree 1, plus Z^{tb+1} in degree 0 when tb + 1 > 0."""
    return GradedHomology(
        {1: HomologyGroup(free_rank=1), 0: HomologyGroup(free_rank=max(tb + 1, 0))}
    )


# ----------------------------------------------------------------------
# Sabloff duality
# ----------------------------------------------------------------------


def _duality_rows(homology: GradedHomology):
    """(name, value, dual name, dual value, holds): the ranks of degrees i and
    -i, for i = 0, 1 and each |degree| of nonzero rank, then the torsion of
    degrees k >= 0 and -k-1 wherever either has some; see `DualityReport`."""
    dims = _free_ranks(homology)
    for i in sorted({0, 1, *map(abs, dims)}):
        a, b = dims.get(i, 0), dims.get(-i, 0)
        yield f"dim_{i}", a, f"dim_{-i}", b, a - b == (1 if i == 1 else 0)
    for k in sorted({max(d, -d - 1) for d, g in homology.groups.items() if g.torsion}):
        a, b = list(homology.group(k).torsion), list(homology.group(-k - 1).torsion)
        yield f"torsion_{k}", a, f"torsion_{-k - 1}", b, a == b


@dataclass(frozen=True)
class DualityReport:
    """LCH paired degree against degree, over Z or a field.

    Stores the ring's name and the homology read there.  Duality holds when
    the free ranks (dimensions over a field) have dim_i = dim_{-i} for
    i != 1 and dim_1 = dim_{-1} + 1, and the torsion of H_k equals that of
    H_{-k-1} as lists of orders (Sabloff, Geom. Topol. 10, 2006).
    """

    field_name: str
    homology: GradedHomology

    @property
    def dims(self) -> dict[int, int]:
        return _free_ranks(self.homology)

    @property
    def duality_ok(self) -> bool:
        return all(holds for *_, holds in _duality_rows(self.homology))

    @property
    def degree1_excess(self) -> int:
        return self.dims.get(1, 0) - self.dims.get(-1, 0)

    def format_report(self) -> str:
        lines = [f"field {self.field_name}"]
        for name, a, dual, b, holds in _duality_rows(self.homology):
            mark = "" if holds else "  <-- mismatch"
            lines.append(f"{name} = {a}   {dual} = {b}{mark}")
        lines.append("duality holds" if self.duality_ok else "duality FAILS")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        obj = {
            "field": self.field_name,
            "dims": {str(d): v for d, v in sorted(self.dims.items(), reverse=True)},
            "duality_ok": self.duality_ok,
            "degree1_excess": self.degree1_excess,
        }
        torsion = {str(d): list(g.torsion) for d, g in self.homology.groups.items() if g.torsion}
        return {**obj, "torsion": torsion} if torsion else obj


def sabloff_check(dga: DGA, aug: Augmentation) -> DualityReport:
    """Duality of LCH at aug, over Z or a field: see `DualityReport`."""
    return DualityReport(str(aug.ring), _lch(dga, aug))


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
    matches = _lch(dga, aug) == _filling_homology(euler_tb(dga))
    return Positivity.HOLDS if matches else Positivity.FAILS


# ----------------------------------------------------------------------
# filling obstruction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionVerdict:
    """LCH vs. what a filling would force, over Z or a field.

    Stores what was measured: the ring's name, the homology read there and
    the knot's tb.  A filling of a knot with odd tb >= -1 is a once-punctured
    genus-(tb+1)/2 surface, so the Seidel isomorphism forces LCH to be the
    filling group (Ekholm 2012; Ekholm-Honda-Kalman 2016), free of torsion.
    Even tb (no orientable filling) and odd tb < -1 (negative genus) leave
    `expected_filling_dim` None.  `total_dim` is the total free rank.
    `geometric_possible` False is conclusive: the augmentation is not
    induced by a filling; True only means this obstruction is silent.
    """

    field_name: str
    homology: GradedHomology
    tb: int

    @property
    def total_dim(self) -> int:
        return sum(_free_ranks(self.homology).values())

    @property
    def expected_filling_dim(self) -> int | None:
        if self.tb % 2 == 0 or self.tb < -1:
            return None
        return sum(_free_ranks(_filling_homology(self.tb)).values())

    @property
    def geometric_possible(self) -> bool:
        return self.expected_filling_dim is not None and self.homology == _filling_homology(self.tb)

    @property
    def reason(self) -> str:
        tb, genus = self.tb, (self.tb + 1) // 2
        if tb % 2 == 0:
            return (
                f"tb = {tb} is even: 2g - 1 = tb has no integer solution, "
                "so no orientable exact filling exists"
            )
        if genus < 0:
            return f"tb = {tb}: the genus (tb+1)/2 = {genus} is negative, so no exact filling exists"
        if self.geometric_possible:
            return f"dimension matches a once-punctured genus-{genus} filling"
        groups = sorted(self.homology.groups.items(), reverse=True)
        torsion = [f"H_{d} has torsion {list(g.torsion)}" for d, g in groups if g.torsion]
        if torsion:
            return ", ".join(torsion) + "; the Seidel isomorphism forces free LCH"
        if self.total_dim != self.expected_filling_dim:
            return f"total dimension {self.total_dim} != {self.expected_filling_dim} forced by the Seidel isomorphism"
        forced = _free_ranks(_filling_homology(tb))
        return f"dimensions by degree {_free_ranks(self.homology)} != {forced} forced by the Seidel isomorphism"

    def format_report(self) -> str:
        expected = "n/a" if self.expected_filling_dim is None else self.expected_filling_dim
        lines = [
            f"field {self.field_name}",
            f"total LCH dimension: {self.total_dim}",
            f"filling would give:  {expected}",
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
    return ObstructionVerdict(str(aug.ring), _lch(dga, aug), euler_tb(dga))


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


def _read_grid(dga: DGA, ring: RingDesc, grid: list[Augmentation], one_row, of_rows, assemble):
    """Each point of `grid` with `assemble` of its boundaries' invariants by
    degree, assembled once per distinct vector.  A boundary with no slot in
    the grid's layout reads as ``one_row(())``, one whose slots share a row
    as `one_row` of the point's values, and any other as `of_rows` of its rows."""
    layout, points = linearized_grid(dga, ring, grid)
    readers = []
    for slots in layout.values():
        if len({i for i, _ in slots}) > 1:
            readers.append(lambda values, slots=slots: of_rows(grid_rows(slots, values)))
        else:
            readers.append(one_row if slots else lambda values, empty=one_row(()): empty)
    seen: dict[tuple, object] = {}
    for aug, point in zip(grid, points):
        key = tuple([read(values) for read, values in zip(readers, point)])
        value = seen.get(key)
        if value is None:
            value = seen[key] = assemble(dict(zip(layout, key)))
        yield aug, value


def torsion_scan(dga: DGA, primes: list[int], bound: int | None = None) -> TorsionScanReport:
    """Dimension classes over each Z/p, plus integral torsion at |values| <= bound.

    Each prime is scanned once, in order of first occurrence, and every one
    is checked to be prime before any enumeration starts.  Then the DGA is
    validated once: one that `validate` rejects raises ValidationFailed, as
    LCH is read only for a valid DGA.  Every grid (each prime's, then the
    bounded one) is enumerated before any point is linearized, so a bad
    bound or a grid over the enumerators' cap fails before any homology.

    On a valid DGA, (d^eps)^2 = 0 at every augmentation, so every point is
    linearized and read with no check and no complex built: the
    enumerators compile the DGA's plan once for all grids, and
    `linearized_grid` sums it over each grid at once.  A boundary with
    no slot in its grid has rank 0 and no invariant factor, one filled in
    one row only is read by the one-row rule of `matrices`, and only the
    rest go to the elimination kernel (`rank_of_rows` over Z/p,
    `invariant_factors` over Z).  All points of one DGA share their bases,
    so these invariants decide the dims (or the torsion), which are
    assembled once per distinct vector, in a table local to each grid.
    """
    rings = [Zmod(p) for p in dict.fromkeys(primes)]
    for ring in rings:
        if not ring.is_field:
            raise FieldRequired(f"{ring.modulus} is not prime")
    if not validate(dga).ok:
        raise ValidationFailed(f"torsion_scan needs a valid DGA; {dga.name} fails validation")
    grids = [enumerate_augmentations(dga, ring) for ring in rings]
    bounded = [] if bound is None else enumerate_augmentations_bounded(dga, bound)
    prime_classes: dict[int, tuple[DimClass, ...]] = {}
    for ring, grid in zip(rings, grids):
        p = ring.modulus
        groups: dict[tuple, list[Augmentation]] = {}
        for aug, dims in _read_grid(
            dga, ring, grid, lambda values: rank_of_row(values, p), lambda rows: rank_of_rows(rows, p),
            lambda ranks: tuple(sorted(dims_from_ranks(dga.basis, ranks).items())),
        ):
            groups.setdefault(dims, []).append(aug)
        prime_classes[p] = tuple(
            DimClass(dims=key, count=len(augs), example=augs[0].literal())
            for key, augs in sorted(groups.items())
        )

    integral: list[tuple[str, tuple]] = []
    torsion_free = 0
    for aug, torsion in _read_grid(
        dga, ZZ, bounded, lambda values: tuple(diagonal_of_row(values)),
        lambda rows: tuple(invariant_factors(rows)),
        lambda factors: tuple((d, g.torsion) for d, g in sorted(
            homology_from_factors(dga.basis, factors).groups.items()) if g.torsion),
    ):
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
    H_sum, H1, H2 = _lch(summed, combined), _lch(d1, aug1), _lch(d2, aug2)
    degrees = set(H_sum.degrees()) | set(H1.degrees()) | set(H2.degrees())
    for d in degrees:
        if d in (0, 1):
            continue
        if H_sum.group(d) != H1.group(d).direct_sum(H2.group(d)):
            return False
    return True
