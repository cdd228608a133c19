"""Augmentations: verification, exhaustive enumeration, tangent spaces.

An augmentation is a unital ring map from the DGA to a commutative ring R
that vanishes on chords of nonzero degree, sends t to -1, and annihilates
the differential.  It is determined by its values on degree-0 chords, so
enumeration is a finite search over those coordinates.  Each differential
with a constant term (a word of degree-0 chords and t) imposes a
constraint: on a validly graded DGA only the degree-1 ones, on a misgraded
DGA any, so every enumerated point passes `is_augmentation`.  Both the
check and the enumeration read them through `linearize.constraints`,
which compiles the DGA's plan (`linearize` states the word rule); a
scan of a valid DGA then linearizes its grids from that one plan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

from .algebra import CHORD_NAME, symbol_sort_key
from .errors import (
    FieldRequired,
    InvalidParameter,
    InvalidValue,
    ParseError,
    SearchTooLarge,
    UnknownGenerator,
    int_text,
)
from .linearize import constraints, linearized_differential
from .matrices import rank_of_rows
from .rings import ZZ, RingDesc, Zmod

# `DGA` in annotations is lchkit.dga.DGA.  It is not imported: dga imports
# this module, and imports in the model layer run one way, dga -> augment
# -> linearize.

DEFAULT_SEARCH_CAP = 10**8


def search_cap_from_env() -> int:
    """Enumeration cap, overridable via the LCH_SEARCH_CAP variable; `_enumerate` reads it."""
    raw = os.environ.get("LCH_SEARCH_CAP")
    if raw is None:
        return DEFAULT_SEARCH_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameter(f"LCH_SEARCH_CAP={raw!r} is not an integer") from None


@dataclass(frozen=True)
class Augmentation:
    """Ring descriptor plus values on degree-0 chords; t always maps to -1.

    Values are stored canonically (ring-coerced, zeros dropped); chords of
    nonzero degree implicitly map to 0.
    """

    ring: RingDesc
    values: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for name, value in self.values.items():
            v = self.ring.coerce(value)
            if not self.ring.is_zero(v):
                cleaned[name] = v
        object.__setattr__(self, "values", cleaned)

    @classmethod
    def _canonical(cls, ring: RingDesc, values: dict[str, object]) -> "Augmentation":
        """An augmentation from values already canonical in `ring`, zeros dropped.

        Skips `__post_init__`; the enumerator builds its points this way.
        """
        aug = object.__new__(cls)
        object.__setattr__(aug, "ring", ring)
        object.__setattr__(aug, "values", values)
        return aug

    @property
    def t_value(self):
        return self.ring.coerce(-1)

    def value_of(self, chord: str):
        return self.values.get(chord, self.ring.coerce(0))

    def eps_map(self, dga: DGA) -> dict[str, object]:
        """Full symbol->value map for evaluation against a specific DGA.

        A copy of :attr:`DGA.eps_template` with the values written over it.
        Unless every assigned name is a degree-0 chord, each name is checked
        in turn first, so the first bad one raises UnknownGenerator or
        InvalidValue.
        """
        if not self.values.keys() <= dga.degree_zero_chords:
            grading = dga.grading
            for name, value in self.values.items():
                if name not in grading:
                    raise UnknownGenerator(f"augmentation assigns unknown chord {name!r}")
                if grading[name] != 0 and not self.ring.is_zero(value):
                    raise InvalidValue(
                        f"chord {name!r} has degree {grading[name]}; augmentations vanish there"
                    )
        eps = dga.eps_template.copy()
        eps.update(self.values)
        return eps

    def reduction(self, m: int) -> "Augmentation":
        """Compose with Z -> Z/m (only for integer-valued augmentations)."""
        if self.ring != ZZ:
            raise InvalidValue("reduction applies to integer augmentations")
        return Augmentation(ring=Zmod(m), values=dict(self.values))

    def literal(self) -> str:
        """Text form like 'a1=2, a3=1 @ Z'; zero values are omitted."""
        items = sorted(self.values.items(), key=lambda kv: symbol_sort_key(kv[0]))
        body = ", ".join(f"{k}={v}" for k, v in items)
        return f"{body} @ {self.ring}" if body else f"@ {self.ring}"

    def to_json_obj(self) -> dict:
        """Ring and values as strings; values come in the dict's own order.

        Every `--json` report is dumped with sorted keys (`cli._emit`), so
        the order here never reaches the output.
        """
        return {
            "ring": str(self.ring),
            "values": {k: str(v) for k, v in self.values.items()},
        }


def parse_augmentation_literal(text: str, default_ring: RingDesc | None = None) -> Augmentation:
    """Parse 'a1=2, a2=-1 @ Z/5'.  The '@ ring' part is optional."""
    text = text.strip()
    ring = default_ring
    if "@" in text:
        body, _, ring_text = text.rpartition("@")
        parsed_ring = RingDesc.parse(ring_text)
        if ring is not None and parsed_ring != ring:
            raise ParseError(
                f"augmentation literal says ring {parsed_ring}, context says {ring}"
            )
        ring = parsed_ring
        text = body.strip()
    if ring is None:
        ring = ZZ
    values: dict[str, object] = {}
    if text:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ParseError(f"bad assignment {chunk!r} in augmentation literal")
            name, _, raw = chunk.partition("=")
            name = name.strip()
            raw = raw.strip()
            if not CHORD_NAME.fullmatch(name):
                raise ParseError(f"bad chord name {name!r} in augmentation literal")
            try:
                value: object = Fraction(raw) if "/" in raw else int(raw)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad value {raw!r} for {name!r}") from None
            if name in values:
                raise ParseError(f"chord {name!r} assigned twice")
            values[name] = value
    return Augmentation(ring=ring, values=values)


def is_augmentation(dga: DGA, aug: Augmentation) -> bool:
    """True iff evaluating every differential under aug gives 0 in the ring.

    All chords are checked, by :func:`linearize.constraints`, although only
    degree-1 differentials can fail on a validly graded DGA.
    """
    eps = aug.eps_map(dga)
    return all(
        aug.ring.is_zero(sum(c * prod(eps[x] for x in names) for c, names in terms))
        for terms in constraints(dga)
    )


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def _enumerate(dga: DGA, ring: RingDesc, domain: range) -> list[Augmentation]:
    """Depth-first walk of the grid `domain` ^ (degree-0 chords), constraint-first.

    Each list of :func:`linearize.constraints` is a constraint.  The walk
    order puts the constraints first, fewest distinct variables first (a
    stable sort of the constraints in plan order): each
    constraint adds its variables not yet placed, in declaration order, and
    the variables no constraint names come last, in declaration order.  Each
    constraint fires at the depth of its last variable x in that order,
    where every one of its terms is summed in place and reduced mod m (over
    Z, tested against 0); a pruned value is never descended.  If no term of
    a constraint holds x twice, it reads a1*x + a0 with a1 and a0 summed
    from the assigned prefix, and x is solved instead of iterated: over Z/m
    with a1 a unit, only -a0/a1 mod m is tried; over Z with a1 != 0, only
    the exact quotient -a0/a1, and only if it lies in `domain`; over Z with
    a1 = 0 and a0 != 0, nothing.  Otherwise every value of `domain` is
    tried.  Of several such constraints at one depth, the first that narrows
    decides.  The solver only narrows which values are tried: every
    constraint at the depth is still checked on each of them.

    The walk keeps its own stack, one position per depth, so a grid of any
    number of chords fits.  Each point is kept as its value tuple in
    declaration order, and the points are sorted by it at the end, which is
    the lexicographic order of the grid.  The values come from `domain`, so
    they are canonical already, and each point is built without coercion.
    """
    variables = dga.chords_of_degree(0)
    # The domain stays a range until the cap check passes; its length is
    # read from its ends, since len() fails on ranges beyond sys.maxsize.
    # The grid size is not printed: it can have more digits than str() takes.
    values = domain.stop - domain.start
    cap = search_cap_from_env()
    if values ** len(variables) > cap:
        raise SearchTooLarge(f"{int_text(values)}^{len(variables)} assignments exceeds cap {cap}")
    declared = {name: i for i, name in enumerate(variables)}
    walk = [
        (sorted({x for _, names in terms for x in names}, key=declared.__getitem__), terms)
        for terms in constraints(dga)
    ]
    walk.sort(key=lambda constraint: len(constraint[0]))
    order = list(dict.fromkeys([x for names, _ in walk for x in names] + variables))
    depth_of = {name: i for i, name in enumerate(order)}
    # Constant constraints (depth -1) are checked before any variable.
    by_depth: dict[int, list] = {}
    solvers: dict[int, list] = {}
    for named, terms in walk:
        depth = max((depth_of[x] for x in named), default=-1)
        by_depth.setdefault(depth, []).append(terms)
        if depth < 0:
            continue
        x = order[depth]
        if all(names.count(x) < 2 for _, names in terms):
            linear = [(c, tuple(y for y in names if y != x)) for c, names in terms if x in names]
            rest = [(c, names) for c, names in terms if x not in names]
            solvers.setdefault(depth, []).append((linear, rest))

    m = ring.modulus or 0
    for terms in by_depth.get(-1, ()):
        total = sum(c for c, _ in terms)
        if total % m if m else total:
            return []
    canonical = Augmentation._canonical
    if not variables:
        return [canonical(ring, {})]

    assignment = dict.fromkeys(variables, 0)

    def candidates(depth: int):
        """The values tried at `depth`: one solved value, none, or `domain`."""
        for linear, rest in solvers.get(depth, ()):
            a1 = a0 = 0
            for c, names in linear:
                for y in names:
                    c *= assignment[y]
                a1 += c
            for c, names in rest:
                for y in names:
                    c *= assignment[y]
                a0 += c
            if m:
                if gcd(a1, m) == 1:
                    return (-a0 * pow(a1, -1, m) % m,)
            elif a1:
                x, r = divmod(-a0, a1)
                return (x,) if not r and x in domain else ()
            elif a0:
                return ()
        return domain

    points: list[tuple] = []
    last = len(order) - 1
    # One iterator per assigned depth: its position is where the walk
    # resumes at that depth when the deeper ones are exhausted.
    levels = [iter(candidates(0))]
    while levels:
        depth = len(levels) - 1
        name = order[depth]
        checks = by_depth.get(depth, ())
        for value in levels[-1]:
            assignment[name] = value
            for terms in checks:
                total = 0
                for c, names in terms:
                    for x in names:
                        c *= assignment[x]
                    total += c
                if total % m if m else total:
                    break
            else:
                if depth < last:
                    # Go one depth deeper; this depth resumes after `value`.
                    levels.append(iter(candidates(depth + 1)))
                    break
                points.append(tuple(assignment.values()))
        else:
            levels.pop()
    points.sort()
    return [
        canonical(ring, {name: v for name, v in zip(variables, point) if v})
        for point in points
    ]


def enumerate_augmentations(dga: DGA, ring: RingDesc) -> list[Augmentation]:
    """All augmentations over a finite ring Z/m, in lexicographic value order.

    The search is a depth-first walk of the value grid that visits the
    variables of the constraints first, fewest variables first,
    and prunes with each constraint as soon as its variables are assigned.
    A constraint linear in its last variable, with a unit coefficient,
    solves that variable, so only one value of it is tried.  The points are
    sorted at the end, so the output order is the same as filtering the
    full grid in lexicographic order.  A grid of more than
    `search_cap_from_env()` points raises SearchTooLarge before it is walked.
    """
    if not ring.is_finite:
        raise InvalidParameter(f"enumeration needs a finite ring, got {ring}")
    return _enumerate(dga, ring, ring.elements())


def enumerate_augmentations_bounded(dga: DGA, bound: int) -> list[Augmentation]:
    """All integer augmentations with every value in [-bound, bound].

    The walk is that of `enumerate_augmentations`; over Z a constraint
    linear in its last variable tries only the exact quotient, if it lies
    in the window, and no value if the coefficient is 0 and the rest is not.
    The window's grid is held to the same `search_cap_from_env()` budget.
    """
    if bound < 0:
        raise InvalidParameter("bound must be >= 0")
    return _enumerate(dga, ZZ, range(-bound, bound + 1))


# ----------------------------------------------------------------------
# tangent space of the augmentation variety
# ----------------------------------------------------------------------


def tangent_space_dim(dga: DGA, aug: Augmentation) -> int:
    """Dimension of the Zariski tangent space at a field-valued point.

    Equals dim A_0 minus the rank of the linearized boundary block from
    degree-1 chords to degree-0 chords over the field.  A point off the
    variety raises NotAnAugmentation from the linearization.
    """
    if not aug.ring.is_field:
        raise FieldRequired(f"tangent space needs a field, got {aug.ring}")
    C = linearized_differential(dga, aug)
    return len(dga.chords_of_degree(0)) - rank_of_rows(C.rows_of(1), aug.ring.modulus)
