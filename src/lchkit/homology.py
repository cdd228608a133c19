"""Exact homology of integer chain complexes via Smith normal form.

Every integral invariant here is read off from invariant factors alone.
ker M_d is a direct summand of C_d (its quotient embeds in the free group
C_{d-1}), so H_d = Z^(n_d - rk M_d - rk M_{d+1}) plus one Z/f for each
invariant factor f > 1 of M_{d+1}.  The mod-2 Bockstein
H_d(Z/2) -> H_{d-1}(Z/2) is read from that integral homology: its rank
is #{orders f of H_{d-1}(Z) with f = 2 mod 4}.  Groups are built from two
answers of `matrices`, straight from a complex's sparse rows: the Smith
diagonal over Z (`diagonal_of_rows`, which `invariant_factors`, the one
Smith reader, puts in divisibility order) and the rank over a field
(`rank_of_rows`).  `integral_homology` and `field_homology` take two
steps: the invariants of a complex's stored boundaries by degree, then
the groups or dims assembled from the bases and those invariants alone
(`homology_from_factors`, `dims_from_ranks`), which a torsion scan calls
once per distinct vector of its grid points' invariants, with no complex.
A universal-coefficient consistency check rounds out the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import FieldRequired, NotAComplex, RingMismatch
from .linearize import ChainComplex
from .matrices import diagonal_of_rows, rank_of_rows
from .rings import ZZ, RingDesc


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------


def _divisibility_chain(diagonal: list[int]) -> list[int]:
    """Invariant factors of diag(d_1, ..., d_r), d_i > 0, by gcd/lcm swaps."""
    if len(diagonal) < 2:
        return diagonal
    rest = [d for d in diagonal if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            a, b = rest[i], rest[j]
            g = gcd(a, b)
            rest[i], rest[j] = g, a // g * b
    return [1] * (len(diagonal) - len(rest)) + rest


def invariant_factors(rows: dict[int, dict[int, int]]) -> list[int]:
    """Nonzero diagonal entries of the Smith form of an integer matrix given
    as sparse rows ``{i: {j: x}}``, in divisibility order, by the sparse
    elimination of `matrices.diagonal_of_rows`, which keeps no transforms."""
    return _divisibility_chain(diagonal_of_rows(rows))


# ----------------------------------------------------------------------
# homology groups
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group: free rank + invariant factors.

    Torsion is stored in invariant-factor form d1 | d2 | ... with each
    d_i >= 2, so equality of groups is equality of these fields.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError(f"free rank must be >= 0: {self.free_rank}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if a < 2 or b % a:
                raise ValueError(f"not a divisibility chain: {self.torsion}")
        if self.torsion and self.torsion[0] < 2:
            raise ValueError(f"invariant factors must be >= 2: {self.torsion}")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def p_torsion_count(self, p: int) -> int:
        return sum(1 for d in self.torsion if d % p == 0)

    def direct_sum(self, other: "HomologyGroup") -> "HomologyGroup":
        return from_orders(
            [0] * (self.free_rank + other.free_rank)
            + list(self.torsion)
            + list(other.torsion)
        )

    def __str__(self) -> str:
        pieces = []
        if self.free_rank == 1:
            pieces.append("Z")
        elif self.free_rank > 1:
            pieces.append(f"Z^{self.free_rank}")
        pieces.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(pieces) if pieces else "0"

    def to_json_obj(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


TRIVIAL_GROUP = HomologyGroup()


def from_orders(orders) -> HomologyGroup:
    """Group from a list of cyclic orders (0 = Z), in canonical form."""
    orders = [abs(d) for d in orders]
    factors = _divisibility_chain([d for d in orders if d])
    return HomologyGroup(
        free_rank=orders.count(0), torsion=tuple(f for f in factors if f > 1)
    )


@dataclass(frozen=True)
class GradedHomology:
    """Map degree -> HomologyGroup, trivial groups omitted."""

    groups: dict[int, HomologyGroup] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "groups",
            {d: g for d, g in self.groups.items() if not g.is_trivial()},
        )

    def group(self, degree: int) -> HomologyGroup:
        return self.groups.get(degree, TRIVIAL_GROUP)

    def degrees(self) -> list[int]:
        return sorted(self.groups)

    def euler_characteristic(self) -> int:
        return sum(
            (g.free_rank if d % 2 == 0 else -g.free_rank)
            for d, g in self.groups.items()
        )

    def format_report(self) -> str:
        return "\n".join(
            f"H_{d} = {self.groups[d]}" for d in sorted(self.groups, reverse=True)
        )

    def to_json_obj(self) -> list[dict]:
        return [
            {"degree": d, **self.groups[d].to_json_obj()}
            for d in sorted(self.groups, reverse=True)
        ]

    @staticmethod
    def from_json_obj(obj) -> "GradedHomology":
        return GradedHomology(
            {
                int(item["degree"]): HomologyGroup(
                    int(item["free_rank"]), tuple(int(x) for x in item["torsion"])
                )
                for item in obj
            }
        )


def homology_from_factors(basis: dict[int, list[str]], factors: dict) -> GradedHomology:
    """H_d over Z from the bases and the invariant factors of the boundary
    from each degree d (none where missing), as free rank + torsion.

    C_d / ker M_d embeds in the free group C_{d-1}, so it is free and
    ker M_d is a direct summand of C_d.  Hence
    H_d = Z^(n_d - rk M_d - rk M_{d+1}) + Z/f_1 + ... + Z/f_s, where the
    f_i > 1 are the invariant factors of M_{d+1}; no kernel coordinates
    are needed.  Only nontrivial groups are built.
    """
    groups: dict[int, HomologyGroup] = {}
    for d, names in sorted(basis.items()):
        lower, upper = factors.get(d, ()), factors.get(d + 1, ())
        free_rank = len(names) - len(lower) - len(upper)
        torsion = tuple(f for f in upper if f > 1)
        if free_rank or torsion:
            groups[d] = HomologyGroup(free_rank=free_rank, torsion=torsion)
    return GradedHomology(groups)


def integral_homology(C: ChainComplex) -> GradedHomology:
    """H_d over Z: `homology_from_factors` of the `invariant_factors` of
    each nonempty stored boundary (ones kept, so their count is the rank);
    an empty boundary has none and is not reduced."""
    if C.ring != ZZ:
        raise NotAComplex(f"integral homology needs an integer complex, got {C.ring}")
    factors = {d: tuple(invariant_factors(rows)) if rows else () for d, rows in C.rows.items()}
    return homology_from_factors(C.basis, factors)


def dims_from_ranks(basis: dict[int, list[str]], ranks: dict[int, int]) -> dict[int, int]:
    """Per-degree dimensions n_d - rk M_d - rk M_{d+1} from the bases and the
    rank of the boundary from each degree d (0 where missing); nonzero only."""
    dims: dict[int, int] = {}
    for d, names in sorted(basis.items()):
        dim = len(names) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if dim:
            dims[d] = dim
    return dims


def field_homology(C: ChainComplex, field_ring: RingDesc) -> dict[int, int]:
    """Per-degree dimensions over Q or Z/p, nonzero entries only:
    `dims_from_ranks` of the rank of each stored boundary.

    An integer complex may be tensored with any field; a Z/p complex can
    only be read over Z/p itself.  An empty boundary has rank 0 and is not
    ranked.
    """
    if not field_ring.is_field:
        raise FieldRequired(f"{field_ring} is not a field")
    if C.ring != ZZ and C.ring != field_ring:
        raise RingMismatch(f"complex over {C.ring} cannot be read over {field_ring}")
    modulus = field_ring.modulus
    ranks = {d: rank_of_rows(rows, modulus) if rows else 0 for d, rows in C.rows.items()}
    return dims_from_ranks(C.basis, ranks)


def bockstein(C: ChainComplex) -> dict[int, int]:
    """Ranks of the Bockstein beta: H_d(Z/2) -> H_{d-1}(Z/2), nonzero only.

    beta is the connecting map onto the elements of order at most 2 in
    H_{d-1}(Z), followed by reduction mod 2; a summand Z/f of H_{d-1}(Z)
    contributes rank one exactly when f = 2 mod 4 (Hatcher, Algebraic
    Topology, 3.E).  So the ranks are read from `integral_homology`.
    """
    if C.ring != ZZ:
        raise RingMismatch("the Bockstein lift needs an integer complex")
    groups = sorted(integral_homology(C).groups.items())
    ranks = {d + 1: sum(1 for f in g.torsion if f % 4 == 2) for d, g in groups}
    return {d: r for d, r in ranks.items() if r}


def uct_check(H: GradedHomology, p: int, dims: dict[int, int]) -> bool:
    """Universal coefficients: dims over Z/p vs. integral ranks and torsion.

    dim H_d(Z/p) must equal free_rank(H_d) + #p-divisible factors of H_d
    + #p-divisible factors of H_{d-1}.
    """
    degrees = set(H.degrees()) | set(dims) | {d + 1 for d in H.degrees()}
    for d in degrees:
        expected = (
            H.group(d).free_rank
            + H.group(d).p_torsion_count(p)
            + H.group(d - 1).p_torsion_count(p)
        )
        if dims.get(d, 0) != expected:
            return False
    return True
