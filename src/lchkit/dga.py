"""DGA data model, validation, and built-in constructors.

A DGA here is combinatorial input data: chords with integer gradings, a
basepoint symbol t of degree 0, and a degree -1 differential given on
generators as noncommutative polynomials.  The differential extends to
products by the signed Leibniz rule d(xy) = (dx)y + (-1)^{|x|} x (dy).

Built-ins:

* ``unknot``      -- one chord a, |a| = 1, da = t + 1.
* ``lambda0``     -- an 11-chord knot DGA whose integer augmentations eps_n
                     produce Z/n torsion in linearized homology.
* ``lambda_k(k)`` -- a (2k+11)-chord family placing the torsion in
                     gradings k and -k-1 (k = 0 is ``lambda0``).
* ``connected_sum`` and ``geography_dga`` assemble larger examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

from . import algebra
from .algebra import Poly, degree_of_word, first_unknown_symbol, format_monomial, gen, t_gen
from .augment import Augmentation
from .errors import (
    InvalidParameter,
    NotAUnit,
    RingMismatch,
    UnknownGenerator,
    ValidationFailed,
    int_text,
)
from .linearize import compile_plan
from .rings import ZZ

_RESERVED = (algebra.T_SYMBOL, algebra.T_INV_SYMBOL)

# The largest k `lambda_k` builds: its 2k+11 chords would otherwise grow
# with an index read from the command line.
MAX_FAMILY_INDEX = 10**4


@dataclass(frozen=True)
class DGA:
    """Chords with gradings, a basepoint t, and a differential.

    ``chords`` fixes the declaration order used everywhere downstream
    (matrix rows/columns, enumeration order, serialization).  ``diff``
    maps chord names to polynomials; omitted chords have zero
    differential.  tb is not stored: it is :func:`euler_tb`, the signed
    chord count.

    ``DGA(...)`` checks its parts in ``__post_init__`` and drops zero
    differentials.  :meth:`_unchecked` skips that check; it has two
    callers, which have made it already: ``dgafile.parse``, after its own
    checks with line numbers, and :func:`_connected_sum_parts`, whose
    renaming of valid summands cannot break it.
    """

    name: str
    chords: tuple[tuple[str, int], ...]
    diff: dict[str, Poly] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for chord, _deg in self.chords:
            if chord in _RESERVED:
                raise InvalidParameter(f"chord name {chord!r} is reserved")
            if chord in seen:
                raise InvalidParameter(f"duplicate chord {chord!r}")
            seen.add(chord)
        known = seen.union(_RESERVED)
        cleaned = {}
        for chord, p in self.diff.items():
            if chord not in seen:
                raise UnknownGenerator(f"differential given for undeclared chord {chord!r}")
            x = first_unknown_symbol(p, known)
            if x is not None:
                raise UnknownGenerator(f"differential of {chord!r} uses undeclared symbol {x!r}")
            if not p.is_zero():
                cleaned[chord] = p
        object.__setattr__(self, "diff", cleaned)

    @classmethod
    def _unchecked(
        cls, name: str, chords: tuple[tuple[str, int], ...], diff: dict[str, Poly]
    ) -> "DGA":
        """The DGA with exactly these parts, which the caller hands over.

        Skips ``__post_init__``: chord names must be distinct and not
        reserved, `diff` must map declared chords to nonzero polynomials
        in declared symbols.  Nothing is checked or copied.
        """
        dga = object.__new__(cls)
        object.__setattr__(dga, "name", name)
        object.__setattr__(dga, "chords", chords)
        object.__setattr__(dga, "diff", diff)
        return dga

    # -- lookups ----------------------------------------------------------

    @cached_property
    def grading(self) -> dict[str, int]:
        return dict(self.chords)

    @cached_property
    def basis(self) -> dict[int, list[str]]:
        """Each occupied degree to its chords in declaration order.

        Every complex of the DGA holds this dict as its basis; do not mutate it.
        """
        basis: dict[int, list[str]] = {}
        for name, deg in self.chords:
            basis.setdefault(deg, []).append(name)
        return basis

    @cached_property
    def basis_index(self) -> dict[str, int]:
        """Each chord's index within its degree's :attr:`basis`."""
        return {name: i for names in self.basis.values() for i, name in enumerate(names)}

    @cached_property
    def boundary_degrees(self) -> list[int]:
        """The degrees a complex stores a boundary from, in increasing order.

        Every degree that holds chords, and every degree one above such a
        degree, so that compositions are checkable at the ends.
        """
        return sorted({*self.basis, *(d + 1 for d in self.basis)})

    @cached_property
    def linear_plan(self) -> dict[int, list]:
        """The word rule of `linearize`, compiled once by :func:`linearize.compile_plan`.

        `linearize.constraints` compiles it, for `augment`, and
        `linearize.linearized_grid` sums it over a scan's grids; a one-shot
        linearization reads the words themselves and never compiles it.
        """
        return compile_plan(self)

    @cached_property
    def degree_zero_chords(self) -> frozenset[str]:
        return frozenset(self.chords_of_degree(0))

    @cached_property
    def eps_template(self) -> dict[str, int]:
        """The augmentation map before any values: every chord to 0, t to -1.

        t evaluates to -1 as a plain integer: exact in Z, congruent to the
        canonical representative mod m, and Fraction-compatible over Q.
        `Augmentation.eps_map` copies it; do not mutate it.
        """
        eps = dict.fromkeys(self.chord_names(), 0)
        eps[algebra.T_SYMBOL] = -1
        return eps

    def chord_names(self) -> list[str]:
        return [name for name, _ in self.chords]

    def degree_of(self, chord: str) -> int:
        if chord not in self.grading:
            raise UnknownGenerator(f"unknown chord {chord!r}")
        return self.grading[chord]

    def chords_of_degree(self, degree: int) -> list[str]:
        return [name for name, deg in self.chords if deg == degree]

    def differential(self, chord: str) -> Poly:
        if chord not in self.grading:
            raise UnknownGenerator(f"unknown chord {chord!r}")
        return self.diff.get(chord, Poly.zero())


@dataclass(frozen=True)
class ValidationReport:
    grading_ok: bool
    d_squared_ok: bool
    failures: tuple[tuple[str, Poly], ...]

    @property
    def ok(self) -> bool:
        return self.grading_ok and self.d_squared_ok


def differentiate(dga: DGA, p: Poly) -> Poly:
    """Extend the differential to a polynomial by the signed Leibniz rule."""
    grading = dga.grading
    diff = dga.diff
    pairs: list[tuple[tuple[str, ...], int]] = []
    for word, coeff in p.terms.items():
        prefix_degree = 0
        for j, x in enumerate(word):
            if x not in _RESERVED:
                dx = diff.get(x)
                if dx is not None:
                    c = -coeff if prefix_degree % 2 else coeff
                    head, tail = word[:j], word[j + 1 :]
                    pairs.extend((head + w + tail, c * e) for w, e in dx.terms.items())
                prefix_degree += grading[x]
    return Poly.from_terms(pairs)


def validate(dga: DGA) -> ValidationReport:
    """Check gradings (each monomial of d(a) has degree |a|-1) and d^2 = 0."""
    grading = dga.grading
    failures: list[tuple[str, Poly]] = []
    grading_ok = True
    d_squared_ok = True
    for chord, deg in dga.chords:
        p = dga.diff.get(chord)
        if p is None:
            continue
        bad = [(w, c) for w, c in p.terms.items() if degree_of_word(w, grading) != deg - 1]
        if bad:
            grading_ok = False
            failures.append((chord, Poly.from_terms(bad)))
        dd = differentiate(dga, p)
        if not dd.is_zero():
            d_squared_ok = False
            failures.append((chord, dd))
    return ValidationReport(grading_ok, d_squared_ok, tuple(failures))


def euler_tb(dga: DGA) -> int:
    """Signed chord count sum((-1)^{|a|}); equals tb for these knot DGAs."""
    return sum(1 if deg % 2 == 0 else -1 for _, deg in dga.chords)


# ----------------------------------------------------------------------
# built-in DGAs
# ----------------------------------------------------------------------


def unknot() -> DGA:
    """One right cusp: a single chord a with |a| = 1 and da = t + 1."""
    return DGA(
        name="unknot",
        chords=(("a", 1),),
        diff={"a": t_gen + Poly.one()},
    )


def lambda0() -> DGA:
    """11-chord knot DGA with a two-branch augmentation variety.

    Gradings: a1..a6 in degree 0, a7..a10 in degree 1, a11 in degree -1.
    The integer augmentations eps_n = (n,-1,1,0,0,1) with eps_n(t) = -1
    give linearized homology with Z/n torsion in degrees 0 and -1.
    """
    a = {i: gen(f"a{i}") for i in range(1, 12)}
    one = Poly.one()
    diff = {
        "a2": a[4] * a[11],
        "a5": -(a[11] * a[1]),
        "a7": -(a[1] * a[4]),
        "a8": t_gen + a[1] + a[3] + a[1] * a[2] * a[3] + a[7] * a[11] * a[3],
        "a9": one - (one + a[3] * a[2]) * a[1] * a[6] - a[3] * (a[4] + a[6] + a[4] * a[5] * a[6]),
        "a10": one - a[4] - a[6] - a[6] * a[5] * a[4] - a[6] * a[11] * a[7],
    }
    chords = tuple(
        (f"a{i}", 0 if i <= 6 else (1 if i <= 10 else -1)) for i in range(1, 12)
    )
    return DGA(name="lambda0", chords=chords, diff=diff)


def lambda_k(k: int) -> DGA:
    """The (2k+11)-chord family member, 1 <= k <= MAX_FAMILY_INDEX.

    Gradings: |a5| = k+1, |a4| = k, |a7| = -k, |a6| = -k-1; a8, a9 and the
    right-cusp chain a_{k+11}..a_{2k+11} sit in degree 1; a1, a2, a3 and
    the crossing chain a_{10}..a_{k+10} sit in degree 0.  Augmentations are
    cut out by a1 + a3 + a1*a2*a3 = 1 with the chain chords sent to 1, and
    eps_n := (a1, a2, a3) = (n, -1, 1) puts Z/n torsion in gradings k
    and -k-1 (for k = 1 the degree-k copy merges into degree 1).
    """
    if k < 1:
        raise InvalidParameter(f"lambda_k needs k >= 1, got {int_text(k)}")
    if k > MAX_FAMILY_INDEX:
        raise InvalidParameter(f"lambda_k needs k <= {MAX_FAMILY_INDEX}")
    n_chords = 2 * k + 11
    a = {i: gen(f"a{i}") for i in range(1, n_chords + 1)}
    one = Poly.one()
    diff: dict[str, Poly] = {
        "a2": a[4] * a[6],
        "a5": -(a[1] * a[4]),
        "a7": ((-1) ** (k + 1)) * (a[6] * a[1]),
        "a8": t_gen + a[1] + a[3] + a[1] * a[2] * a[3] + a[5] * a[6] * a[3],
        "a9": one - (a[1] + a[3] + a[3] * a[2] * a[1] + a[3] * a[4] * a[7]) * a[10],
        f"a{2 * k + 11}": one - a[k + 10] * (one + a[6] * a[5] + a[7] * a[4]),
    }
    for i in range(k):
        diff[f"a{k + 11 + i}"] = one - a[10 + i] * a[11 + i]

    grading = {1: 0, 2: 0, 3: 0, 4: k, 5: k + 1, 6: -k - 1, 7: -k, 8: 1, 9: 1}
    for i in range(10, k + 11):
        grading[i] = 0
    for i in range(k + 11, 2 * k + 12):
        grading[i] = 1
    chords = tuple((f"a{i}", grading[i]) for i in range(1, n_chords + 1))
    return DGA(name=f"lambda{k}", chords=chords, diff=diff)


# ----------------------------------------------------------------------
# connected sums
# ----------------------------------------------------------------------


def _fresh_suffix(taken: set[str], names: list[str], j: int) -> int:
    """The least j' >= j such that no ``name#j'`` is taken or one of `names`.

    `taken` only grows, so a caller may resume at its last answer for the
    same names: no suffix skipped before can have become free.
    """
    own = set(names)
    while True:
        renamed = [f"{name}#{j}" for name in names]
        if taken.isdisjoint(renamed) and own.isdisjoint(renamed):
            return j
        j += 1


def _connected_sum_parts(
    summands: list[DGA], name: str | None = None
) -> tuple[DGA, list[dict[str, str]], list[str]]:
    """The iterated sum (((d1 # d2) # d3) # ...) built in one pass.

    Returns the sum, each summand's chord rename map and the new c chords
    in order.  Names and chord order are those of folding
    :func:`connected_sum` from the left; the sum is called `name` if given.
    Composing the basepoint substitutions of the fold, summand 1 gets
    t -> c_1, summand j gets t -> -c_j*c_{j-1}, and the last gets
    t -> -t*c_{n-1}.  So every letter's image is one signed word, and each
    differential is rebuilt by renaming its words: the map is injective
    and makes no t^-1, so term j of the summand's differential becomes
    term j of the sum's, written straight into its term dict.  A t^-1
    raises NotAUnit: with two or more summands no image of t is a unit,
    and the one caller that may pass a single summand, geography_dga, sums
    family members without t^-1.  Each distinct summand object is
    validated once, and its search for a fresh suffix resumes where its
    last copy's search ended.
    """
    distinct = {id(d): d for d in summands}
    for d in distinct.values():
        if not validate(d).ok:
            raise ValidationFailed(f"connected_sum needs valid inputs; {d.name} fails")

    next_suffix = dict.fromkeys(distinct, 2)
    next_c = 2
    names = summands[0].chord_names()
    taken = set(names)
    renames = [{name: name for name in names}]
    c_names: list[str] = []
    chords = list(summands[0].chords)
    for d in summands[1:]:
        names = d.chord_names()
        suffix = ""
        if not taken.isdisjoint(names):
            next_suffix[id(d)] = j = _fresh_suffix(taken, names, next_suffix[id(d)])
            suffix = f"#{j}"
        rename = {name: name + suffix for name in names}
        taken.update(rename.values())
        c_name = "c"
        if c_name in taken:
            next_c = _fresh_suffix(taken, [c_name], next_c)
            c_name = f"c#{next_c}"
        taken.add(c_name)
        chords += [(rename[name], deg) for name, deg in d.chords] + [(c_name, 0)]
        renames.append(rename)
        c_names.append(c_name)

    t = algebra.T_SYMBOL
    heads = c_names + [t]
    diff: dict[str, Poly] = {}
    for j, (d, rename) in enumerate(zip(summands, renames)):
        # Only t's image past the first summand carries a sign, -1.
        t_word = (heads[j], c_names[j - 1]) if j else (heads[j],)
        images = {x: (new,) for x, new in rename.items()}
        images[t] = t_word
        try:
            for chord, p in d.diff.items():
                terms = {}
                for word, coeff in p.terms.items():
                    new_word: list[str] = []
                    for x in word:
                        new_word += images[x]
                    terms[tuple(new_word)] = -coeff if j and word.count(t) % 2 else coeff
                diff[rename[chord]] = Poly._of_normalized(terms)
        except KeyError:
            # Every chord has an image, so the letter is a t^-1.
            raise NotAUnit(f"{format_monomial(t_word, -1 if j else 1)} is not a unit") from None

    if name is None:
        name = "#".join(d.name for d in summands)
    # Fresh names, images of declared letters and an injective renaming of
    # nonzero differentials: the constructor's checks hold by construction.
    return DGA._unchecked(name, tuple(chords), diff), renames, c_names


def _connected_sum_augmented(summands: list[DGA], augs: list, name: str | None = None):
    """Iterated connected sum with the combined augmentation (c_j -> -1)."""
    ring = augs[0].ring
    for aug in augs[1:]:
        if aug.ring != ring:
            raise RingMismatch(f"augmentation rings differ: {ring} vs {aug.ring}")
    summed, renames, c_names = _connected_sum_parts(summands, name)
    # Each summand's values are canonical already, and -1 is nonzero in every ring.
    values: dict[str, object] = {}
    for j, (aug, rename) in enumerate(zip(augs, renames)):
        values.update((rename.get(k, k), v) for k, v in aug.values.items())
        if j:
            values[c_names[j - 1]] = ring.coerce(-1)
    return summed, Augmentation._canonical(ring, values)


def connected_sum(d1: DGA, d2: DGA) -> DGA:
    """Connected sum: disjoint chords plus one new degree-0 chord c.

    In d1's differentials t is replaced by c; in d2's, t is replaced by
    -t*c; c itself is closed.  Chord name collisions are resolved by
    suffixing d2's chords with ``#j``.
    """
    return _connected_sum_parts([d1, d2])[0]


def connected_sum_augmented(d1: DGA, aug1, d2: DGA, aug2):
    """Connected sum together with the combined augmentation.

    Both augmentations must share a ring and send t to -1; the combined
    augmentation keeps each summand's values (under the renaming) and
    sends the new chord c to -1.
    """
    return _connected_sum_augmented([d1, d2], [aug1, aug2])


# ----------------------------------------------------------------------
# geography construction
# ----------------------------------------------------------------------


@cache
def _family_member_for_grading(i: int) -> DGA:
    """Family member whose eps_n torsion slot sits in grading i (i != 0, 1).

    Built once per process for each i.  The member never leaves
    `geography_dga`: the sum built from it is a fresh DGA with its own
    differential dict, so no caller can change the cached member.
    """
    if i > 1:
        return lambda_k(i)
    if i == -1:
        return lambda0()
    return lambda_k(-i - 1)


def _eps_n_values(base: DGA, n: int) -> dict[str, int]:
    """The eps_n assignment for a family member (lambda0 or lambda_k)."""
    values = {"a1": n, "a2": -1, "a3": 1}
    if base.name == "lambda0":
        values["a6"] = 1
    else:
        for chord in base.chords_of_degree(0):
            if chord not in ("a1", "a2", "a3"):
                values[chord] = 1
    return values


def geography_dga(i: int, m: int, torsions: list[int]):
    """DGA + integer augmentation with LCH_i = Z^m + Z/n_1 + ... + Z/n_k.

    Built as an iterated connected sum of m + len(torsions) copies of the
    family member whose torsion slot is grading i: the first m copies
    carry eps_0 (contributing Z each) and the rest carry eps_{n_j}.
    Gradings 0 and 1 are excluded (duality pins them down).  The member
    is built once per process for each grading, and validated on every
    call.
    """
    if i in (0, 1):
        raise InvalidParameter("grading 0 and 1 are excluded (duality constraints)")
    if m < 0:
        raise InvalidParameter("free rank must be >= 0")
    for n in torsions:
        if n < 2:
            raise InvalidParameter(f"torsion orders must be >= 2, got {int_text(n)}")
    if m + len(torsions) < 1:
        raise InvalidParameter("need at least one summand")

    base = _family_member_for_grading(i)
    ns = [0] * m + list(torsions)
    augs = [Augmentation(ring=ZZ, values=_eps_n_values(base, n)) for n in ns]
    return _connected_sum_augmented([base] * len(ns), augs, f"geography[{i}]")
