import random
from fractions import Fraction
from itertools import groupby, product
from operator import mul

import pytest

from lchkit.algebra import Poly, evaluate, gen, s_linear_part, t_gen, t_inv_gen
from lchkit.augment import (
    Augmentation,
    enumerate_augmentations,
    enumerate_augmentations_bounded,
    is_augmentation,
)
from lchkit.dga import DGA, connected_sum, connected_sum_augmented, lambda0, lambda_k, unknot, validate
from lchkit.errors import (
    InvalidValue,
    LchError,
    NotAComplex,
    NotAnAugmentation,
    SearchTooLarge,
    UnknownGenerator,
    ValidationFailed,
)
from lchkit.linearize import ChainComplex, grid_rows, linearized_differential, linearized_grid
from lchkit.rings import QQ, ZZ, Zmod
from lchkit.verify import torsion_scan


def reduce_mod(M, m):
    return [[x % m for x in row] for row in M]


def eps_n(n):
    return Augmentation(ZZ, {"a1": n, "a2": -1, "a3": 1, "a6": 1})


def column(C, chord):
    deg = next(d for d, names in C.basis.items() if chord in names)
    j = C.basis_of(deg).index(chord)
    rows = C.basis_of(deg - 1)
    M = C.matrix(deg)
    return {rows[i]: M[i][j] for i in range(len(rows)) if M[i][j]}


def test_lambda0_columns_at_eps_n():
    d = lambda0()
    for n in (2, 3, 7):
        C = linearized_differential(d, eps_n(n))
        assert column(C, "a8") == {"a2": n, "a3": -(n - 1)}
        assert column(C, "a10") == {"a4": -1, "a6": -1}
        assert column(C, "a9") == {"a2": -n, "a3": n - 1, "a4": -1, "a6": -1}
        assert column(C, "a5") == {"a11": -n}
        assert column(C, "a7") == {"a4": -n}
        for closed in ("a1", "a2", "a3", "a4", "a6", "a11"):
            assert column(C, closed) == {}


def test_zero_differential_gives_zero_matrices():
    d = DGA(name="free", chords=(("x", 0), ("y", 1), ("z", 2)))
    C = linearized_differential(d, Augmentation(ZZ, {}))
    for deg in (0, 1, 2, 3):
        assert all(all(v == 0 for v in row) for row in C.matrix(deg))
    # A degree with no stored boundary reads as zeros of the bases' shape.
    C = ChainComplex(ZZ, {0: ["x", "y"], 1: ["z", "w", "v"]}, {})
    assert C.rows == {} and C.matrix(1) == [[0, 0, 0], [0, 0, 0]]


def test_basis_covers_every_chord_once():
    d = lambda_k(2)
    C = linearized_differential(d, Augmentation(ZZ, {"a3": 1, "a10": 1, "a11": 1, "a12": 1}))
    seen = [name for names in C.basis.values() for name in names]
    assert sorted(seen) == sorted(d.chord_names())
    # the gap degree -1 gets an explicit 0-width matrix with labeled rows
    assert C.basis_of(2) == ["a4"] and C.basis_of(-1) == []
    assert C.matrix(-1) == [[]]  # one row (a7), zero columns


def test_not_an_augmentation_raises():
    d = lambda0()
    with pytest.raises(NotAnAugmentation):
        linearized_differential(d, Augmentation(ZZ, {"a1": 1, "a3": 1, "a6": 1}))


def test_error_messages_through_linearized_differential():
    """Each rejection, its type and its exact message, raised by linearization."""
    d = lambda0()
    x, w = gen("x"), gen("w")
    misgraded = DGA(name="mis", chords=(("x", 0), ("w", -1), ("a", 1)), diff={"a": x * w})
    cases = [
        # The constant is quoted unreduced: -4 is 1 mod 5.
        (d, Augmentation(ZZ, {"a1": 1, "a2": -1, "a3": 1, "a4": 1, "a6": 1}),
         NotAnAugmentation, "eps(d a7) = -1 != 0: not an augmentation"),
        (d, Augmentation(Zmod(5), {"a1": 9, "a2": -1, "a3": 1, "a4": 1, "a6": 3}),
         NotAnAugmentation, "eps(d a7) = -4 != 0: not an augmentation"),
        (misgraded, Augmentation(Zmod(3), {"x": 2}), ValidationFailed,
         "d a has an s-linear term on w of degree -1, expected 0; validate the DGA"),
        (d, Augmentation(ZZ, {"a1": 2, "zz": 1}), UnknownGenerator,
         "augmentation assigns unknown chord 'zz'"),
        (d, Augmentation(Zmod(3), {"a1": 2, "a7": 1}), InvalidValue,
         "chord 'a7' has degree 1; augmentations vanish there"),
    ]
    for dga, aug, error, message in cases:
        with pytest.raises(error) as info:
            linearized_differential(dga, aug)
        assert str(info.value) == message
    # A zero value on the degree-1 chord is dropped, so nothing is assigned there.
    assert linearized_differential(d, Augmentation(Zmod(3), {"a3": 1, "a6": 1, "a7": 3})).ring == Zmod(3)


def test_square_zero_over_enumerated_augmentations():
    corpus = [lambda0(), lambda_k(1), lambda_k(2), unknot(), connected_sum(unknot(), lambda0())]
    for dga in corpus:
        for ring in (Zmod(2), Zmod(3), Zmod(5)):
            for aug in enumerate_augmentations(dga, ring):
                C = linearized_differential(dga, aug)
                C.check_square_zero()
        for aug in enumerate_augmentations_bounded(dga, 3):
            linearized_differential(dga, aug).check_square_zero()


def test_naturality_of_mod_p_reduction():
    """Reducing the integer matrices mod p equals linearizing mod p."""
    for dga in (lambda0(), lambda_k(1)):
        for aug in enumerate_augmentations_bounded(dga, 2):
            C = linearized_differential(dga, aug)
            for p in (2, 3, 5):
                Cp = linearized_differential(dga, aug.reduction(p))
                assert Cp.basis == C.basis
                for deg in C.boundary:
                    assert Cp.matrix(deg) == reduce_mod(C.matrix(deg), p)


def test_columns_agree_with_s_linear_oracle():
    from test_algebra import brute_force_s_linear

    d = lambda0()
    aug = eps_n(4)
    eps = aug.eps_map(d)
    C = linearized_differential(d, aug)
    for chord, deg in d.chords:
        expected = {
            name: value
            for name, value in brute_force_s_linear(d.differential(chord), eps).items()
            if value
        }
        assert column(C, chord) == expected


RINGS = (Zmod(2), Zmod(3), Zmod(4), Zmod(5), ZZ, QQ)


def _spread(items, limit):
    return items[:: max(1, len(items) // limit)][:limit]


def _family_points(dga, ring, limit):
    """Augmentations over ring; over Q also points with a1 = a3 = 1/2, a2 = 0."""
    if ring.is_finite:
        return _spread(enumerate_augmentations(dga, ring), limit)
    points = _spread(enumerate_augmentations_bounded(dga, 2 if ring == ZZ else 1), limit)
    if ring == ZZ:
        return points
    halves = {"a1": Fraction(1, 2), "a2": 0, "a3": Fraction(1, 2)}
    out = [Augmentation(QQ, aug.values) for aug in points]
    if "a1" in dga.grading:
        out += [Augmentation(QQ, {**aug.values, **halves}) for aug in points]
    return out


def _t_inverse_dga(valid=False):
    """d a and d b hold t^-1 words.  The word z*b of d a has two graded
    letters, so it drops out of every linearization, but d d a = -z*d b is
    not 0: the DGA is valid only without it, and linearizes the same."""
    x, y, z, b = gen("x"), gen("y"), gen("z"), gen("b")
    return DGA(
        name="tinv_valid" if valid else "tinv",
        chords=(("x", 0), ("y", 0), ("z", -1), ("a", 1), ("b", 1)),
        diff={
            "a": t_inv_gen * x - x * y * t_gen + 1 + (0 if valid else z * b),
            "b": t_gen * x * t_inv_gen * y - 2 * t_gen * t_gen * y * y + y * y,
        },
    )


def _compiled_route_cases():
    for ring in RINGS:
        for dga in (lambda0(), lambda_k(1), lambda_k(2), lambda_k(3), unknot()):
            for aug in _family_points(dga, ring, 12):
                yield dga, aug
        for d1, d2 in ((unknot(), lambda0()), (lambda0(), lambda_k(1))):
            for a1 in _family_points(d1, ring, 3):
                for a2 in _family_points(d2, ring, 4):
                    yield connected_sum_augmented(d1, a1, d2, a2)
        if ring.is_finite:
            domain = list(ring.elements())
        elif ring == ZZ:
            domain = range(-2, 3)
        else:
            domain = [-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2]
        for tinv in (_t_inverse_dga(), _t_inverse_dga(valid=True)):
            for vx, vy in product(domain, repeat=2):
                yield tinv, Augmentation(ring, {"x": vx, "y": vy})


def _ill_graded_dga(c_first):
    """d e and d a have terms on chords of the wrong degree.

    d e = x*z + z has misgraded entries and an augmentation constraint;
    d a = x + 1 + w*y has a misgraded entry on w, and d c = y is a plain
    constraint, so at different points NotAnAugmentation or
    ValidationFailed comes first, in either degree.
    """
    x, y, z, w = gen("x"), gen("y"), gen("z"), gen("w")
    chords = [("x", 0), ("y", 0), ("z", 0), ("w", -1), ("e", 0), ("a", 1), ("c", 1)]
    if c_first:
        chords[-2], chords[-1] = chords[-1], chords[-2]
    return DGA(
        name="ill",
        chords=tuple(chords),
        diff={"e": x * z + z, "a": x + 1 + w * y, "c": y},
    )


def _first_occurrence_dga():
    """d a = w*v + v + x*w: its misgraded entries are on w, then v.

    w first occurs in w*v, a word with two graded letters that drops out,
    and its only term comes last, from x*w.  Entries follow first
    occurrence, so linearization raises on w where eps(x) != 0 and on v
    where eps(x) = 0; an order by first term would raise on v at both.
    """
    x, w, v = gen("x"), gen("w"), gen("v")
    return DGA(
        name="first",
        chords=(("x", 0), ("w", -1), ("v", -1), ("a", 1)),
        diff={"a": w * v + v + x * w},
    )


def _late_letter_dga():
    """d a = w*v*u + q + x*u: its misgraded entries are on u, then q.

    u first occurs as the third letter of a word that drops out at its
    second graded letter, v, so reading that word must go on past v: the
    entries keep the order w, v, u, q, and linearization raises on u where
    eps(x) != 0 and on q where eps(x) = 0.
    """
    x, w, v, u, q = gen("x"), gen("w"), gen("v"), gen("u"), gen("q")
    return DGA(
        name="late",
        chords=(("x", 0), ("w", -1), ("v", -1), ("u", -1), ("q", -1), ("a", 1)),
        diff={"a": w * v * u + q + x * u},
    )


def _ill_graded_cases():
    first, late = _first_occurrence_dga(), _late_letter_dga()
    for ring in RINGS:
        if ring.is_finite:
            domain = list(ring.elements())
        else:
            domain = [-1, 0, 1, 2] if ring == ZZ else [-1, 0, Fraction(1, 2), 1]
        for c_first in (False, True):
            dga = _ill_graded_dga(c_first)
            for vx, vy, vz in product(domain, repeat=3):
                yield dga, Augmentation(ring, {"x": vx, "y": vy, "z": vz})
        for vx in domain:
            yield first, Augmentation(ring, {"x": vx})
            yield late, Augmentation(ring, {"x": vx})


def _first_failure(dga, aug):
    """(type, message) linearization must raise first, by the reference route.

    Degrees go up, chords go in declaration order, and each chord's
    constant part is checked before its s-linear entries; None if nothing
    fails.
    """
    ring = aug.ring
    eps = aug.eps_map(dga)
    for d in sorted({deg for _, deg in dga.chords}):
        for chord in dga.chords_of_degree(d):
            p = dga.differential(chord)
            constant = evaluate(p, eps)
            if not ring.is_zero(constant):
                return NotAnAugmentation, f"eps(d {chord}) = {constant} != 0: not an augmentation"
            for name, value in s_linear_part(p, eps).items():
                if not ring.is_zero(value) and dga.grading[name] != d - 1:
                    return ValidationFailed, (
                        f"d {chord} has an s-linear term on {name} of degree "
                        f"{dga.grading[name]}, expected {d - 1}; validate the DGA"
                    )
    return None


def _square_failure(dga, aug):
    """(NotAComplex, message) if the reference columns do not compose to zero.

    Each boundary is read densely from `s_linear_part`, degrees go up, and
    the first degree d + 1 where some entry of M_d M_{d+1} is nonzero in
    the ring is named; None if d^2 = 0.  Meant for points where
    `_first_failure` finds nothing.
    """
    ring, eps = aug.ring, aug.eps_map(dga)
    basis = {}
    for name, deg in dga.chords:
        basis.setdefault(deg, []).append(name)

    def matrix(d):
        rows, cols = basis.get(d - 1, []), basis.get(d, [])
        M = [[0] * len(cols) for _ in rows]
        for j, chord in enumerate(cols):
            for name, value in s_linear_part(dga.differential(chord), eps).items():
                if name in rows:
                    M[rows.index(name)][j] = value
        return M

    for d in sorted({*basis, *(d + 1 for d in basis)}):
        lower, upper = matrix(d), matrix(d + 1)
        if any(not ring.is_zero(sum(map(mul, row, col))) for row in lower for col in zip(*upper)):
            return NotAComplex, f"boundary squared is nonzero from degree {d + 1}"
    return None


def _assert_reference_columns(C, dga, eps):
    for chord in dga.chord_names():
        reference = s_linear_part(dga.differential(chord), eps)
        assert column(C, chord) == {
            name: C.ring.reduce(value)
            for name, value in reference.items()
            if not C.ring.is_zero(value)
        }


def _rows_in_order(rows):
    """Every row of `{d: {i: {j: x}}}` with its keys in order: the degrees, rows and entries."""
    return [(d, [(i, list(row.items())) for i, row in boundary.items()]) for d, boundary in rows.items()]


def _point_rows(layout, point):
    """A grid point's rows by degree, built from the grid's layout."""
    return {d: grid_rows(slots, values) for (d, slots), values in zip(layout.items(), point)}


def _check_routes(dga, augs):
    """Both routes against the reference and each other over the grid `augs`.

    `linearized_differential` runs at each point on a fresh copy of `dga`,
    which reads the words and must compile nothing: it must raise the
    reference's first failure (d^2 = 0 last), with its type and message,
    or build the reference's columns.  On a valid DGA, `linearized_grid`
    then runs on `dga` itself after its plan is read, over the points that
    linearize, as a scan runs it: the rows built from its layout and each
    point's values must be the word route's, with the same keys in the same
    order.  Returns each point's failure type, or None where it linearizes.
    """
    fresh = DGA(dga.name, dga.chords, dga.diff)
    failures, linearized = [], []
    for aug in augs:
        expected = _first_failure(dga, aug) or _square_failure(dga, aug)
        failures.append(None if expected is None else expected[0])
        if expected is not None:
            with pytest.raises(LchError) as info:
                linearized_differential(fresh, aug)
            assert (type(info.value), str(info.value)) == expected
            continue
        one_pass = linearized_differential(fresh, aug)
        _assert_reference_columns(one_pass, dga, aug.eps_map(dga))
        assert one_pass.basis is fresh.basis
        linearized.append((aug, one_pass))
    assert "linear_plan" not in vars(fresh)
    if linearized and validate(dga).ok:
        _assert_grid_rows(dga, augs[0].ring, linearized)
    return failures


def _assert_grid_rows(dga, ring, linearized):
    """`linearized_grid` over the points of `linearized`, pairs of a point
    and its complex by the word route, gives that complex's rows at each."""
    dga.linear_plan
    layout, grid = linearized_grid(dga, ring, [aug for aug, _ in linearized])
    assert list(layout) == dga.boundary_degrees
    for (_, one_pass), point in zip(linearized, grid, strict=True):
        assert _rows_in_order(one_pass.rows) == _rows_in_order(_point_rows(layout, point))


def _random_dga(rng, index):
    """Chords in degrees -1..2, words of 0-3 letters drawn from the chords, t and t^-1.

    Most words are drawn again, a few times, until their degree is right;
    the rest keep the degree they have, so misgraded words are common.
    """
    chords = []
    for deg, count in ((0, rng.randint(1, 4)), (-1, rng.randint(0, 2)),
                       (1, rng.randint(1, 3)), (2, rng.randint(0, 2))):
        chords += [(f"{'zabc'[deg + 1]}{i}", deg) for i in range(count)]
    rng.shuffle(chords)
    grading = dict(chords, **{"t": 0, "t^-1": 0})
    symbols = list(grading)
    diff = {}
    for name, deg in chords:
        if rng.random() < 0.3:
            continue
        p = Poly.zero()
        for _ in range(rng.randint(1, 4)):
            for _ in range(5 if rng.random() < 0.8 else 1):
                word = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
                if sum(grading[x] for x in word) == deg - 1:
                    break
            p = p + rng.choice((-2, -1, 1, 1, 2, 3)) * Poly({word: 1})
        diff[name] = p
    return DGA(name=f"random{index}", chords=tuple(chords), diff=diff)


def _random_points(rng, dga, ring, count):
    if ring.is_finite:
        domain = list(ring.elements())
    elif ring == ZZ:
        domain = [-2, -1, 0, 1, 2]
    else:
        domain = [-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2]
    names = dga.chords_of_degree(0)
    for _ in range(count):
        yield Augmentation(ring, {name: rng.choice(domain) for name in names})


def _random_cases():
    """300 seeded random DGAs, each at points over all six rings.

    Half of the DGAs have every differential's constant cancelled at one
    integer point, which is then read in every ring, so some points
    linearize and others raise.
    """
    rng = random.Random(2025)
    for index in range(300):
        dga = _random_dga(rng, index)
        if index % 2:
            values = next(_random_points(rng, dga, ZZ, 1)).values
            eps = Augmentation(ZZ, values).eps_map(dga)
            dga = DGA(dga.name, dga.chords, {
                chord: p - evaluate(p, eps) * Poly.one() for chord, p in dga.diff.items()
            })
        for ring in RINGS:
            if index % 2:
                yield dga, Augmentation(ring, values)
            for aug in _random_points(rng, dga, ring, 2):
                yield dga, aug


def _random_valid_dga(rng, index):
    """Chords in degrees -1..2, about half of them closed; each other chord's
    differential is words in the closed chords, t and t^-1, each drawn until
    its degree is right, so the grading holds and d^2 = 0.  Every odd DGA
    has its constants cancelled at one integer point, so it has
    augmentations with nonzero values.
    """
    chords = []
    for deg, count in ((0, rng.randint(1, 4)), (-1, rng.randint(0, 2)),
                       (1, rng.randint(1, 3)), (2, rng.randint(0, 2))):
        chords += [(f"{'zabc'[deg + 1]}{i}", deg) for i in range(count)]
    rng.shuffle(chords)
    grading = dict([chord for chord in chords if rng.random() < 0.5], **{"t": 0, "t^-1": 0})
    symbols = list(grading)
    diff = {}
    for name, deg in chords:
        if name in grading:
            continue
        p = Poly.zero()
        for _ in range(rng.randint(1, 4)):
            for _ in range(50):
                word = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
                if sum(grading[x] for x in word) == deg - 1:
                    p = p + rng.choice((-2, -1, 1, 1, 2, 3)) * Poly({word: 1})
                    break
        diff[name] = p
    dga = DGA(name=f"valid{index}", chords=tuple(chords), diff=diff)
    if index % 2:
        eps = next(_random_points(rng, dga, ZZ, 1)).eps_map(dga)
        dga = DGA(dga.name, dga.chords, {
            chord: p - evaluate(p, eps) * Poly.one() for chord, p in dga.diff.items()
        })
    return dga


def test_enumerated_points_of_valid_dgas_linearize():
    """The precondition a scan's grid rests on: on a valid DGA, every point
    the enumerators find linearizes by `linearized_differential`, with no
    error, and the grid gives its rows there.  Checked over Z/2, Z/3, Z/4,
    Z/5 and at bounds 0, 1 and 2, on 120 seeded random valid DGAs, the
    lambda family, its sums, the valid t^-1 DGA and the DGAs of
    `test_invariance`; two grids of lambda0#lambda1 exceed the search cap."""
    from test_invariance import CASES, elementary, stabilized

    rng = random.Random(7)
    dgas = [_random_valid_dga(rng, index) for index in range(120)]
    dgas += [unknot(), lambda0(), lambda_k(1), lambda_k(2), lambda_k(3), _t_inverse_dga(valid=True),
             connected_sum(unknot(), lambda0()), connected_sum(lambda0(), lambda_k(1))]
    for build, _, sequences in CASES.values():
        for steps in sequences:
            dga = build()
            for step in steps:
                dga = stabilized(dga, step[1]) if step[0] == "stab" else elementary(dga, *step[1:])
            dgas.append(dga)
    points, sliced, too_large = 0, set(), []
    for dga in dgas:
        assert validate(dga).ok, dga.name
        grids = [(ring, lambda ring=ring: enumerate_augmentations(dga, ring))
                 for ring in (Zmod(2), Zmod(3), Zmod(4), Zmod(5))]
        grids += [(ZZ, lambda bound=bound: enumerate_augmentations_bounded(dga, bound)) for bound in range(3)]
        for ring, enumerate_grid in grids:
            try:
                augs = enumerate_grid()
            except SearchTooLarge:
                too_large.append((dga.name, ring))
                continue
            linearized = [(aug, linearized_differential(dga, aug)) for aug in augs]
            if linearized:
                _assert_grid_rows(dga, ring, linearized)
            points += len(augs)
            if any(any(C.rows.values()) for _, C in linearized):
                sliced.add(dga.name)
    assert too_large == [("lambda0#lambda1", Zmod(5)), ("lambda0#lambda1", ZZ)]
    # 46659 points; 75 of the random DGAs have a nonzero entry at some point.
    assert points > 40000 and sum(name.startswith("valid") for name in sliced) > 60


def test_compiled_route_matches_reference_route():
    """Both routes, one pass on a fresh DGA and, on a valid DGA at its
    augmentations, `linearized_grid` on a DGA that holds its plan, equal
    algebra.evaluate and s_linear_part."""
    complexes = rejected = gridded = 0
    for dga, aug in _compiled_route_cases():
        ring = aug.ring
        eps = aug.eps_map(dga)
        expected = all(ring.is_zero(evaluate(p, eps)) for p in dga.diff.values())
        assert is_augmentation(dga, aug) == expected
        assert _check_routes(dga, [aug]) == [None if expected else NotAnAugmentation]
        complexes += expected
        rejected += not expected
        gridded += expected and dga.name != "tinv"
    assert complexes > 400 and rejected > 100 and gridded > 400

    # Ill-graded DGAs: the first failure, its type and its message are pinned.
    seen = {None: 0, NotAnAugmentation: 0, ValidationFailed: 0}
    for dga, aug in _ill_graded_cases():
        [failure] = _check_routes(dga, [aug])
        seen[failure] += 1
    assert min(seen.values()) > 10

    # Random DGAs need not be complexes: where nothing else fails first,
    # the word route must raise the reference's NotAComplex.  Each DGA's
    # points over one ring form one grid, which the valid DGAs also sum.
    seen = {None: 0, NotAnAugmentation: 0, ValidationFailed: 0, NotAComplex: 0}
    grids = mid_grid = square_first = 0
    for _, cases in groupby(_random_cases(), key=lambda case: (case[0].name, case[1].ring)):
        cases = list(cases)
        failures = _check_routes(cases[0][0], [aug for _, aug in cases])
        for failure in failures:
            seen[failure] += 1
        grids += 1
        mid_grid += any(failures[:-1])
        square_first += next(filter(None, failures), None) is NotAComplex
    assert sum(seen.values()) == 4500 and grids == 1800
    assert min(seen[None], seen[NotAnAugmentation], seen[ValidationFailed]) > 100 and mid_grid > 100
    # 30 points fail d^2 = 0 first, and in 21 grids that is the first failure.
    assert (seen[NotAComplex], square_first) == (30, 21)


def _not_a_complex_dga():
    """d a = y and d b = x*a: the grading is valid, but d d b = x*y, so the
    linearization is a complex exactly where eps(x) = 0 (eps(y) = 0 always)."""
    x, y, a = gen("x"), gen("y"), gen("a")
    return DGA(name="square", chords=(("x", 0), ("y", 0), ("a", 1), ("b", 2)),
               diff={"a": y, "b": x * a})


def test_grid_yields_every_point_of_a_dga_without_slots():
    """A grid has one point per augmentation even where no boundary has a
    slot: a DGA without chords, and the unknot, whose d a = t + 1 has no
    linear part."""
    ring = Zmod(3)
    layout, grid = linearized_grid(DGA(name="none", chords=()), ring, [Augmentation(ring, {})] * 3)
    assert layout == {} and list(grid) == [()] * 3
    layout, grid = linearized_grid(unknot(), ring, [Augmentation(ring, {})] * 3)
    assert layout == {1: [], 2: []} and list(grid) == [((), ())] * 3


def _refuse_grids(monkeypatch):
    """Make the scan's enumerators and grid fail if an invalid DGA reaches them."""
    import lchkit.verify as verify_module

    def refuse(*args, **kwargs):
        raise AssertionError("an invalid DGA reached a grid")

    for name in ("enumerate_augmentations", "enumerate_augmentations_bounded", "linearized_grid"):
        monkeypatch.setattr(verify_module, name, refuse)


def _assert_scan_refuses(dga):
    with pytest.raises(ValidationFailed) as info:
        torsion_scan(dga, [2, 3], bound=1)
    assert str(info.value) == f"torsion_scan needs a valid DGA; {dga.name} fails validation"
    assert "linear_plan" not in vars(dga)


def test_grid_raises_at_its_first_failing_point(monkeypatch):
    """A scan never reads a grid up to a failing point: it raises before
    the grid.  The ill-graded DGAs (in both chord orders) have Z/3 points
    that linearize and points where `linearized_differential` raises
    NotAnAugmentation or ValidationFailed, and on the first-occurrence and
    late-letter DGAs every point raises ValidationFailed; `validate`
    rejects each, so the scan raises ValidationFailed before any grid is
    enumerated or any point linearized."""
    ring, raised = Zmod(3), set()
    for dga in (_ill_graded_dga(False), _ill_graded_dga(True)):
        linearized = 0
        for vx, vy, vz in product(range(3), repeat=3):
            aug = Augmentation(ring, {"x": vx, "y": vy, "z": vz})
            expected = _first_failure(dga, aug)
            if expected is None:
                linearized_differential(dga, aug)
                linearized += 1
                continue
            with pytest.raises(LchError) as info:
                linearized_differential(dga, aug)
            assert (type(info.value), str(info.value)) == expected
            raised.add(expected[0])
        # Only x = 2 linearizes (y = z = 0 and 1 + x = 0).
        assert linearized == 1
    for dga in (_first_occurrence_dga(), _late_letter_dga()):
        for vx in range(3):
            with pytest.raises(ValidationFailed):
                linearized_differential(dga, Augmentation(ring, {"x": vx}))
    assert raised == {NotAnAugmentation, ValidationFailed}
    _refuse_grids(monkeypatch)
    invalid = [_ill_graded_dga(False), _ill_graded_dga(True), _first_occurrence_dga(), _late_letter_dga()]
    for dga in invalid:
        assert (validate(dga).grading_ok, validate(dga).d_squared_ok) == (False, True)
        _assert_scan_refuses(dga)


def test_grid_raises_d_squared_mid_grid(monkeypatch):
    """On the not-a-complex DGA, `linearized_differential` linearizes at
    the points before the first where d^2 != 0 in the ring and raises
    NotAComplex there: eps(x) = 2 fails over Z/4, Z and Q, but not over
    Z/2, where the product 2 is 0.  A scan reaches none of these points:
    `validate` rejects the DGA, so the scan raises ValidationFailed before
    any grid."""
    dga, values = _not_a_complex_dga(), (0, 0, 2, 0, 1, 2)
    for ring in RINGS:
        augs = [Augmentation(ring, {"x": v}) for v in values]
        first = next(k for k, v in enumerate(values) if not ring.is_zero(v))
        assert first == (4 if ring == Zmod(2) else 2)
        for aug in augs[:first]:
            linearized_differential(dga, aug)
        with pytest.raises(NotAComplex) as info:
            linearized_differential(dga, augs[first])
        assert str(info.value) == "boundary squared is nonzero from degree 2"
    assert (validate(dga).grading_ok, validate(dga).d_squared_ok) == (True, False)
    _refuse_grids(monkeypatch)
    _assert_scan_refuses(dga)


def test_torsion_scan_refuses_an_invalid_dga_before_any_grid(monkeypatch):
    """A scan validates its DGA first, even where every point linearizes:
    on the t^-1 DGA every point the enumerators find linearizes, with
    d^2 = 0, but d d a != 0, so its LCH is not an invariant, and the scan
    raises ValidationFailed before any grid is enumerated."""
    tinv = _t_inverse_dga()
    assert not validate(tinv).d_squared_ok and validate(tinv).grading_ok
    points = [*enumerate_augmentations(tinv, Zmod(2)), *enumerate_augmentations(tinv, Zmod(3)),
              *enumerate_augmentations_bounded(tinv, 1)]
    assert len(points) == 4
    for aug in points:  # each linearizes, d^2 = 0 included
        linearized_differential(tinv, aug)
    _refuse_grids(monkeypatch)
    _assert_scan_refuses(_t_inverse_dga())


def test_enumerated_points_of_ill_graded_dgas_are_augmentations():
    """Every point the enumerators find on the ill-graded and random DGAs
    above passes `is_augmentation`, and every point of the grid that
    passes is found: constants on chords of any degree constrain the walk."""
    dgas = {id(dga): dga for dga, _ in _ill_graded_cases()}
    dgas.update({id(dga): dga for dga, _ in _random_cases()})
    found = 0
    for dga in dgas.values():
        names = dga.chords_of_degree(0)
        for ring, augs, domain in (
            (Zmod(2), enumerate_augmentations(dga, Zmod(2)), range(2)),
            (Zmod(3), enumerate_augmentations(dga, Zmod(3)), range(3)),
            (ZZ, enumerate_augmentations_bounded(dga, 1), range(-1, 2)),
        ):
            grid = [Augmentation(ring, dict(zip(names, values)))
                    for values in product(domain, repeat=len(names))]
            assert augs == [aug for aug in grid if is_augmentation(dga, aug)], (dga.name, ring)
            found += len(augs)
    assert len(dgas) > 300 and found > 1000
