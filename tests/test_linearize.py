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
from lchkit.dga import DGA, connected_sum, connected_sum_augmented, lambda0, lambda_k, unknot
from lchkit.errors import (
    InvalidValue,
    LchError,
    NotAComplex,
    NotAnAugmentation,
    UnknownGenerator,
    ValidationFailed,
)
from lchkit import linearize
from lchkit.linearize import ChainComplex, grid_rows, linearized_differential, linearized_grid
from lchkit.rings import QQ, ZZ, Zmod


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


def _t_inverse_dga():
    x, y, z, b = gen("x"), gen("y"), gen("z"), gen("b")
    return DGA(
        name="tinv",
        chords=(("x", 0), ("y", 0), ("z", -1), ("a", 1), ("b", 1)),
        diff={
            "a": t_inv_gen * x - x * y * t_gen + 1 + z * b,
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
        tinv = _t_inverse_dga()
        if ring.is_finite:
            domain = list(ring.elements())
        elif ring == ZZ:
            domain = range(-2, 3)
        else:
            domain = [-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2]
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
    which reads the words and must compile nothing, and `linearized_grid`
    runs over the grid on `dga` itself after its plan is read, which sums
    the plan.  At each point the word route must raise the reference's
    first failure (d^2 = 0 last), with its type and message, or build the
    reference's columns.  At every point before its first failing point,
    the rows built from the grid's layout and the point's values must be
    the word route's, with the same keys in the same order, and at that
    point the grid must raise its failure; the points after it are run
    again as a grid of their own.  Returns each point's failure type, or
    None where it linearizes.
    """
    fresh = DGA(dga.name, dga.chords, dga.diff)
    dga.linear_plan
    failures = []
    while augs:
        layout, grid = linearized_grid(dga, augs[0].ring, augs)
        assert list(layout) == dga.boundary_degrees
        for k, aug in enumerate(augs):
            expected = _first_failure(dga, aug) or _square_failure(dga, aug)
            failures.append(None if expected is None else expected[0])
            if expected is not None:
                for route in (lambda: linearized_differential(fresh, aug), lambda: next(grid)):
                    with pytest.raises(LchError) as info:
                        route()
                    assert (type(info.value), str(info.value)) == expected
                augs = augs[k + 1 :]
                break
            eps = aug.eps_map(dga)
            one_pass, point = linearized_differential(fresh, aug), next(grid)
            _assert_reference_columns(one_pass, dga, eps)
            assert _rows_in_order(one_pass.rows) == _rows_in_order(_point_rows(layout, point))
            assert one_pass.basis is fresh.basis
        else:
            augs = []
        assert next(grid, None) is None
    assert "linear_plan" not in vars(fresh)
    return failures


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


def test_compiled_route_matches_reference_route():
    """Both routes, one pass on a fresh DGA and `linearized_grid` on a DGA
    that holds its plan, equal algebra.evaluate and s_linear_part."""
    complexes = rejected = 0
    for dga, aug in _compiled_route_cases():
        ring = aug.ring
        eps = aug.eps_map(dga)
        expected = all(ring.is_zero(evaluate(p, eps)) for p in dga.diff.values())
        assert is_augmentation(dga, aug) == expected
        assert _check_routes(dga, [aug]) == [None if expected else NotAnAugmentation]
        complexes += expected
        rejected += not expected
    assert complexes > 400 and rejected > 100

    # Ill-graded DGAs: the first failure, its type and its message are pinned.
    seen = {None: 0, NotAnAugmentation: 0, ValidationFailed: 0}
    for dga, aug in _ill_graded_cases():
        [failure] = _check_routes(dga, [aug])
        seen[failure] += 1
    assert min(seen.values()) > 10

    # Random DGAs need not be complexes: where nothing else fails first,
    # both routes must raise the reference's NotAComplex.  Each DGA's
    # points over one ring form one grid.
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


def test_grid_raises_at_its_first_failing_point():
    """A grid yields the points before its first failing point, each with
    the rows of `linearized_differential` there, then raises what
    `linearized_differential` raises there, whatever fails at the points
    after it."""
    d, ill, ring = lambda0(), _ill_graded_dga(False), Zmod(3)
    ill_points = [Augmentation(ring, {"x": vx, "y": vy, "z": vz})
                  for vx, vy, vz in product(range(3), repeat=3)]
    # Only x = 2 linearizes (y = z = 0 and 1 + x = 0), so that point repeats.
    ill_good = [aug for aug in ill_points if _first_failure(ill, aug) is None]
    lambda0_bad = {
        NotAnAugmentation: Augmentation(ring, {"a1": 1, "a3": 1, "a6": 1}),
        UnknownGenerator: Augmentation(ring, {"a1": 2, "zz": 1}),
        InvalidValue: Augmentation(ring, {"a1": 2, "a7": 1}),
    }
    cases = [(d, enumerate_augmentations(d, ring), lambda0_bad),
             # At x = 2, z = 1 every constant vanishes; only d e has an entry, z, on x.
             (ill, ill_good * 4, {ValidationFailed: Augmentation(ring, {"x": 2, "z": 1}),
                                  NotAnAugmentation: Augmentation(ring, {"z": 1})})]
    raised = set()
    for dga, good, bad in cases:
        assert len(good) >= 4
        for error, point in bad.items():
            later = [aug for aug in bad.values() if aug is not point]
            augs = [*good[:2], point, *good[2:4], *later]
            layout, grid = linearized_grid(dga, ring, augs)
            for aug in augs[:2]:
                assert (_rows_in_order(_point_rows(layout, next(grid)))
                        == _rows_in_order(linearized_differential(dga, aug).rows))
            with pytest.raises(LchError) as expected:
                linearized_differential(dga, point)
            with pytest.raises(error) as info:
                next(grid)
            assert str(info.value) == str(expected.value)
            assert next(grid, None) is None
            raised.add(error)
    assert raised == {NotAnAugmentation, ValidationFailed, UnknownGenerator, InvalidValue}


def _not_a_complex_dga():
    """d a = y and d b = x*a: the grading is valid, but d d b = x*y, so the
    linearization is a complex exactly where eps(x) = 0 (eps(y) = 0 always)."""
    x, y, a = gen("x"), gen("y"), gen("a")
    return DGA(name="square", chords=(("x", 0), ("y", 0), ("a", 1), ("b", 2)),
               diff={"a": y, "b": x * a})


def test_grid_raises_d_squared_mid_grid():
    """On an unvalidated DGA, a grid yields the points before the first
    where d^2 != 0 in the ring, then raises the NotAComplex of
    `linearized_differential` there: eps(x) = 2 fails over Z/4, Z and Q,
    but not over Z/2, where the product 2 is 0."""
    dga, values = _not_a_complex_dga(), (0, 0, 2, 0, 1, 2)
    for ring in RINGS:
        augs = [Augmentation(ring, {"x": v}) for v in values]
        first = next(k for k, v in enumerate(values) if not ring.is_zero(v))
        assert first == (4 if ring == Zmod(2) else 2)
        layout, grid = linearized_grid(dga, ring, augs)
        for aug in augs[:first]:
            assert (_rows_in_order(_point_rows(layout, next(grid)))
                    == _rows_in_order(linearized_differential(dga, aug).rows))
        with pytest.raises(NotAComplex) as expected:
            linearized_differential(dga, augs[first])
        with pytest.raises(NotAComplex) as info:
            next(grid)
        assert str(info.value) == str(expected.value) == "boundary squared is nonzero from degree 2"
        assert next(grid, None) is None


def test_grid_never_ends_early_without_an_error(monkeypatch):
    """A point the grid marks as failing that `linearized_differential`
    accepts after all raises an internal error naming it, not LchError, so
    a scan cannot count fewer points in silence; a grid of a DGA without
    chords yields every point."""
    ring = Zmod(3)
    layout, grid = linearized_grid(DGA(name="none", chords=()), ring, [Augmentation(ring, {})] * 3)
    assert layout == {} and list(grid) == [()] * 3
    dga = lambda0()
    good = enumerate_augmentations(dga, ring)
    bad = Augmentation(ring, {"a1": 1, "a3": 1, "a6": 1})
    monkeypatch.setattr(linearize, "linearized_differential", lambda dga, aug: None)
    layout, grid = linearized_grid(dga, ring, [*good[:2], bad, good[2]])
    assert len([next(grid), next(grid)]) == 2
    with pytest.raises(RuntimeError, match="^grid point 2 was marked as failing, but it linearizes$"):
        next(grid)
    assert not issubclass(RuntimeError, LchError)


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
