from fractions import Fraction
import random
from itertools import product

import pytest

from lchkit.algebra import T_INV_SYMBOL, T_SYMBOL, Poly, evaluate, gen
from lchkit.augment import (
    Augmentation,
    enumerate_augmentations,
    enumerate_augmentations_bounded,
    is_augmentation,
    parse_augmentation_literal,
    tangent_space_dim,
)
from lchkit.dga import DGA, connected_sum, lambda0, lambda_k, unknot, validate
from lchkit.errors import (
    FieldRequired,
    InvalidParameter,
    InvalidValue,
    ParseError,
    SearchTooLarge,
    UnknownGenerator,
)
from lchkit.rings import QQ, ZZ, RingDesc, Zmod


def eps_n(n):
    return Augmentation(ZZ, {"a1": n, "a2": -1, "a3": 1, "a6": 1})


def eps_n_k(k, n):
    values = {"a1": n, "a2": -1, "a3": 1}
    values.update({f"a{i}": 1 for i in range(10, k + 11)})
    return Augmentation(ZZ, values)


def evaluates_to_zero(dga, ring, values):
    """Reference route: every differential under `evaluate` is 0 in the ring."""
    eps = {name: 0 for name, _ in dga.chords}
    eps.update(values)
    eps["t"] = -1
    return all(ring.is_zero(evaluate(dga.differential(c), eps)) for c, _ in dga.chords)


def brute_force_augmentations(dga, ring, domain=None):
    """Independent oracle: filter the whole value grid by full evaluation."""
    deg0 = dga.chords_of_degree(0)
    found = []
    for combo in product(ring.elements() if domain is None else domain, repeat=len(deg0)):
        if evaluates_to_zero(dga, ring, dict(zip(deg0, combo))):
            found.append(dict(zip(deg0, combo)))
    return found


def test_eps_n_is_augmentation():
    d = lambda0()
    for n in (-3, 0, 1, 2, 7, 12):
        assert is_augmentation(d, eps_n(n))


def test_non_augmentation_detected():
    d = lambda0()
    bad = Augmentation(ZZ, {"a1": 1, "a2": -1, "a3": 1, "a4": 1, "a6": 1})
    assert not is_augmentation(d, bad)


def test_lambda_k_augmentation_equation():
    d = lambda_k(2)
    ok = Augmentation(ZZ, {"a3": 1, "a10": 1, "a11": 1, "a12": 1})
    assert is_augmentation(d, ok)
    missing_chain = Augmentation(ZZ, {"a3": 1})
    assert not is_augmentation(d, missing_chain)


def test_nonzero_degree_value_rejected():
    d = lambda0()
    with pytest.raises(InvalidValue):
        is_augmentation(d, Augmentation(ZZ, {"a7": 1}))
    with pytest.raises(UnknownGenerator):
        is_augmentation(d, Augmentation(ZZ, {"zz": 1}))


def test_t_value_is_minus_one_canonically():
    assert Augmentation(ZZ, {}).t_value == -1
    assert Augmentation(Zmod(2), {}).t_value == 1
    assert Augmentation(Zmod(5), {}).t_value == 4


def test_values_canonicalized():
    aug = Augmentation(Zmod(3), {"a1": 5, "a2": 3})
    assert aug.values == {"a1": 2}
    with pytest.raises(InvalidValue):
        Augmentation(ZZ, {"a1": Fraction(1, 2)})
    with pytest.raises(InvalidValue) as err:
        Augmentation(Zmod(5), {"a1": 2}).reduction(5)
    assert str(err.value) == "reduction applies to integer augmentations"


def test_enumerate_lambda0_mod2_is_16():
    d = lambda0()
    augs = enumerate_augmentations(d, Zmod(2))
    assert len(augs) == 16
    oracle = brute_force_augmentations(d, Zmod(2))
    assert [dict(a.values) for a in augs] == [
        {k: v for k, v in sol.items() if v} for sol in oracle
    ]


def test_enumerator_matches_brute_force_on_builtins():
    """Degree-1 constraints alone reproduce the fully verified solution set."""
    for dga in (lambda0(), lambda_k(1), lambda_k(2), lambda_k(3), unknot()):
        for ring in (Zmod(2), Zmod(3)):
            augs = enumerate_augmentations(dga, ring)
            oracle = brute_force_augmentations(dga, ring)
            assert len(augs) == len(oracle)
            assert [dict(a.values) for a in augs] == [
                {k: v for k, v in sol.items() if v} for sol in oracle
            ]


def test_every_enumerated_augmentation_verifies():
    for dga in (lambda0(), lambda_k(1), lambda_k(2), unknot()):
        for ring in (Zmod(2), Zmod(3)):
            for aug in enumerate_augmentations(dga, ring):
                assert is_augmentation(dga, aug)


def test_unknot_has_one_augmentation():
    assert len(enumerate_augmentations(unknot(), Zmod(3))) == 1
    assert len(enumerate_augmentations_bounded(unknot(), 5)) == 1


def test_lambda1_mod2_forces_chain_to_one():
    augs = enumerate_augmentations(lambda_k(1), Zmod(2))
    assert augs
    for aug in augs:
        assert aug.value_of("a10") == 1 and aug.value_of("a11") == 1


def test_bounded_enumeration_contains_eps_n():
    d = lambda0()
    augs = enumerate_augmentations_bounded(d, 3)
    found = {tuple(sorted(a.values.items())) for a in augs}
    for n in range(-3, 4):
        assert tuple(sorted(eps_n(n).values.items())) in found
    # branch-2 point (a1..a6) = (0,0,1,0,0,1)
    branch2 = Augmentation(ZZ, {"a3": 1, "a6": 1})
    assert is_augmentation(d, branch2)
    assert tuple(sorted(branch2.values.items())) in {
        tuple(sorted(a.values.items())) for a in enumerate_augmentations_bounded(d, 1)
    }
    # with bound 0 nothing survives: every branch needs a value 1 somewhere
    assert enumerate_augmentations_bounded(d, 0) == []


def test_bounded_mod_p_reduction_is_augmentation():
    d = lambda0()
    for aug in enumerate_augmentations_bounded(d, 2):
        for p in (2, 3, 5):
            assert is_augmentation(d, aug.reduction(p))


def test_enumeration_order_is_lexicographic():
    d = lambda0()
    augs = enumerate_augmentations(d, Zmod(2))
    deg0 = d.chords_of_degree(0)
    tuples = [tuple(a.value_of(c) for c in deg0) for a in augs]
    assert tuples == sorted(tuples)


# d b = x*y - 1 constrains the grid; c is a closed degree-1 chord.
CLOSED_DEGREE_ONE = DGA(
    name="closed-c",
    chords=(("x", 0), ("y", 0), ("b", 1), ("c", 1)),
    diff={"b": gen("x") * gen("y") - 1},
)

# d b = x*x - 1 holds x twice, so the walk cannot solve for x and iterates it.
SQUARE = DGA(
    name="square",
    chords=(("x", 0), ("y", 0), ("b", 1), ("c", 1)),
    diff={"b": gen("x") * gen("x") - 1, "c": gen("x") * gen("y") - gen("y")},
)

# Over Z at bound 2, d b = x + y - 2 solves y = 2 - x, outside the window
# for x < 0; d c = 2z - xy solves z = xy/2, not an integer at x = y = 1.
WINDOWED = DGA(
    name="windowed",
    chords=(("x", 0), ("y", 0), ("z", 0), ("b", 1), ("c", 1)),
    diff={
        "b": gen("x") + gen("y") - 2,
        "c": 2 * gen("z") - gen("x") * gen("y"),
    },
)

# Above this many points the grid is filtered by `grid_filter` alone; the
# `is_augmentation` and `evaluate` filters cost about 20 us a point.
FULL_CHECK_POINTS = 10_000


def grid_filter(dga, ring, domain):
    """Reference route: the whole grid in lexicographic order, filtered by
    summing every differential's terms as `Poly.terms` holds them, with t
    and t^-1 at -1 and chords of nonzero degree at 0.  It shares nothing
    with the enumerator's walk or with `DGA.linear_plan`.
    """
    deg0 = dga.chords_of_degree(0)
    position = {name: i for i, name in enumerate(deg0)}
    polys = []
    for chord, _ in dga.chords:
        terms = []
        for word, c in dga.differential(chord).terms.items():
            letters = []
            for x in word:
                if x in (T_SYMBOL, T_INV_SYMBOL):
                    c = -c
                elif x in position:
                    letters.append(position[x])
                else:
                    break
            else:
                terms.append((c, letters))
        if terms:
            polys.append(terms)
    m = ring.modulus or 0
    found = []
    for combo in product(domain, repeat=len(deg0)):
        for terms in polys:
            total = 0
            for c, letters in terms:
                for i in letters:
                    c *= combo[i]
                total += c
            if total % m if m else total:
                break
        else:
            found.append({name: v for name, v in zip(deg0, combo) if v})
    return found


@pytest.mark.parametrize(
    "dga, ring, bound",
    [
        (lambda0(), Zmod(2), None),
        (lambda0(), Zmod(3), None),
        (lambda0(), ZZ, 1),
        (connected_sum(lambda_k(1), lambda0()), Zmod(2), None),
        (CLOSED_DEGREE_ONE, Zmod(5), None),
        (CLOSED_DEGREE_ONE, ZZ, 2),
        (lambda0(), Zmod(4), None),
        (lambda_k(1), Zmod(6), None),
        (lambda_k(1), Zmod(8), None),
        (CLOSED_DEGREE_ONE, Zmod(8), None),
        (SQUARE, Zmod(8), None),
        (SQUARE, ZZ, 2),
        (lambda0(), ZZ, 2),
        (WINDOWED, ZZ, 2),
        (WINDOWED, ZZ, 1),
        (lambda_k(3), ZZ, 1),
        (connected_sum(lambda_k(1), lambda0()), ZZ, 1),
    ],
    ids=["lambda0-Z/2", "lambda0-Z/3", "lambda0-bound1", "lambda1#lambda0-Z/2",
         "closed-c-Z/5", "closed-c-bound2", "lambda0-Z/4", "lambda1-Z/6", "lambda1-Z/8",
         "closed-c-Z/8", "square-Z/8", "square-bound2", "lambda0-bound2", "windowed-bound2",
         "windowed-bound1", "lambda3-bound1", "lambda1#lambda0-bound1"],
)
def test_enumerated_points_are_canonical_and_match_the_grid(dga, ring, bound):
    """Points built without coercion equal coerced ones; the list is the grid filter.

    The cases reach every branch of the walk's solver: a unit coefficient
    over a prime and over Z/4, Z/6, Z/8; a coefficient that is not a unit
    mod m (x*y = 1 at x = 2 mod 8); a term that holds the variable twice
    (x*x = 1); lambda0's a7 = -a1*a4 at a1 = 0, where the coefficient and
    the rest both vanish, and x*y = 1 at x = 0 over Z, where only the
    coefficient does; and over Z a quotient that is not an integer or lies
    outside the window.  Up to FULL_CHECK_POINTS grid points, the filter by
    `is_augmentation` is also checked against the reference route through
    `evaluate`.
    """
    if bound is None:
        augs, domain = enumerate_augmentations(dga, ring), ring.elements()
    else:
        augs, domain = enumerate_augmentations_bounded(dga, bound), range(-bound, bound + 1)
    for aug in augs:
        assert aug == Augmentation(ring, dict(aug.values))
        assert all(type(v) is int and not ring.is_zero(v) for v in aug.values.values())
    assert [dict(aug.values) for aug in augs] == grid_filter(dga, ring, domain)
    deg0 = dga.chords_of_degree(0)
    if len(domain) ** len(deg0) > FULL_CHECK_POINTS:
        return
    grid = (Augmentation(ring, dict(zip(deg0, combo))) for combo in product(domain, repeat=len(deg0)))
    filtered = [aug for aug in grid if is_augmentation(dga, aug)]
    assert augs == filtered
    oracle = brute_force_augmentations(dga, ring, domain)
    assert [dict(aug.values) for aug in filtered] == [
        {k: v for k, v in sol.items() if v} for sol in oracle
    ]


def _random_dga(rng, index):
    """2-5 degree-0 chords and 1-3 degree-1 chords whose differentials are
    sums of random words of length 0-3 in the degree-0 chords, letters
    repeated freely; d^2 = 0, as no chord has degree 2."""
    names = [f"x{i}" for i in range(rng.randint(2, 5))]
    rng.shuffle(names)
    diff = {}
    for b in range(rng.randint(1, 3)):
        p = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            word = Poly.one()
            for _ in range(rng.randint(0, 3)):
                word = word * gen(rng.choice(names))
            p = p + rng.choice((-3, -2, -1, 1, 2, 3)) * word
        diff[f"b{b}"] = p
    chords = [(name, 0) for name in names] + [(b, 1) for b in diff]
    return DGA(name=f"random{index}", chords=tuple(chords), diff=diff)


def test_walk_matches_the_grid_filter_on_a_random_corpus():
    """200 seeded DGAs, each over one of Z/2..Z/9 and over Z at bounds 0-2:
    the enumerated list, in order, is the filtered grid.  The walk visits
    the variables constraint-first, so without its final sort the order
    of the points would differ."""
    rng = random.Random(2024)
    nonempty = 0
    for index in range(200):
        dga = _random_dga(rng, index)
        ring = Zmod(2 + index % 8)
        augs = enumerate_augmentations(dga, ring)
        assert [dict(a.values) for a in augs] == grid_filter(dga, ring, ring.elements()), dga
        for bound in (0, 1, 2):
            augs = enumerate_augmentations_bounded(dga, bound)
            domain = range(-bound, bound + 1)
            assert [dict(a.values) for a in augs] == grid_filter(dga, ZZ, domain), (dga, bound)
            nonempty += bool(augs)
    assert nonempty > 100


def test_constant_term_on_a_degree_two_chord_is_checked():
    """An ill-graded constant on a degree-2 chord fails both routes at every point,
    also where the degree-1 constraint x^2 = 1 holds."""
    x = gen("x")
    d = DGA(
        name="ill-graded",
        chords=(("x", 0), ("b", 1), ("e", 2)),
        diff={"b": x * x - 1, "e": 1 + x * gen("b")},
    )
    assert not validate(d).grading_ok
    for ring in (Zmod(2), Zmod(3), Zmod(5)):
        assert any(ring.is_zero(v * v - 1) for v in ring.elements())
        for v in ring.elements():
            assert not is_augmentation(d, Augmentation(ring, {"x": v}))
            assert not evaluates_to_zero(d, ring, {"x": v})


def test_search_cap(monkeypatch):
    d = lambda0()
    monkeypatch.setenv("LCH_SEARCH_CAP", "100")
    with pytest.raises(SearchTooLarge):
        enumerate_augmentations(d, Zmod(5))
    monkeypatch.setenv("LCH_SEARCH_CAP", "1000")
    with pytest.raises(SearchTooLarge):
        enumerate_augmentations_bounded(d, 3)
    with pytest.raises(InvalidParameter):
        enumerate_augmentations(d, ZZ)


def test_degenerate_dga_full_grid():
    # no degree-1 chords: no constraints, the enumerators return the grid
    d = DGA(name="free", chords=(("x", 0), ("y", 0)))
    assert len(enumerate_augmentations(d, Zmod(3))) == 9
    assert len(enumerate_augmentations_bounded(d, 1)) == 9


def test_constant_constraint_kills_everything():
    from lchkit.algebra import Poly

    d = DGA(name="stuck", chords=(("x", 0), ("b", 1)), diff={"b": Poly.one()})
    assert enumerate_augmentations(d, Zmod(2)) == []


def test_tangent_space_dims():
    d = lambda0()
    # V1 cap V2: a1=0, a3=1, a4=0, a6=1 (a2, a5 free)
    for ring in (QQ, Zmod(5)):
        corner = Augmentation(ring, {"a3": 1, "a6": 1})
        assert tangent_space_dim(d, corner) == 4
        corner2 = Augmentation(ring, {"a2": 1, "a3": 1, "a5": 2, "a6": 1})
        assert tangent_space_dim(d, corner2) == 4
        # V1 minus V2: eps_2 has a1 = 2 != 0
        point = Augmentation(ring, {"a1": 2, "a2": -1, "a3": 1, "a6": 1})
        assert tangent_space_dim(d, point) == 3


def test_tangent_space_zero_differential():
    d = DGA(name="free", chords=(("x", 0), ("y", 0), ("z", 0)))
    assert tangent_space_dim(d, Augmentation(QQ, {})) == 3


def test_tangent_space_requires_field_and_augmentation():
    d = lambda0()
    with pytest.raises(FieldRequired):
        tangent_space_dim(d, eps_n(2))
    with pytest.raises(FieldRequired):
        tangent_space_dim(d, Augmentation(Zmod(6), {"a3": 1, "a6": 1}))
    from lchkit.errors import NotAnAugmentation

    with pytest.raises(NotAnAugmentation):
        tangent_space_dim(d, Augmentation(QQ, {"a1": 1, "a4": 1, "a6": 1}))


def test_literal_round_trip():
    aug = eps_n(2)
    assert aug.literal() == "a1=2, a2=-1, a3=1, a6=1 @ Z"
    again = parse_augmentation_literal(aug.literal())
    assert again == aug
    assert parse_augmentation_literal("@ Z/5") == Augmentation(Zmod(5), {})
    # Empty chunks between or after commas are skipped.
    assert parse_augmentation_literal("a1=1, , a2=2") == Augmentation(ZZ, {"a1": 1, "a2": 2})
    assert parse_augmentation_literal("a1=1,") == Augmentation(ZZ, {"a1": 1})
    assert parse_augmentation_literal("a1=2", default_ring=Zmod(3)) == Augmentation(
        Zmod(3), {"a1": 2}
    )


def test_literal_errors():
    with pytest.raises(ParseError):
        parse_augmentation_literal("a1")
    with pytest.raises(ParseError):
        parse_augmentation_literal("a1=x")
    with pytest.raises(ParseError):
        parse_augmentation_literal("a1=1, a1=2")
    with pytest.raises(ParseError):
        parse_augmentation_literal("a1=1 @ Z/5", default_ring=ZZ)
    with pytest.raises(ParseError):
        RingDesc.parse("GF(4)")
    # A chord name in a literal is a .dga identifier: [A-Za-z_][A-Za-z0-9_#]*.
    for text, name in (("#=1", "#"), ("1#=2", "1#"), ("a b#=1", "a b#"), ("é=1", "é")):
        with pytest.raises(ParseError) as err:
            parse_augmentation_literal(text)
        assert str(err.value) == f"bad chord name {name!r} in augmentation literal"
    assert parse_augmentation_literal("a1#2=1").values == {"a1#2": 1}


def test_literal_order_does_not_depend_on_insertion():
    one = Augmentation(ZZ, {"x1": 1, "x01": 2})
    other = Augmentation(ZZ, {"x01": 2, "x1": 1})
    assert one.literal() == other.literal() == "x01=2, x1=1 @ Z"


def test_enumeration_over_composite_modulus():
    # Z/4 is a legal enumeration ring even though it is not a field
    d = lambda0()
    augs = enumerate_augmentations(d, Zmod(4))
    oracle = brute_force_augmentations(d, Zmod(4))
    assert [dict(a.values) for a in augs] == [
        {k: v for k, v in sol.items() if v} for sol in oracle
    ]
    for aug in augs:
        assert is_augmentation(d, aug)


def test_fraction_valued_rational_augmentation():
    # branch 1 of lambda0 with non-integer coordinates:
    # 1/2 + 1/4 + (1/2)(2)(1/4) = 1
    d = lambda0()
    aug = Augmentation(
        QQ, {"a1": Fraction(1, 2), "a2": 2, "a3": Fraction(1, 4), "a6": 1}
    )
    assert is_augmentation(d, aug)
    assert tangent_space_dim(d, aug) == 3  # a1 != 0 keeps it off V2


def test_shortcut_equivalence_on_connected_sum():
    """Degree-1 constraints alone give the same augmentations as full checks."""
    s = connected_sum(unknot(), lambda_k(1))
    for ring in (Zmod(2), Zmod(3)):
        augs = enumerate_augmentations(s, ring)
        oracle = brute_force_augmentations(s, ring)
        assert [dict(a.values) for a in augs] == [
            {k: v for k, v in sol.items() if v} for sol in oracle
        ]
        for aug in augs:
            assert aug.value_of("c") == ring.coerce(-1)
