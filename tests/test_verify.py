from functools import cached_property

import pytest

from lchkit.algebra import Poly, t_gen
from lchkit.augment import (
    Augmentation,
    enumerate_augmentations,
    enumerate_augmentations_bounded,
    parse_augmentation_literal,
)
from lchkit.dga import DGA, connected_sum, euler_tb, lambda0, lambda_k, unknot
from lchkit.errors import FieldRequired, InvalidParameter, RingMismatch, SearchTooLarge
from lchkit import verify
from lchkit.homology import GradedHomology, HomologyGroup, field_homology, integral_homology
from lchkit.linearize import ChainComplex, linearized_differential
from lchkit.rings import QQ, ZZ, Zmod
from lchkit.verify import (
    Positivity,
    connected_sum_additivity_check,
    filling_obstruction,
    positivity_check,
    sabloff_check,
    torsion_scan,
)


def eps_n(n, ring=ZZ):
    return Augmentation(ring, {"a1": n, "a2": -1, "a3": 1, "a6": 1})


def eps_n_k(k, n, ring=ZZ):
    values = {"a1": n, "a2": -1, "a3": 1}
    values.update({f"a{i}": 1 for i in range(10, k + 11)})
    return Augmentation(ring, values)


def test_sabloff_lambda0_mod2():
    report = sabloff_check(lambda0(), eps_n(2).reduction(2))
    assert report.duality_ok
    assert report.dims == {1: 2, 0: 4, -1: 1}
    assert report.degree1_excess == 1


def test_sabloff_lambda0_rationals():
    report = sabloff_check(lambda0(), eps_n(5, ring=QQ))
    assert report.duality_ok
    assert report.dims == {1: 1, 0: 2}


def test_sabloff_unknot():
    report = sabloff_check(unknot(), Augmentation(Zmod(3), {}))
    assert report.duality_ok
    assert report.dims == {1: 1}
    assert "duality holds" in report.format_report()


def test_sabloff_needs_field():
    # Z is read integrally; a ring that is neither Z nor a field is refused.
    report = sabloff_check(lambda0(), eps_n(2))
    assert report.duality_ok
    assert report.dims == {1: 1, 0: 2}
    assert report.homology == GradedHomology(
        {1: HomologyGroup(1), 0: HomologyGroup(2, (2,)), -1: HomologyGroup(0, (2,))}
    )
    with pytest.raises(FieldRequired):
        sabloff_check(lambda0(), eps_n(2).reduction(6))


def test_sabloff_every_enumerated_augmentation():
    singles = [lambda0(), lambda_k(1), lambda_k(2), lambda_k(3), unknot()]
    for dga in singles:
        for p in (2, 3, 5):
            for aug in enumerate_augmentations(dga, Zmod(p)):
                assert sabloff_check(dga, aug).duality_ok
    # all pairwise connected sums, over the smallest field
    for i, d1 in enumerate(singles):
        for d2 in singles[i:]:
            summed = connected_sum(d1, d2)
            for aug in enumerate_augmentations(summed, Zmod(2)):
                assert sabloff_check(summed, aug).duality_ok


def test_positivity_unknot_and_synthetic():
    assert positivity_check(unknot(), Augmentation(ZZ, {})) is Positivity.HOLDS
    synthetic = DGA(
        name="pos",
        chords=(("x", 0), ("y", 0), ("b", 1)),
        diff={"b": t_gen + Poly.one()},
    )
    assert positivity_check(synthetic, Augmentation(ZZ, {})) is Positivity.HOLDS
    assert positivity_check(synthetic, Augmentation(ZZ, {"x": 3})) is Positivity.HOLDS
    # even tb = 2: the filling group is still Z + Z^3, with no parity condition
    even = DGA(
        name="even",
        chords=(("x", 0), ("y", 0), ("z", 0), ("b", 1)),
        diff={"b": t_gen + Poly.one()},
    )
    assert euler_tb(even) == 2
    assert positivity_check(even, Augmentation(ZZ, {})) is Positivity.HOLDS
    # tb + 1 = -1 < 0: the group has no degree-0 part, and H_1 = Z^2 is not Z
    negative = DGA(
        name="neg",
        chords=(("b1", 1), ("b2", 1)),
        diff={"b1": t_gen + Poly.one(), "b2": t_gen + Poly.one()},
    )
    assert euler_tb(negative) == -2
    assert positivity_check(negative, Augmentation(ZZ, {})) is Positivity.FAILS


def test_positivity_not_applicable_for_lambda0():
    assert positivity_check(lambda0(), eps_n(2)) is Positivity.NOT_APPLICABLE


def test_positivity_fails_when_torsion_sneaks_in():
    # all chords nonnegative but homology is not the forced shape
    twisted = DGA(
        name="tw",
        chords=(("x", 0), ("b", 1)),
        diff={"b": t_gen + Poly.one() + 2 * Poly.gen("x")},
    )
    # d^eps b = 2x after linearizing at x = 0; H_0 = Z/2, H_1 = 0
    assert positivity_check(twisted, Augmentation(ZZ, {})) is Positivity.FAILS


def test_positivity_needs_integer_augmentation():
    with pytest.raises(RingMismatch):
        positivity_check(unknot(), Augmentation(Zmod(2), {}))


def test_obstruction_lambda1():
    verdict = filling_obstruction(lambda_k(1), eps_n_k(1, 3).reduction(3))
    assert verdict.total_dim == 7
    assert verdict.expected_filling_dim == 3
    assert not verdict.geometric_possible


def test_obstruction_silent_cases():
    verdict = filling_obstruction(unknot(), Augmentation(Zmod(3), {}))
    assert verdict.total_dim == 1 == verdict.expected_filling_dim
    assert verdict.geometric_possible
    # lambda0 over Q at eps_n with n != 0: dims {1:1, 0:2}, total 3 = tb + 2
    verdict = filling_obstruction(lambda0(), eps_n(5, ring=QQ))
    assert verdict.total_dim == 3 == verdict.expected_filling_dim
    assert verdict.geometric_possible


def test_obstruction_over_z_sees_the_torsion_mod_2_misses():
    # eps_5 on lambda0: H_0 = Z^2 + Z/5 and H_-1 = Z/5, which pair under
    # duality.  The free ranks match the filling group, so only Z and Z/5
    # see the obstruction.
    verdict = filling_obstruction(lambda0(), eps_n(5))
    assert (verdict.total_dim, verdict.expected_filling_dim) == (3, 3)
    assert not verdict.geometric_possible
    assert verdict.reason == "H_0 has torsion [5], H_-1 has torsion [5]; the Seidel isomorphism forces free LCH"
    assert sabloff_check(lambda0(), eps_n(5)).duality_ok
    assert filling_obstruction(lambda0(), eps_n(5).reduction(2)).geometric_possible
    assert filling_obstruction(lambda0(), eps_n(5).reduction(5)).total_dim == 7


def test_obstruction_compares_degree_by_degree():
    # The totals agree (5 = tb + 2), but a filling forces Q in degree 1 and
    # Q^4 in degree 0, and nothing in degrees 2 and -2.
    dims = {2: 1, 1: 1, 0: 2, -2: 1}
    homology = GradedHomology({d: HomologyGroup(n) for d, n in dims.items()})
    verdict = verify.ObstructionVerdict("Q", homology, 3)
    assert (verdict.total_dim, verdict.expected_filling_dim) == (5, 5)
    assert not verdict.geometric_possible
    assert verdict.reason == (
        "dimensions by degree {2: 1, 1: 1, 0: 2, -2: 1} != {1: 1, 0: 4} forced by the Seidel isomorphism"
    )


def test_obstruction_even_tb():
    flat = DGA(name="even", chords=(("x", 0), ("y", 0)))
    verdict = filling_obstruction(flat, Augmentation(Zmod(2), {}))
    assert verdict.expected_filling_dim is None
    assert not verdict.geometric_possible
    assert "no orientable" in verdict.reason


def test_torsion_scan_lambda0():
    report = torsion_scan(lambda0(), [2, 3], bound=3)
    assert set(report.flagged_primes) == {2, 3}
    for p in (2, 3):
        assert len(report.prime_classes[p]) == 2
    # degree-0 dims 4 vs 2 distinguish the classes mod 2
    dims_sets = {dict(cls.dims).get(0) for cls in report.prime_classes[2]}
    assert dims_sets == {2, 4}
    # eps_n values within the bound show Z/n torsion integrally
    literals = dict(report.integral_torsion)
    key = eps_n(2).literal()
    assert key in literals
    assert dict(literals[key])[0] == (2,)
    assert report.torsion_free_count > 0
    text = report.format_report()
    assert "dimension jump" in text


def test_torsion_scan_unknot():
    report = torsion_scan(unknot(), [2, 3, 5], bound=2)
    assert report.flagged_primes == ()
    assert all(len(cls) == 1 for cls in report.prime_classes.values())
    assert report.integral_torsion == ()


def test_torsion_scan_lambda2_case_split():
    report = torsion_scan(lambda_k(2), [5])
    assert report.flagged_primes == (5,)
    assert len(report.prime_classes[5]) == 2
    totals = sorted(sum(v for _, v in cls.dims) for cls in report.prime_classes[5])
    assert totals == [3, 7]


def test_torsion_scan_rejects_composite():
    with pytest.raises(FieldRequired):
        torsion_scan(lambda0(), [4])


def test_torsion_scan_checks_every_grid_before_any_homology(monkeypatch):
    """Every grid is enumerated before any point is linearized, and each
    point of each grid, in grid order, builds exactly one checked complex."""
    import lchkit.verify as verify_module

    events = []
    for name in ("enumerate_augmentations", "enumerate_augmentations_bounded"):
        def enumerate_grid(*args, real=getattr(verify_module, name), **kwargs):
            grid = real(*args, **kwargs)
            events.append(("grid",))
            return grid
        monkeypatch.setattr(verify_module, name, enumerate_grid)
    check = ChainComplex.check_square_zero
    monkeypatch.setattr(ChainComplex, "check_square_zero",
                        lambda self: events.append(("checked", self)) or check(self))
    real_grid = verify_module.linearized_grid

    def grid(dga, ring, augs):
        for aug, complex_ in zip(augs, real_grid(dga, ring, augs)):
            events.append(("point", dga, aug, complex_))
            yield complex_

    monkeypatch.setattr(verify_module, "linearized_grid", grid)
    with pytest.raises(InvalidParameter, match="bound must be >= 0"):
        torsion_scan(lambda0(), [2, 3, 5], bound=-1)
    with monkeypatch.context() as env:
        env.setenv("LCH_SEARCH_CAP", "1000")
        with pytest.raises(SearchTooLarge, match=r"5\^6 assignments exceeds cap 1000"):
            torsion_scan(lambda0(), [2, 3, 5], bound=1)
    assert all(kind == "grid" for kind, *_ in events)
    # The count is live: a scan that runs builds one checked complex per grid point.
    events.clear()
    dga = lambda0()
    torsion_scan(dga, [2, 3], bound=1)
    points = [*enumerate_augmentations(dga, Zmod(2)), *enumerate_augmentations(dga, Zmod(3)),
              *enumerate_augmentations_bounded(dga, 1)]
    assert len(points) > 100
    assert events[:3] == [("grid",)] * 3
    built, yielded = events[3::2], events[4::2]
    assert len(built) == len(yielded) == len(points) and len(events) == 3 + 2 * len(points)
    assert [(kind, dga_, aug) for kind, dga_, aug, _ in yielded] == [("point", dga, aug) for aug in points]
    for (kind, checked), (*_, aug, complex_) in zip(built, yielded):
        assert kind == "checked" and checked is complex_
        assert complex_.ring == aug.ring and complex_.rows == linearized_differential(dga, aug).rows


def test_torsion_scan_compiles_the_plan_once_per_dga(monkeypatch):
    """Every point of every grid is linearized from one compiled plan."""
    import lchkit.linearize as linearize_module
    import lchkit.verify as verify_module

    compiled, took_plan, one_shot = [], [], []
    compile_plan = DGA.linear_plan.func

    def counting(dga):
        compiled.append(dga.name)
        return compile_plan(dga)

    plan = cached_property(counting)
    plan.__set_name__(DGA, "linear_plan")
    monkeypatch.setattr(DGA, "linear_plan", plan)
    for module in (linearize_module, verify_module):
        monkeypatch.setattr(module, "linearized_differential", lambda *args: one_shot.append(args))
    real_grid = verify_module.linearized_grid

    def grid(dga, ring, augs):
        for complex_ in real_grid(dga, ring, augs):
            took_plan.append("linear_plan" in vars(dga))
            yield complex_

    monkeypatch.setattr(verify_module, "linearized_grid", grid)
    for dga in (lambda0(), connected_sum(lambda_k(1), unknot())):
        torsion_scan(dga, [2, 3], bound=1)
    assert compiled == ["lambda0", "lambda1#unknot"]
    assert len(took_plan) > 100 and all(took_plan) and one_shot == []


# Two-summand sums have 12 degree-0 chords, so their grids over Z/5, Z/7
# and at bound 2 pass the default cap; the walk still finds their points
# quickly.
ORACLE_CAP = 7**12


def _reference_classes(dga, p):
    """(dims, count, example) per class over Z/p, from `field_homology`
    point by point."""
    ring = Zmod(p)
    groups = {}
    for aug in enumerate_augmentations(dga, ring):
        dims = field_homology(linearized_differential(dga, aug), ring)
        groups.setdefault(tuple(sorted(dims.items())), []).append(aug)
    return [(dims, len(augs), augs[0].literal()) for dims, augs in sorted(groups.items())]


def _reference_torsion(dga, bound):
    """(torsion literals in grid order, torsion-free count), from
    `integral_homology` point by point."""
    torsion, free = [], 0
    for aug in enumerate_augmentations_bounded(dga, bound):
        H = integral_homology(linearized_differential(dga, aug))
        found = tuple((d, g.torsion) for d, g in sorted(H.groups.items()) if g.torsion)
        if found:
            torsion.append((aug.literal(), found))
        else:
            free += 1
    return torsion, free


@pytest.mark.parametrize(
    "dga, primes",
    [
        pytest.param(dga, primes, id=dga.name)
        for dga, primes in [
            (unknot(), [2, 3, 5, 7]),
            (lambda0(), [2, 3, 5, 7]),
            *((lambda_k(k), [2, 3, 5, 7]) for k in range(1, 5)),
            # Z/7 has 32550 points on a sum with lambda0, which would take
            # the scan and its reference about 8 s.
            (connected_sum(lambda0(), lambda_k(1)), [2, 3, 5]),
            (connected_sum(lambda_k(1), lambda0()), [2, 3, 5]),
            (connected_sum(lambda_k(1), lambda_k(2)), [2, 3, 5, 7]),
        ]
    ],
)
def test_torsion_scan_matches_homology_point_by_point(dga, primes, monkeypatch):
    """The scan assembles homology once per invariant vector; a reference
    that computes every point's homology must give the same report.  The
    Z/p grids do not depend on the bound, so they are scanned once."""
    monkeypatch.setenv("LCH_SEARCH_CAP", str(ORACLE_CAP))
    for bound in (0, 1, 2):
        report = torsion_scan(dga, primes if bound == 2 else [], bound=bound)
        torsion, free = _reference_torsion(dga, bound)
        assert list(report.integral_torsion) == torsion, bound
        assert report.torsion_free_count == free, bound
    assert list(report.prime_classes) == primes
    for p in primes:
        got = [(c.dims, c.count, c.example) for c in report.prime_classes[p]]
        assert got == _reference_classes(dga, p), p


def test_additivity_examples(monkeypatch):
    l0, l1, l2 = lambda0(), lambda_k(1), lambda_k(2)
    u = unknot()
    empty = Augmentation(ZZ, {})
    cases = [
        (l0, eps_n(2), l1, eps_n_k(1, 3)),
        (u, empty, u, empty),
        (l2, eps_n_k(2, 4), l2, eps_n_k(2, 6)),
        (l0, eps_n(3), u, empty),
        (l1, eps_n_k(1, 2), l2, eps_n_k(2, 5)),
    ]
    for d1, a1, d2, a2 in cases:
        assert connected_sum_additivity_check(d1, a1, d2, a2)
    # With every homology read as the same Z in degree 2, the sum's H_2 is
    # not the direct sum Z^2 of the summands'.
    monkeypatch.setattr(verify, "integral_homology", lambda C: GradedHomology({2: HomologyGroup(1)}))
    assert connected_sum_additivity_check(l0, eps_n(2), u, empty) is False


def test_additivity_ring_rules():
    with pytest.raises(RingMismatch):
        connected_sum_additivity_check(
            unknot(), Augmentation(ZZ, {}), unknot(), Augmentation(Zmod(2), {})
        )
    with pytest.raises(RingMismatch):
        connected_sum_additivity_check(
            unknot(), Augmentation(Zmod(2), {}), unknot(), Augmentation(Zmod(2), {})
        )


def test_reports_have_json_forms():
    rep = sabloff_check(lambda0(), eps_n(2).reduction(2))
    obj = rep.to_json_obj()
    assert obj["duality_ok"] is True and obj["dims"]["0"] == 4
    verdict = filling_obstruction(unknot(), Augmentation(Zmod(3), {}))
    assert verdict.to_json_obj()["total_dim"] == 1
    scan = torsion_scan(unknot(), [2])
    assert scan.to_json_obj()["flagged_primes"] == []


@pytest.mark.parametrize(
    "dga, points, silent",
    [pytest.param(lambda0(), 140, 56, id="lambda0")]
    + [pytest.param(lambda_k(k), 10, 4, id=f"lambda{k}") for k in range(1, 5)],
)
def test_mod2_obstruction_is_silent_exactly_at_odd_torsion(dga, points, silent):
    """At each integral torsion point with |values| <= 3, the field
    obstruction of the reduction mod 2 is silent exactly when every
    torsion order is odd.  This is the mod-2 half of the paper's
    consequence; it says nothing of the integral points themselves."""
    report = torsion_scan(dga, [], bound=3)
    odd = []
    for literal, torsion in report.integral_torsion:
        aug = parse_augmentation_literal(literal)
        odd.append(all(n % 2 for _, orders in torsion for n in orders))
        assert filling_obstruction(dga, aug.reduction(2)).geometric_possible == odd[-1], literal
    assert (len(odd), sum(odd)) == (points, silent)


@pytest.mark.parametrize(
    "dga, eps_1, points, fires, odd_torsion",
    [pytest.param(lambda0(), eps_n(1), 427, 189, 56, id="lambda0")]
    + [pytest.param(lambda_k(k), eps_n_k(k, 1), 34, 17, 4, id=f"lambda{k}") for k in range(1, 5)],
)
def test_integral_obstruction_fires_at_every_torsion_point(dga, eps_1, points, fires, odd_torsion):
    """The Z half of the paper's consequence, at |values| <= 3: over Z the
    obstruction fires at every integral torsion point, so none of them is
    induced by a filling, and the points where it fires over Z but is
    silent mod 2 are exactly those whose torsion orders are all odd.
    Silence proves nothing: eps_1 is silent, and whether a filling induces
    it is geometry that no computation here decides."""
    torsion = dict(torsion_scan(dga, [], bound=3).integral_torsion)
    odd = {lit for lit, t in torsion.items() if all(n % 2 for _, orders in t for n in orders)}
    bounded = enumerate_augmentations_bounded(dga, 3)
    fired = [aug for aug in bounded if not filling_obstruction(dga, aug).geometric_possible]
    assert torsion.keys() <= {aug.literal() for aug in fired}
    silent_mod2 = {
        aug.literal() for aug in fired if filling_obstruction(dga, aug.reduction(2)).geometric_possible
    }
    assert silent_mod2 == odd
    assert (len(bounded), len(fired), len(odd)) == (points, fires, odd_torsion)
    assert filling_obstruction(dga, eps_1).geometric_possible
