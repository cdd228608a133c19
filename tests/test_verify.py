import pytest

from lchkit.algebra import Poly, t_gen
from lchkit.augment import Augmentation, enumerate_augmentations
from lchkit.dga import DGA, connected_sum, lambda0, lambda_k, unknot
from lchkit.errors import FieldRequired, InvalidParameter, RingMismatch, SearchTooLarge
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
    with pytest.raises(FieldRequired):
        sabloff_check(lambda0(), eps_n(2))
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
    assert even.tb_value() == 2
    assert positivity_check(even, Augmentation(ZZ, {})) is Positivity.HOLDS
    # tb + 1 = -1 < 0: the group has no degree-0 part, and H_1 = Z^2 is not Z
    negative = DGA(
        name="neg",
        chords=(("b1", 1), ("b2", 1)),
        diff={"b1": t_gen + Poly.one(), "b2": t_gen + Poly.one()},
    )
    assert negative.tb_value() == -2
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
    import lchkit.verify as verify_module

    calls = []
    real = verify_module.linearized_differential

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify_module, "linearized_differential", counting)
    with pytest.raises(InvalidParameter, match="bound must be >= 0"):
        torsion_scan(lambda0(), [2, 3, 5], bound=-1)
    with pytest.raises(SearchTooLarge, match=r"5\^6 assignments exceeds cap 1000"):
        torsion_scan(lambda0(), [2, 3, 5], bound=1, cap=1000)
    assert calls == []


def test_additivity_examples():
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
