import pytest

from lchkit.algebra import Poly, gen, t_gen, t_inv_gen
from lchkit.augment import Augmentation
from lchkit.cli import run
from lchkit.dga import (
    DGA,
    MAX_FAMILY_INDEX,
    _connected_sum_augmented,
    _connected_sum_parts,
    _family_member_for_grading,
    connected_sum,
    connected_sum_augmented,
    differentiate,
    euler_tb,
    geography_dga,
    lambda0,
    lambda_k,
    unknot,
    validate,
)
from lchkit.dgafile import parse
from lchkit.errors import (
    InvalidParameter,
    NotAUnit,
    RingMismatch,
    UnknownGenerator,
    ValidationFailed,
)
from lchkit.homology import integral_homology
from lchkit.linearize import linearized_differential
from lchkit.rings import ZZ, Zmod


def test_lambda0_data():
    d = lambda0()
    assert len(d.chords) == 11
    assert d.degree_of("a7") == 1 and d.degree_of("a11") == -1
    assert d.differential("a5") == -(gen("a11") * gen("a1"))
    assert d.differential("a1") == Poly.zero()
    a4, a5, a6, a7, a11 = (gen(f"a{i}") for i in (4, 5, 6, 7, 11))
    assert d.differential("a10") == Poly.one() - a4 - a6 - a6 * a5 * a4 - a6 * a11 * a7


def test_lambda0_validates():
    report = validate(lambda0())
    assert report.ok and report.grading_ok and report.d_squared_ok
    assert report.failures == ()


def test_lambda_k_validates():
    for k in (1, 2, 3, 4, 5, 6):
        assert validate(lambda_k(k)).ok


def test_lambda_k_data():
    d1 = lambda_k(1)
    assert d1.differential("a7") == gen("a6") * gen("a1")
    d2 = lambda_k(2)
    assert d2.degree_of("a6") == -3
    assert d2.differential("a13") == Poly.one() - gen("a10") * gen("a11")
    assert len(d2.chords) == 15
    # sign alternates with k
    assert lambda_k(2).differential("a7") == -(gen("a6") * gen("a1"))


def test_lambda_k_rejects_bad_k():
    with pytest.raises(InvalidParameter):
        lambda_k(0)
    with pytest.raises(InvalidParameter, match=r"^lambda_k needs k >= 1, got -2$"):
        lambda_k(-2)
    # Too long for str(): the message gives the digit count.
    with pytest.raises(InvalidParameter, match=r"^lambda_k needs k >= 1, got -<5001 digits>$"):
        lambda_k(-10**5000)
    for k in (MAX_FAMILY_INDEX + 1, 10**5000):
        with pytest.raises(InvalidParameter, match=f"^lambda_k needs k <= {MAX_FAMILY_INDEX}$"):
            lambda_k(k)


def test_grading_failure_detected():
    bad = DGA(name="bad", chords=(("a", 0), ("b", 0)), diff={"a": gen("b")})
    report = validate(bad)
    assert not report.grading_ok
    assert [c for c, _ in report.failures] == ["a"]


def test_d_squared_failure_detected():
    # d(a) = b, d(b) = 1 breaks d^2 although gradings are fine
    bad = DGA(
        name="bad2",
        chords=(("a", 2), ("b", 1)),
        diff={"a": gen("b"), "b": Poly.one()},
    )
    report = validate(bad)
    assert report.grading_ok
    assert not report.d_squared_ok


def test_undeclared_symbol_raises():
    with pytest.raises(UnknownGenerator):
        DGA(name="bad3", chords=(("a", 1),), diff={"a": gen("zz")})
    with pytest.raises(UnknownGenerator):
        DGA(name="bad4", chords=(("a", 1),), diff={"zz": gen("a")})
    for lookup in (unknot().degree_of, unknot().differential):
        with pytest.raises(UnknownGenerator) as err:
            lookup("zz")
        assert str(err.value) == "unknown chord 'zz'"


def test_reserved_and_duplicate_names():
    with pytest.raises(InvalidParameter):
        DGA(name="bad5", chords=(("t", 0),))
    with pytest.raises(InvalidParameter):
        DGA(name="bad6", chords=(("a", 0), ("a", 1)))


def test_euler_tb():
    assert euler_tb(lambda0()) == 1
    for k in (1, 2, 3, 4, 5, 6):
        assert euler_tb(lambda_k(k)) == 1
    assert euler_tb(unknot()) == -1


def test_unknot():
    u = unknot()
    assert validate(u).ok
    assert u.differential("a") == t_gen + Poly.one()


def test_differentiate_leibniz_sign():
    d = lambda0()
    # d(a11 * a7) = (d a11) a7 + (-1)^{-1} a11 (d a7) = a11*a1*a4
    p = gen("a11") * gen("a7")
    assert differentiate(d, p) == gen("a11") * gen("a1") * gen("a4")


def test_connected_sum_unknots():
    s = connected_sum(unknot(), unknot())
    assert s.chord_names() == ["a", "a#2", "c"]
    assert s.degree_of("c") == 0
    assert s.differential("a") == gen("c") + Poly.one()
    assert s.differential("a#2") == Poly.one() - t_gen * gen("c")
    assert s.differential("c") == Poly.zero()
    assert validate(s).ok


def test_connected_sum_counts_and_euler():
    l0 = lambda0()
    s = connected_sum(l0, l0)
    assert len(s.chords) == 23
    assert validate(s).ok
    for d1, d2 in [(l0, lambda_k(1)), (unknot(), l0), (lambda_k(2), lambda_k(3))]:
        s = connected_sum(d1, d2)
        assert validate(s).ok
        assert euler_tb(s) == euler_tb(d1) + euler_tb(d2) + 1


def test_connected_sum_rejects_invalid():
    bad = DGA(name="bad", chords=(("a", 0), ("b", 0)), diff={"a": gen("b")})
    with pytest.raises(ValidationFailed):
        connected_sum(bad, unknot())


def test_iterated_sum_names_stay_unique():
    l0 = lambda0()
    s = connected_sum(connected_sum(l0, l0), l0)
    names = s.chord_names()
    assert len(names) == len(set(names)) == 35
    assert validate(s).ok


def test_connected_sum_augmented():
    l0, l1 = lambda0(), lambda_k(1)
    e2 = Augmentation(ZZ, {"a1": 2, "a2": -1, "a3": 1, "a6": 1})
    e3 = Augmentation(ZZ, {"a1": 3, "a2": -1, "a3": 1, "a10": 1, "a11": 1})
    summed, combined = connected_sum_augmented(l0, e2, l1, e3)
    assert combined.ring == ZZ
    assert combined.value_of("a1") == 2 and combined.value_of("a1#2") == 3
    assert combined.value_of("c") == -1
    # the combined assignment really is an augmentation
    linearized_differential(summed, combined)
    with pytest.raises(RingMismatch) as err:
        connected_sum_augmented(l0, e2, l1, Augmentation(Zmod(3), {}))
    assert str(err.value) == "augmentation rings differ: Z vs Z/3"


def test_geography_examples():
    g, aug = geography_dga(2, 0, [7])
    H = integral_homology(linearized_differential(g, aug))
    assert H.group(2).torsion == (7,) and H.group(2).free_rank == 0

    g, aug = geography_dga(-3, 0, [5])
    H = integral_homology(linearized_differential(g, aug))
    assert H.group(-3).torsion == (5,)

    g, aug = geography_dga(2, 1, [4, 6])
    H = integral_homology(linearized_differential(g, aug))
    assert H.group(2).free_rank == 1
    assert H.group(2).torsion == (2, 12)  # invariant factors of Z/4 + Z/6


def test_geography_five_summands():
    g, aug = geography_dga(3, 2, [8, 9, 10])
    assert len(g.chords) == 5 * 17 + 4
    H = integral_homology(linearized_differential(g, aug))
    from lchkit.homology import from_orders

    assert H.group(3) == from_orders([0, 0, 8, 9, 10])
    assert H.group(3).free_rank == 2 and H.group(3).torsion == (2, 360)


def test_geography_negative_one_uses_lambda0():
    g, aug = geography_dga(-1, 1, [3])
    assert validate(g).ok
    H = integral_homology(linearized_differential(g, aug))
    assert H.group(-1).free_rank == 1
    assert H.group(-1).torsion == (3,)


def _family_member(i):
    if i > 1:
        return lambda_k(i)
    return lambda0() if i == -1 else lambda_k(-i - 1)


def _eps(dga, n):
    values = {"a1": n, "a2": -1, "a3": 1}
    extra = ["a6"] if dga.name == "lambda0" else dga.chords_of_degree(0)[3:]
    values.update(dict.fromkeys(extra, 1))
    return Augmentation(ZZ, values)


def test_geography_equals_fold_of_pairwise_sums(monkeypatch):
    """One-pass geography sums match folding connected_sum_augmented."""
    import lchkit.dga as dga_module

    calls = []
    real_validate = dga_module.validate

    def counting_validate(d):
        calls.append(d)
        return real_validate(d)

    monkeypatch.setattr(dga_module, "validate", counting_validate)
    for i in (-5, -4, -3, -2, -1, 2, 3, 4, 5):
        base = _family_member(i)
        # The last list has 12 summands, so each copy's fresh suffix search
        # resumes after many taken ones.
        for m, orders in ((0, [3]), (1, []), (1, [2, 5]), (2, [4, 6]), (2, list(range(2, 12)))):
            calls.clear()
            g, aug = geography_dga(i, m, orders)
            # Every summand is the same base object, validated once.
            assert calls == [base]
            ns = [0] * m + orders
            folded, folded_aug = base, _eps(base, ns[0])
            for n in ns[1:]:
                folded, folded_aug = connected_sum_augmented(
                    folded, folded_aug, base, _eps(base, n)
                )
            assert g.name == f"geography[{i}]"
            assert g.chords == folded.chords
            assert g.diff == folded.diff
            assert aug == folded_aug


def _term_lists(d):
    return [(chord, list(p.terms.items())) for chord, p in d.diff.items()]


def test_geography_member_cache_does_not_leak():
    """The family member is built once per process, and no sum shares its state.

    Emptying one sum's differential must leave a later sum equal to one
    built from a freshly made member: names, chords, term order and
    augmentation.
    """
    for i, m, orders in ((2, 1, [4, 6]), (-1, 0, [3, 5]), (-3, 2, [])):
        assert _family_member_for_grading(i) is _family_member_for_grading(i)
        first, _ = geography_dga(i, m, orders)
        second, _ = geography_dga(i, m, orders)
        assert first.diff is not second.diff
        first.diff.clear()
        third, aug = geography_dga(i, m, orders)
        fresh = _family_member(i)
        ns = [0] * m + orders
        expected, expected_aug = _connected_sum_augmented(
            [fresh] * len(ns), [_eps(fresh, n) for n in ns], f"geography[{i}]"
        )
        assert third.name == expected.name
        assert third.chords == expected.chords
        assert _term_lists(third) == _term_lists(expected) == _term_lists(second)
        assert aug.ring == expected_aug.ring
        assert list(aug.values.items()) == list(expected_aug.values.items())


def test_tb_line_must_match_the_gradings(tmp_path, capsys):
    """A tb line is the signed chord count, or the document is refused.

    tb is no field of a DGA: only the parser reads a tb line, checks it
    and drops it.
    """
    body = "gen a 1\nd a = t + 1\n"
    assert parse(f'dga "ok"\ntb -1\n{body}') == parse(f'dga "ok"\n{body}')
    message = "tb -5 contradicts the gradings, which give tb = -1"
    with pytest.raises(InvalidParameter) as err:
        parse(f'dga "tb5"\ntb -5\n{body}')
    assert str(err.value) == message
    doc = tmp_path / "tb5.dga"
    doc.write_text(f'dga "tb5"\ntb -5\n{body}')
    assert run(["validate", str(doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(TypeError):
        DGA("ok", (("a", 1),), {"a": t_gen + Poly.one()}, tb=-1)


def test_alternating_summands_match_the_fold():
    """[A, B, A, B, A] in one pass: names, chords and term order of the left fold.

    Each summand's suffix search resumes on its own, so B takes the least
    suffix free for B's names, not one after A's last ([A, A, A, B, B]).
    """
    for a, b, order in (
        (lambda0(), lambda_k(1), "ABABA"),
        (lambda0(), unknot(), "ABABA"),
        (lambda0(), unknot(), "AAABB"),
    ):
        summands = [{"A": a, "B": b}[x] for x in order]
        summed, _, c_names = _connected_sum_parts(summands)
        folded = summands[0]
        for d in summands[1:]:
            folded = connected_sum(folded, d)
        assert summed.name == folded.name
        assert summed.chords == folded.chords
        assert list(summed.diff) == list(folded.diff)
        for chord, p in folded.diff.items():
            assert list(summed.diff[chord].terms.items()) == list(p.terms.items())
        assert c_names == ["c", "c#2", "c#3", "c#4"]
    assert [name for name, _ in summed.chords if name.startswith("a#")] == ["a#2"]


def test_sums_reject_t_inverse():
    """The image of t is c, -c#2*c or -t*c in a sum, none of them a unit."""
    x = DGA("tinv", (("a", 1), ("b", 0)), {"a": t_inv_gen * gen("b") + 1 + t_gen})
    assert validate(x).ok
    for summands, message in (
        ([x, unknot()], "c is not a unit"),
        ([unknot(), x, unknot()], "-c#2*c is not a unit"),
        ([unknot(), x], "-t*c is not a unit"),
    ):
        with pytest.raises(NotAUnit) as err:
            _connected_sum_parts(summands)
        assert str(err.value) == message


def test_geography_rejects_bad_gradings():
    for i in (0, 1):
        with pytest.raises(InvalidParameter):
            geography_dga(i, 0, [2])
    with pytest.raises(InvalidParameter):
        geography_dga(2, 0, [])
    with pytest.raises(InvalidParameter):
        geography_dga(2, 0, [1])
    with pytest.raises(InvalidParameter, match=r"^torsion orders must be >= 2, got -<5001 digits>$"):
        geography_dga(2, 0, [-10**5000])
    with pytest.raises(InvalidParameter) as err:
        geography_dga(2, -1, [2])
    assert str(err.value) == "free rank must be >= 0"


def test_connected_sum_additivity_of_homology():
    """LCH_i(sum) = LCH_i + LCH_i for i != 0, 1 on a concrete pair."""
    from lchkit.verify import connected_sum_additivity_check

    l0 = lambda0()
    e2 = Augmentation(ZZ, {"a1": 2, "a2": -1, "a3": 1, "a6": 1})
    e4 = Augmentation(ZZ, {"a1": 4, "a2": -1, "a3": 1, "a6": 1})
    assert connected_sum_additivity_check(l0, e2, l0, e4)
