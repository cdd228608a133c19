import random
import re
from fractions import Fraction

import pytest

from lchkit.algebra import (
    Poly,
    degree_of_word,
    evaluate,
    format_poly,
    gen,
    s_linear_part,
    symbol_sort_key,
    t_gen,
    t_inv_gen,
)
from lchkit.errors import NotAUnit, UnknownGenerator

A1, A2, A3, A4 = gen("a1"), gen("a2"), gen("a3"), gen("a4")

LAMBDA0_GRADING = {f"a{i}": 0 for i in range(1, 7)}
LAMBDA0_GRADING.update({f"a{i}": 1 for i in range(7, 11)})
LAMBDA0_GRADING["a11"] = -1


def test_degree_of_word():
    assert degree_of_word(("a4", "a11"), LAMBDA0_GRADING) == -1
    assert degree_of_word((), LAMBDA0_GRADING) == 0
    # lambda_2 grading: |a5| = 3, t contributes 0
    assert degree_of_word(("t", "a5"), {"a5": 3}) == 3
    with pytest.raises(UnknownGenerator):
        degree_of_word(("zz",), LAMBDA0_GRADING)


def test_mul_is_noncommutative_and_t_cancels():
    assert A1 * A4 == Poly({("a1", "a4"): 1})
    assert A1 * A4 != A4 * A1
    assert t_gen * t_inv_gen == Poly.one()
    assert t_inv_gen * t_gen == Poly.one()
    # only adjacent pairs cancel
    assert t_gen * A1 * t_inv_gen == Poly({("t", "a1", "t^-1"): 1})


def test_add_cancellation():
    assert (A1 + A3) + (-A3) == A1
    assert A1 - A1 == Poly.zero()
    assert not (A1 - A1)
    # An int compares and adds as a constant; a str is no Poly at all.
    assert Poly.constant(3) == 3 and (A1 == "a1") is False
    with pytest.raises(TypeError) as err:
        A1 + "x"
    assert str(err.value) == "unsupported operand type(s) for +: 'Poly' and 'str'"


def test_normalization_idempotent():
    p = Poly({("t", "t^-1", "a1"): 2, ("a1",): -1, ("t", "a2", "t^-1"): 3})
    again = Poly(p.terms)
    assert again == p
    assert p.terms == {("a1",): 1, ("t", "a2", "t^-1"): 3}
    # Term order is not part of the value: equal polys hash alike.
    one, other = Poly({("a1",): 1, ("a2", "a1"): 2}), Poly({("a2", "a1"): 2, ("a1",): 1})
    assert list(one.terms) != list(other.terms)
    assert one == other and hash(one) == hash(other)
    assert repr(one) == "Poly<a1 + 2*a2*a1>" and repr(Poly.zero()) == "Poly<0>"


def test_terms_is_a_read_only_view():
    p = Poly({("t", "t^-1", "a1"): 2, ("a1",): -1, ("t", "a2"): 3})
    view = p.terms
    with pytest.raises(TypeError):
        view[("a1",)] = 5
    with pytest.raises(TypeError):
        del view[("t", "a2")]
    assert Poly(p.terms) == p
    assert list(p.terms.items()) == [(("a1",), 1), (("t", "a2"), 3)]


def test_s_linear_part_examples():
    # all eps zero: entries present but zero
    assert s_linear_part(gen("a4") * gen("a11"), {"a4": 0, "a11": 0, "t": -1}) == {
        "a4": 0,
        "a11": 0,
    }
    # d a7 = -a1*a4 with eps(a1)=n gives -n*a4
    n = 7
    assert s_linear_part(-(A1 * A4), {"a1": n, "a4": 0, "t": -1}) == {"a4": -n, "a1": 0}
    # 1 - a10*a11 at eps = (1, 1)
    p = Poly.one() - gen("a10") * gen("a11")
    assert s_linear_part(p, {"a10": 1, "a11": 1, "t": -1}) == {"a10": -1, "a11": -1}


def test_s_linear_part_repeated_letter():
    assert s_linear_part(A1 * A1, {"a1": 3, "t": -1}) == {"a1": 6}


def test_s_linear_part_missing_eps():
    with pytest.raises(UnknownGenerator):
        s_linear_part(A1, {})


def test_evaluate():
    p = t_gen + A1 + A1 * A2 * A3
    assert evaluate(p, {"a1": 2, "a2": -1, "a3": 1, "t": -1}) == 2 - 2 - 1
    assert evaluate(t_inv_gen, {"t": -1}) == -1
    # t^-1 evaluates to the inverse of eps(t), which must be a unit.
    p = 3 * t_inv_gen * A1
    assert evaluate(p, {"t": Fraction(1, 2), "a1": 5}) == 30
    for eps, error, message in (
        ({"a1": 5}, UnknownGenerator, "eps does not assign a value to t"),
        ({"t": Fraction(0), "a1": 5}, NotAUnit, "eps(t) = 0 has no inverse"),
        ({"t": 2, "a1": 5}, NotAUnit, "eps(t) = 2 is not invertible over Z"),
    ):
        with pytest.raises(error) as err:
            evaluate(p, eps)
        assert str(err.value) == message


def test_format_poly():
    p = Poly.one() - A4 - gen("a6") - gen("a6") * gen("a5") * A4
    assert format_poly(p) == "1 - a4 - a6 - a6*a5*a4"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(-2 * A1) == "-2*a1"


# ----------------------------------------------------------------------
# randomized properties
# ----------------------------------------------------------------------

SYMBOLS = ["a1", "a2", "a3", "t", "t^-1"]


def random_poly(rng, max_terms=3, max_len=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        word = tuple(rng.choice(SYMBOLS) for _ in range(rng.randrange(max_len + 1)))
        terms[word] = terms.get(word, 0) + rng.randint(-3, 3)
    return Poly(terms)


def test_ring_axioms_random():
    rng = random.Random(20240817)
    one = Poly.one()
    for _ in range(1000):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert one * p == p and p * one == p
        assert p + Poly.zero() == p


def brute_force_s_linear(p, eps):
    """Independent oracle: expand with an explicit commuting s exponent.

    Represents sums of s^k * word as {(k, word): coeff}, substitutes
    chord -> s*chord + eps(chord) and t -> eps(t) term by term, and reads
    off the s^1 coefficients of the single-letter words.
    """
    inv_t = {1: 1, -1: -1}[eps["t"]]
    acc_total = {}
    for word, coeff in p.terms.items():
        acc = {(0, ()): coeff}
        for x in word:
            if x == "t":
                factor = [(0, None, eps["t"])]
            elif x == "t^-1":
                factor = [(0, None, inv_t)]
            else:
                factor = [(1, x, 1), (0, None, eps[x])]
            new = {}
            for (k, w), c in acc.items():
                for dk, letter, dc in factor:
                    key = (k + dk, w + (letter,) if letter else w)
                    new[key] = new.get(key, 0) + c * dc
            acc = new
        for key, c in acc.items():
            acc_total[key] = acc_total.get(key, 0) + c
    out = {x: 0 for x in p.chord_symbols()}
    for (k, w), c in acc_total.items():
        if k == 1 and len(w) == 1:
            out[w[0]] += c
    return out


def test_s_linear_part_matches_brute_force():
    rng = random.Random(99)
    chords = ["a1", "a2", "a3"]
    for _ in range(500):
        p = random_poly(rng)
        eps = {name: rng.randint(-3, 3) for name in chords}
        eps["t"] = -1
        assert s_linear_part(p, eps) == brute_force_s_linear(p, eps)


def test_s_linear_part_vanishes_without_constant_or_linear_terms():
    rng = random.Random(3)
    chords = ["a1", "a2", "a3"]
    for _ in range(200):
        terms = {}
        for _ in range(rng.randrange(4)):
            word = tuple(rng.choice(chords) for _ in range(rng.randint(2, 4)))
            terms[word] = rng.randint(-3, 3)
        p = Poly(terms)
        eps = {name: 0 for name in chords}
        eps["t"] = -1
        assert all(v == 0 for v in s_linear_part(p, eps).values())


def _int_sort_key(symbol):
    """The natural order by int() of each digit run, for short runs."""
    if symbol in ("t", "t^-1"):
        return (0,) if symbol == "t" else (1,)
    runs = re.split(r"(\d+)", symbol)
    return (2, tuple((0, int(run)) if run.isdigit() else (1, run) for run in runs if run))


def _compare(key, x, y):
    return (key(x) > key(y)) - (key(x) < key(y))


def test_symbol_sort_key_orders_digit_runs_by_value():
    rng = random.Random(20)

    def name():
        pieces = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                pieces.append("".join(rng.choice("0123456789") for _ in range(rng.randint(1, 4))))
            else:
                pieces.append("".join(rng.choice("ab_#") for _ in range(rng.randint(1, 2))))
        return "".join(pieces)

    names = ["t", "t^-1", "a", "a0", "a00", "a1", "a01", "a2", "a10"]
    names += [name() for _ in range(400)]
    # Where the reference ties two distinct names (a0 and a00), the key
    # orders them as str does.
    for x in names:
        for y in names[:60]:
            expected = _compare(_int_sort_key, x, y) or _compare(str, x, y)
            assert _compare(symbol_sort_key, x, y) == expected, (x, y)
    long = "a" + "7" * 5000
    assert symbol_sort_key("a" + "7" * 4999) < symbol_sort_key(long) < symbol_sort_key("a1" + "0" * 5000)


def test_symbol_sort_key_reads_only_ascii_digit_runs():
    """Only 0-9 runs compare by value; other digits are text, by code point."""
    names = ["a٢", "a10", "a", "a²", "a3", "a٣", "a2", "²", "a²1", "ab"]
    assert sorted(names, key=symbol_sort_key) == [
        "a", "a2", "a3", "a10", "ab", "a²", "a²1", "a٢", "a٣", "²",
    ]
    assert symbol_sort_key("a٢") > symbol_sort_key("a3")
    assert symbol_sort_key("²") == (2, ((1, "²"),), "²")


def test_symbol_sort_key_breaks_leading_zero_ties():
    """Names equal up to leading zeros still differ, so text does not depend
    on the order in which terms were added."""
    names = ["a0", "a00", "a1", "a01", "a001", "b010", "b10", "0", "00"]
    keys = {symbol_sort_key(x) for x in names}
    assert len(keys) == len(names)
    for x, y, text in (("a0", "a00", "a0 + a00"), ("a1", "a01", "a01 + a1")):
        forward = Poly.from_terms([((x,), 1), ((y,), 1)])
        backward = Poly.from_terms([((y,), 1), ((x,), 1)])
        assert forward == backward and str(forward) == str(backward) == text
