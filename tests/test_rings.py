from fractions import Fraction

import pytest

from lchkit.errors import InvalidValue, ParseError
from lchkit.rings import QQ, ZZ, RingDesc, Zmod, _is_prime


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_is_prime_on_large_moduli():
    assert Zmod(2**61 - 1).is_field
    assert Zmod(2**64 - 59).is_field  # the largest prime below 2^64
    assert not Zmod(2**61 + 1).is_field
    # strong pseudoprimes to every prime base up to 7, and up to 31
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)


def test_modulus_at_or_above_2_64_rejected():
    with pytest.raises(InvalidValue):
        Zmod(2**64)
    with pytest.raises(InvalidValue):
        RingDesc.parse(f"Z/{2**70 + 1}")


def test_bad_ring_descriptors_rejected():
    for make, error, message in (
        (lambda: RingDesc("R"), InvalidValue, "unknown ring kind 'R'"),
        (lambda: Zmod(1), InvalidValue, "modulus must be an integer >= 2"),
        (lambda: RingDesc("Z", 5), InvalidValue, "Z takes no modulus"),
        (ZZ.elements, InvalidValue, "Z is not finite"),
        (lambda: RingDesc.parse("Z/x"), ParseError, "bad modulus in ring 'Z/x'"),
        (lambda: RingDesc.parse("Z/1"), ParseError, "modulus must be >= 2 in 'Z/1'"),
    ):
        with pytest.raises(error) as err:
            make()
        assert str(err.value) == message


def _coerce_q_by_fraction(value):
    """Coercion to Q through Fraction, for every value: the reference route."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InvalidValue(f"{value!r} is not a rational number")
    value = Fraction(value)
    return int(value) if value.denominator == 1 else value


def test_coerce_to_q_keeps_ints_and_refuses_bools():
    # A plain int is canonical in Q and comes back as it is, without a Fraction.
    cases = [0, 1, -1, 7, -12, 2**70, -(2**70), Fraction(6, 3), Fraction(-4, 2),
             Fraction(1, 2), Fraction(-7, 3), Fraction(0)]
    for value in cases:
        got, expected = QQ.coerce(value), _coerce_q_by_fraction(value)
        assert (got, type(got)) == (expected, type(expected)), value
    for value in (True, False, 0.5, "1", None):
        with pytest.raises(InvalidValue) as err:
            QQ.coerce(value)
        assert str(err.value) == f"{value!r} is not a rational number"
