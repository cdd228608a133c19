import pytest

from lchkit.errors import InvalidValue
from lchkit.rings import RingDesc, Zmod, _is_prime


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
