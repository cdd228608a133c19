"""Coefficient ring descriptors: Z, Q, and Z/m with exact arithmetic.

Ring elements are ordinary Python values: int for Z and Z/m (canonical
representatives 0..m-1), int or Fraction for Q.  The descriptor knows how
to coerce, reduce, and test elements; it never wraps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidValue, ParseError


# Miller-Rabin with the first 12 primes as bases is exact below 3.1 * 10^23;
# moduli are capped at 2^64, inside that range, so `is_field` is exact and
# cheap.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MODULUS_LIMIT = 2**64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingDesc:
    """One of Z, Q, Z/m (m >= 2).  Use the ZZ / QQ constants or Zmod(m)."""

    kind: str  # "Z" | "Q" | "Zmod"
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zmod"):
            raise InvalidValue(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod":
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise InvalidValue("modulus must be an integer >= 2")
            if self.modulus >= _MODULUS_LIMIT:
                raise InvalidValue("modulus must be below 2^64")
        elif self.modulus is not None:
            raise InvalidValue(f"{self.kind} takes no modulus")

    # -- classification --------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind == "Q" or (self.kind == "Zmod" and _is_prime(self.modulus))

    @property
    def is_finite(self) -> bool:
        return self.kind == "Zmod"

    # -- element handling -------------------------------------------------

    def coerce(self, value):
        """Canonical form of `value` in this ring, or InvalidValue."""
        if self.kind == "Q":
            if type(value) is int:  # canonical already; a bool is refused below
                return value
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise InvalidValue(f"{value!r} is not a rational number")
            value = Fraction(value)
            return int(value) if value.denominator == 1 else value
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidValue(f"{value!r} is not an integer")
        if self.kind == "Zmod":
            return value % self.modulus
        return value

    def reduce(self, value):
        """Like coerce but assumes the type is fine (used on hot paths)."""
        if self.kind == "Zmod":
            return value % self.modulus
        return value

    def is_zero(self, value) -> bool:
        if self.kind == "Zmod":
            return value % self.modulus == 0
        return value == 0

    def elements(self):
        """All elements (finite rings only), in canonical order."""
        if self.kind != "Zmod":
            raise InvalidValue(f"{self} is not finite")
        return range(self.modulus)

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if self.kind == "Zmod":
            return f"Z/{self.modulus}"
        return self.kind

    @staticmethod
    def parse(text: str) -> "RingDesc":
        text = text.strip()
        if text == "Z":
            return ZZ
        if text == "Q":
            return QQ
        if text.startswith("Z/"):
            try:
                m = int(text[2:])
            except ValueError:
                raise ParseError(f"bad modulus in ring {text!r}") from None
            if m < 2:
                raise ParseError(f"modulus must be >= 2 in {text!r}")
            return Zmod(m)
        raise ParseError(f"unknown ring {text!r} (expected Z, Q, or Z/m)")


ZZ = RingDesc("Z")
QQ = RingDesc("Q")


def Zmod(m: int) -> RingDesc:
    return RingDesc("Zmod", m)
