"""Exception hierarchy for lchkit.

Everything raised deliberately by this package derives from LchError, so
callers (and the CLI) can distinguish controlled failures from bugs.
"""

from decimal import Decimal


class LchError(Exception):
    """Base class for all lchkit errors."""


class UnknownGenerator(LchError):
    """A symbol was used that is not a declared chord or the basepoint."""


class NotAUnit(LchError):
    """An element that must be invertible (image of t, value of t) is not."""


class InvalidParameter(LchError):
    """A constructor argument is outside its admissible range."""


class ValidationFailed(LchError):
    """An operation required a valid DGA and the input is not one."""


class ParseError(LchError):
    """Syntax error in a .dga document or an augmentation literal."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class DuplicateGenerator(LchError):
    """The same generator was declared twice."""


class InvalidValue(LchError):
    """An augmentation value does not belong to the stated ring."""


class SearchTooLarge(LchError):
    """An exhaustive enumeration would exceed the configured cap."""


class FieldRequired(LchError):
    """The operation needs field coefficients (Q or Z/p with p prime)."""


class NotAnAugmentation(LchError):
    """The given value assignment does not annihilate the differential."""


class NotAComplex(LchError):
    """Boundary matrices do not compose to zero (or wrong coefficient ring)."""


class RingMismatch(LchError):
    """Two arguments were expected to share a coefficient ring."""


def int_text(n: int) -> str:
    """n in decimal for a message, or its digit count where str() refuses so long an int."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{Decimal(n).adjusted() + 1} digits>"
