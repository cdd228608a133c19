"""Exact noncommutative polynomial arithmetic over the integers.

Elements live in the free unital ring Z<x_1, ..., x_n, t, t^-1> on chord
symbols and a basepoint symbol t, subject to the single relation
t*t^-1 = t^-1*t = 1.  A polynomial is a finite sum of monomials; a monomial
is an integer coefficient times an ordered word of symbols.  Symbols are
plain strings; "t" and "t^-1" are reserved for the basepoint.

The private `_collect` is the one normalizer: it cancels t*t^-1 in words,
adds equal words and drops zero sums.  `Poly(mapping)`, `Poly.from_terms`
and all arithmetic build each polynomial by one call to it; only
`Poly._of_normalized` skips it, for terms a caller has built in normal form.
`Poly.terms` is a read-only view, so reading a polynomial copies nothing.

Besides ring arithmetic the module provides the two evaluation maps of
linearization: `evaluate` (apply a scalar value to every symbol) and
`s_linear_part` (the coefficient of the first-order term after substituting
x -> s*x + eps(x) on chords, computed positionally so the bookkeeping
variable s never needs to exist).  They are the reference route: the
pipeline linearizes by the word rule of `linearize`, one point word by
word or a grid from the plan, and the tests compare both routes with these.

`first_unknown_symbol` is the one rule for which undeclared symbol an
error names, in the DGA constructor and in the .dga parser alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import NotAUnit, UnknownGenerator

T_SYMBOL = "t"
T_INV_SYMBOL = "t^-1"

# The one chord-name rule, of .dga documents and augmentation literals alike.
CHORD_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_#]*")

_NAT_SPLIT = re.compile(r"([0-9]+)")


def is_basepoint(symbol: str) -> bool:
    return symbol == T_SYMBOL or symbol == T_INV_SYMBOL


def symbol_sort_key(symbol: str):
    """Total order on symbols: t < t^-1 < chords in natural name order.

    Natural order compares runs of ASCII digits 0-9 numerically, so
    a2 < a3 < a10.  A run is compared as (length without leading zeros,
    those digits), which orders runs as their values do without converting
    them, so a run of any length is fine.  Every other character is text,
    other digits included, and text compares by code point.  A .dga name
    is ASCII, but a name built in Python may hold one: a² and a٢ are the
    texts they are, so a < a2 < a10 < a² < a٢ < a٣.  Names whose runs
    have equal values, such as a1 and a01, compare as strings.
    """
    if symbol == T_SYMBOL:
        return (0,)
    if symbol == T_INV_SYMBOL:
        return (1,)
    # re.split puts the captured digit runs at the odd indices.
    parts = tuple(
        (0, len(digits := run.lstrip("0")), digits) if k % 2 else (1, run)
        for k, run in enumerate(_NAT_SPLIT.split(symbol))
        if run != ""
    )
    return (2, parts, symbol)


def word_sort_key(word: tuple[str, ...]):
    """Length-lexicographic order on words, used for canonical term order."""
    return (len(word), tuple(symbol_sort_key(x) for x in word))


def _normalize_word(word: Iterable[str]) -> tuple[str, ...]:
    # Cancel adjacent t / t^-1 pairs in one stack pass; most words have no t^-1.
    word = tuple(word)
    if T_INV_SYMBOL not in word:
        return word
    out: list[str] = []
    for x in word:
        if out and (
            (out[-1] == T_SYMBOL and x == T_INV_SYMBOL)
            or (out[-1] == T_INV_SYMBOL and x == T_SYMBOL)
        ):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _collect(pairs: Iterable[tuple[Iterable[str], int]]) -> dict[tuple[str, ...], int]:
    """Sum (word, coeff) pairs into normalized terms, in order of first occurrence.

    A word whose sum reaches 0 is dropped and counts as new if it returns, so
    one call gives the order that adding the pairs one Poly at a time gives.
    """
    out: dict[tuple[str, ...], int] = {}
    for word, coeff in pairs:
        w = _normalize_word(word)
        c = out.get(w, 0) + coeff
        if c:
            out[w] = c
        else:
            out.pop(w, None)
    return out


class Poly:
    """Immutable integer-coefficient noncommutative polynomial.

    Normalized form: no zero coefficients, words carry no adjacent
    t, t^-1 pair.  Equality and hashing are by value.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[str, ...], int] | None = None):
        self._terms = _collect(terms.items()) if terms else {}

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Iterable[str], int]]) -> "Poly":
        """The polynomial summing (word, coeff) pairs, built once.

        Repeated words add, and t*t^-1 cancels inside a word:

        >>> Poly.from_terms([(("a1",), 2), (("b",), 1), (("t", "t^-1", "a1"), 1), (("b",), -1)])
        Poly<3*a1>
        """
        result = Poly.__new__(Poly)
        result._terms = _collect(pairs)
        return result

    @staticmethod
    def _of_normalized(terms: dict[tuple[str, ...], int]) -> "Poly":
        """The polynomial with exactly these terms, which the caller hands over.

        `terms` must already be in normalized form: nonzero coefficients and
        words without an adjacent t, t^-1 pair.  Nothing is checked or copied.
        """
        result = Poly.__new__(Poly)
        result._terms = terms
        return result

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({(): 1})

    @staticmethod
    def constant(c: int) -> "Poly":
        return Poly({(): c})

    @staticmethod
    def gen(name: str) -> "Poly":
        return Poly({(name,): 1})

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[str, ...], int]:
        """A read-only view of the terms ``{word: coeff}``, in term order."""
        return MappingProxyType(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[str, ...], int]]:
        return sorted(self._terms.items(), key=lambda item: word_sort_key(item[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for word in self._terms:
            out.update(word)
        return out

    def chord_symbols(self) -> set[str]:
        return {x for x in self.symbols() if not is_basepoint(x)}

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly.from_terms(chain(self._terms.items(), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly.from_terms((w, -c) for w, c in self._terms.items())

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly.from_terms(
            (w1 + w2, c1 * c2)
            for w1, c1 in self._terms.items()
            for w2, c2 in other._terms.items()
        )

    def __rmul__(self, other) -> "Poly":
        # Coefficients are central, so scalar multiplication commutes.
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly<{format_poly(self)}>"


def first_unknown_symbol(p: Poly, known: set[str] | frozenset[str]) -> str | None:
    """The first letter of p, in term order, that is not in `known`, or None.

    Basepoint letters count only if `known` holds them.  A poly whose letters
    are all known costs one `issuperset` pass:

    >>> first_unknown_symbol(Poly.from_terms([(("a", "zz"), 1), (("yy",), 1)]), {"a"})
    'zz'
    """
    if known.issuperset(chain.from_iterable(p._terms)):
        return None
    return next(x for word in p._terms for x in word if x not in known)


def _coerce(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly.constant(value)
    return NotImplemented


def gen(name: str) -> Poly:
    return Poly.gen(name)


t_gen = Poly.gen(T_SYMBOL)
t_inv_gen = Poly.gen(T_INV_SYMBOL)


def format_monomial(word: tuple[str, ...], coeff: int) -> str:
    if not word:
        return str(coeff)
    body = "*".join(word)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


def format_poly(p: Poly) -> str:
    """Canonical text form: terms in length-lex order, '+'/'-' separated."""
    terms = p.sorted_terms()
    if not terms:
        return "0"
    pieces = [format_monomial(*terms[0])]
    for word, coeff in terms[1:]:
        if coeff < 0:
            pieces.append(" - " + format_monomial(word, -coeff))
        else:
            pieces.append(" + " + format_monomial(word, coeff))
    return "".join(pieces)


def degree_of_word(word: Iterable[str], grading: Mapping[str, int]) -> int:
    """Sum of symbol gradings along the word; t and t^-1 contribute 0."""
    total = 0
    for x in word:
        if is_basepoint(x):
            continue
        if x not in grading:
            raise UnknownGenerator(f"no grading for symbol {x!r}")
        total += grading[x]
    return total


def _scalar_for(symbol: str, eps: Mapping[str, object]):
    """Value of a symbol under eps; t^-1 maps to the inverse of eps[t]."""
    if symbol == T_SYMBOL or symbol == T_INV_SYMBOL:
        if T_SYMBOL not in eps:
            raise UnknownGenerator("eps does not assign a value to t")
        value = eps[T_SYMBOL]
        if symbol == T_SYMBOL:
            return value
        if isinstance(value, Fraction):
            if value == 0:
                raise NotAUnit("eps(t) = 0 has no inverse")
            return 1 / value
        if value in (1, -1):
            return value
        raise NotAUnit(f"eps(t) = {value} is not invertible over Z")
    if symbol not in eps:
        raise UnknownGenerator(f"eps does not assign a value to {symbol!r}")
    return eps[symbol]


def evaluate(p: Poly, eps: Mapping[str, object]):
    """Ring-map evaluation: each symbol is replaced by its eps value."""
    total = 0
    for word, coeff in p._terms.items():
        value = coeff
        for x in word:
            value = value * _scalar_for(x, eps)
        total += value
    return total


def s_linear_part(p: Poly, eps: Mapping[str, object]) -> dict[str, object]:
    """Coefficient vector of the linear term after x -> s*x + eps(x).

    Chord letters carry the substitution; basepoint letters act as the
    scalar eps(t)^{+-1}.  For each monomial c*x_1...x_m and each position j
    holding a chord, the product c * prod_{l != j} eps(x_l) is added to the
    entry of x_j.  Every chord occurring in p gets an entry, possibly zero.
    """
    out: dict[str, object] = {}
    for word in p._terms:
        for x in word:
            if not is_basepoint(x):
                out.setdefault(x, 0)
    for word, coeff in p._terms.items():
        scalars = [_scalar_for(x, eps) for x in word]
        for j, x in enumerate(word):
            if is_basepoint(x):
                continue
            value = coeff
            for l, s in enumerate(scalars):
                if l != j:
                    value = value * s
            out[x] = out[x] + value
    return out
