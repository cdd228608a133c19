r"""Line-oriented text format for DGAs (.dga files).

Grammar (one statement per line, '#' starts a comment when it begins the
line or follows whitespace -- '#' inside an identifier is literal, which
is what connected-sum chord names like a1#2 use):

    dga "<name>"              header, required first
    tb <int>                  optional metadata
    basepoint t               optional (t is reserved either way)
    gen <ident> <int>         one chord declaration per line
    d <ident> = <poly>        differential; omitted chords are closed

A <poly> is '+'/'-' separated terms.  Each term is an optional integer
coefficient joined by '*' to factors, each factor a chord identifier, t,
or t^-1; a bare integer is a constant term and 1 is the unit monomial:

    d a10 = 1 - a4 - a6 - a6*a5*a4 - a6*a11*a7

Whitespace within a line is insignificant.  The serializer emits canonical
term order (length-lex) with LF line endings; parse(serialize(d)) == d.
"""

from __future__ import annotations

import re

from .algebra import Poly, format_poly
from .dga import DGA
from .errors import DuplicateGenerator, ParseError, UnknownGenerator

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_#]*")
_DIGITS = re.compile(r"\d+")


def _strip_comment(line: str) -> str:
    for i, ch in enumerate(line):
        if ch == "#" and (i == 0 or line[i - 1].isspace()):
            return line[:i]
    return line


class _LineTokens:
    """Tokens of one logical line, with positions for error messages."""

    def __init__(self, text: str, lineno: int):
        self.lineno = lineno
        self.tokens: list[tuple[str, int]] = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "=+-*":
                self.tokens.append((ch, i))
                i += 1
                continue
            if ch == '"':
                j = text.find('"', i + 1)
                if j < 0:
                    raise ParseError("unterminated string", lineno, i + 1)
                self.tokens.append((text[i : j + 1], i))
                i = j + 1
                continue
            if ch.isdecimal():
                m = _DIGITS.match(text, i)
                self.tokens.append((m.group(0), i))
                i += len(m.group(0))
                continue
            m = _IDENT.match(text, i)
            if m:
                token = m.group(0)
                # t^-1 is a single factor token
                if token == "t" and text[i : i + 4] == "t^-1":
                    token = "t^-1"
                self.tokens.append((token, i))
                i += len(token)
                continue
            raise ParseError(f"unexpected character {ch!r}", lineno, i + 1)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            last_col = self.tokens[-1][1] + 1 if self.tokens else 1
            raise ParseError("unexpected end of line", self.lineno, last_col)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self):
        if self.pos < len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError(f"unexpected token {tok!r}", self.lineno, col + 1)

    def error(self, message: str):
        col = self.tokens[self.pos][1] + 1 if self.pos < len(self.tokens) else 1
        raise ParseError(message, self.lineno, col)


def _is_ident(token: str) -> bool:
    return token == "t^-1" or bool(_IDENT.fullmatch(token))


def _to_int(tok: str, lineno: int, col: int) -> int:
    """int(tok), or a ParseError past sys.get_int_max_str_digits() digits."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"integer of {len(tok)} digits is too long", lineno, col + 1) from None


def _parse_term(toks: _LineTokens) -> tuple[int, list[str]]:
    """One term: [int] ('*' factor)* | factors; returns (coeff, word)."""
    coeff = 1
    word: list[str] = []
    tok, col = toks.next()
    if tok.isdigit():
        coeff = _to_int(tok, toks.lineno, col)
        if toks.peek() == "*":
            toks.next()
            tok, col = toks.next()
        else:
            return coeff, word
    while True:
        if not _is_ident(tok) or tok.isdigit():
            raise ParseError(f"expected a factor, got {tok!r}", toks.lineno, col + 1)
        word.append(tok)
        if toks.peek() == "*":
            toks.next()
            tok, col = toks.next()
        else:
            return coeff, word


def _parse_poly(toks: _LineTokens) -> Poly:
    """Sum of the line's terms; equal words are summed before one Poly is built."""
    terms: dict[tuple[str, ...], int] = {}
    sign = 1
    if toks.peek() in ("+", "-"):
        tok, _ = toks.next()
        sign = -1 if tok == "-" else 1
    while True:
        coeff, word = _parse_term(toks)
        key = tuple(word)
        terms[key] = terms.get(key, 0) + sign * coeff
        nxt = toks.peek()
        if nxt is None:
            return Poly(terms)
        if nxt in ("+", "-"):
            toks.next()
            sign = -1 if nxt == "-" else 1
        else:
            toks.error(f"expected '+' or '-', got {nxt!r}")


def _parse_int(toks: _LineTokens) -> int:
    tok, col = toks.next()
    sign = 1
    if tok == "-":
        sign = -1
        tok, col = toks.next()
    if not tok.isdigit():
        raise ParseError(f"expected an integer, got {tok!r}", toks.lineno, col + 1)
    return sign * _to_int(tok, toks.lineno, col)


def parse(text: str) -> DGA:
    """Parse a .dga document into a (structurally valid) DGA.

    Grading and d^2 = 0 are *not* checked here; run validate separately.
    """
    name: str | None = None
    tb: int | None = None
    chords: list[tuple[str, int]] = []
    declared: set[str] = set()
    diff_lines: list[tuple[str, _LineTokens]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw.rstrip("\r\n"))
        if not line.strip():
            continue
        toks = _LineTokens(line, lineno)
        keyword, col = toks.next()
        if name is None:
            if keyword != "dga":
                raise ParseError("document must start with: dga \"<name>\"", lineno, col + 1)
            tok, col = toks.next()
            if not (tok.startswith('"') and tok.endswith('"') and len(tok) >= 2):
                raise ParseError("expected a quoted name", lineno, col + 1)
            name = tok[1:-1]
            toks.expect_end()
            continue
        if keyword == "dga":
            raise ParseError("duplicate dga header", lineno, col + 1)
        if keyword == "tb":
            if tb is not None:
                raise ParseError("duplicate tb line", lineno, col + 1)
            tb = _parse_int(toks)
            toks.expect_end()
        elif keyword == "basepoint":
            tok, col = toks.next()
            if tok != "t":
                raise ParseError("the basepoint must be t", lineno, col + 1)
            toks.expect_end()
        elif keyword == "gen":
            tok, col = toks.next()
            if not _is_ident(tok) or tok.isdigit() or tok in ("t", "t^-1"):
                raise ParseError(f"bad chord name {tok!r}", lineno, col + 1)
            if tok in declared:
                raise DuplicateGenerator(f"chord {tok!r} declared twice (line {lineno})")
            degree = _parse_int(toks)
            toks.expect_end()
            declared.add(tok)
            chords.append((tok, degree))
        elif keyword == "d":
            tok, col = toks.next()
            if not _is_ident(tok) or tok.isdigit():
                raise ParseError(f"bad chord name {tok!r}", lineno, col + 1)
            eq, col = toks.next()
            if eq != "=":
                raise ParseError(f"expected '=', got {eq!r}", lineno, col + 1)
            diff_lines.append((tok, toks))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, col + 1)

    if name is None:
        raise ParseError("empty document", 1, 1)

    diff: dict[str, Poly] = {}
    for chord, toks in diff_lines:
        if chord not in declared:
            raise UnknownGenerator(
                f"differential for undeclared chord {chord!r} (line {toks.lineno})"
            )
        if chord in diff:
            raise ParseError(f"duplicate differential for {chord!r}", toks.lineno, 1)
        poly = _parse_poly(toks)
        for symbol in poly.chord_symbols():
            if symbol not in declared:
                raise UnknownGenerator(
                    f"undeclared symbol {symbol!r} in d {chord} (line {toks.lineno})"
                )
        diff[chord] = poly

    return DGA(name=name, chords=tuple(chords), diff=diff, tb=tb)


def serialize(dga: DGA) -> str:
    """Canonical document for a DGA; round-trips through parse."""
    lines = [f'dga "{dga.name}"']
    if dga.tb is not None:
        lines.append(f"tb {dga.tb}")
    lines.append("basepoint t")
    for chord, degree in dga.chords:
        lines.append(f"gen {chord} {degree}")
    for chord, _ in dga.chords:
        p = dga.diff.get(chord)
        if p is not None and not p.is_zero():
            lines.append(f"d {chord} = {format_poly(p)}")
    return "\n".join(lines) + "\n"
