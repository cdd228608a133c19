r"""Line-oriented text format for DGAs (.dga files).

Grammar (one statement per line, '#' starts a comment when it begins the
line or follows whitespace -- '#' inside an identifier is literal, which
is what connected-sum chord names like a1#2 use):

    dga "<name>"              header, required first
    tb <int>                  optional assertion (see below)
    basepoint t               optional (t is reserved either way)
    gen <ident> <int>         one chord declaration per line
    d <ident> = <poly>        differential; omitted chords are closed

A tb line asserts the Thurston-Bennequin number.  Like basepoint t it
adds nothing to the DGA: parse checks it against the signed chord count
(euler_tb) of the DGA it builds and raises InvalidParameter on a
mismatch, and serialize does not write it back.

A <poly> is '+'/'-' separated terms.  Each term is an optional integer
coefficient joined by '*' to factors, each factor a chord identifier, t,
or t^-1; a bare integer is a constant term and 1 is the unit monomial:

    d a10 = 1 - a4 - a6 - a6*a5*a4 - a6*a11*a7

Lines are numbered as str.splitlines breaks them: besides LF, CR and
CRLF, at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029.  Columns count
characters from 1.

A gen or d line in the serializer's form (single spaces, no '*' padding,
no comment, ints of at most 18 digits, words of at most MAX_WORD_LETTERS
letters) is taken whole by one regex match, by the one regex that its
prefix 'gen ' or 'd ' picks.  Every other line, and every line before
the header, goes to the tokenizer: the line loses its comment first,
then one regex splits the rest into typed tokens: int
(decimal digits), ident (a chord name [A-Za-z_][A-Za-z0-9_#]* or t^-1),
op (= + - *) and str (a double-quoted name).  Both routes give the same
DGA with the same term order, and a line the fast route takes raises
nothing, so every error comes from the tokenizer.

As the comment goes first, a '#' after whitespace ends the line even
inside quotes: dga "a #b" is an unterminated string.  Whitespace between
tokens is insignificant, and errors report line and column.  A monomial
has at most MAX_WORD_LETTERS factors: the Leibniz rule copies the whole
word once per letter, so validating one n-letter word costs time and
memory quadratic in n.

read_document reads a file of at most MAX_DOCUMENT_BYTES (16 MiB) as
UTF-8; a larger file or a bad byte is a ParseError.  Its first read asks
for min(st_size, MAX_DOCUMENT_BYTES) + 1 bytes, st_size from fstat on the
open file; if more than st_size bytes come back (a pipe or a /proc file
reports 0, and a file may grow), it reads on up to one byte past the cap.

parse checks what the DGA constructor checks, with line numbers: chord
names neither reserved nor declared twice, differentials only of declared
chords, and only declared symbols in them; like the constructor it drops
a differential that sums to zero.  It then builds the DGA through the
private DGA._unchecked, so no check runs twice.  The serializer emits
canonical term order (length-lex) with LF line endings;
parse(serialize(d)) == d, and serialize raises InvalidParameter for a
DGA that no document can hold.
"""

from __future__ import annotations

import os
import re

from .algebra import CHORD_NAME, T_INV_SYMBOL, T_SYMBOL, Poly, first_unknown_symbol, format_poly
from .dga import DGA, euler_tb
from .errors import DuplicateGenerator, InvalidParameter, ParseError, UnknownGenerator

# A comment starts at a '#' that begins the line or follows whitespace.
_COMMENT = re.compile(r"(?<!\S)#")
# One token per match, leading whitespace folded in; m.lastindex is the
# kind.  The last group catches a lone '"' or a stray character: it must
# be \S, or \s* would backtrack and report a trailing space.  Lines are
# right-stripped first, or finditer would retry at every trailing blank.
_TOKEN = re.compile(
    rf'\s*(?:(\d+)|(t\^-1|{CHORD_NAME.pattern})|([=+*-])|("[^"]*")|(\S))'
)
_KINDS = (None, "int", "ident", "op", "str")
_BAD = len(_KINDS)

# The most factors in one monomial.  Built-in DGAs and their connected sums
# have at most 4; one word of 1024 letters validates in about 0.05 s.
MAX_WORD_LETTERS = 1024

# The most bytes read from a .dga file, about 50 times the largest document
# in the tests (one 32768-term line of about 0.3 MB).
MAX_DOCUMENT_BYTES = 16 * 1024 * 1024

# The fast route takes a whole gen or d line in the serializer's form: one
# space between tokens, none around '*', no comment.  \d is the tokenizer's
# digit class, and an identifier always ends at '*', ' ' or the end of the
# line, so a match splits the line exactly as the tokens do.  A match can
# raise nothing: its ints have at most 18 digits, which int() converts under
# any digit limit, and its words at most MAX_WORD_LETTERS letters.
_IDENT = CHORD_NAME.pattern
_FACTOR = rf"(?:t\^-1|{_IDENT})"
_INT = r"\d{1,18}"
_TERM = rf"(?:(?:{_INT}\*)?{_FACTOR}(?:\*{_FACTOR}){{0,{MAX_WORD_LETTERS - 1}}}|{_INT})"
_GEN_LINE = re.compile(rf"gen ({_IDENT}) (-?{_INT})")
_D_LINE = re.compile(rf"d ({_IDENT}) = ([+-]?{_TERM}(?: [+-] {_TERM})*)")

# serialize checks names against CHORD_NAME and this: a '#' after
# whitespace would start a comment inside the quoted DGA name.
_NAME_COMMENT = re.compile(r"\s#")


class _LineTokens:
    """(kind, text, col) tokens of one line, with positions for errors."""

    def __init__(self, raw: str, lineno: int):
        self.lineno = lineno
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(_COMMENT.split(raw, maxsplit=1)[0].rstrip()):
            kind = m.lastindex
            col = m.start(kind)
            if kind == _BAD:
                ch = m.group(kind)
                if ch == '"':
                    raise ParseError("unterminated string", lineno, col + 1)
                raise ParseError(f"unexpected character {ch!r}", lineno, col + 1)
            self.tokens.append((_KINDS[kind], m.group(kind), col))
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        if self.pos >= len(self.tokens):
            last_col = self.tokens[-1][2] + 1 if self.tokens else 1
            raise ParseError("unexpected end of line", self.lineno, last_col)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self):
        if self.pos < len(self.tokens):
            _, tok, col = self.tokens[self.pos]
            raise ParseError(f"unexpected token {tok!r}", self.lineno, col + 1)

    def error(self, message: str):
        col = self.tokens[self.pos][2] + 1 if self.pos < len(self.tokens) else 1
        raise ParseError(message, self.lineno, col)


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
    kind, tok, col = toks.next()
    start = col
    if kind == "int":
        coeff = _to_int(tok, toks.lineno, col)
        if toks.peek() == "*":
            toks.next()
            kind, tok, col = toks.next()
        else:
            return coeff, word
    while True:
        if kind != "ident":
            raise ParseError(f"expected a factor, got {tok!r}", toks.lineno, col + 1)
        if len(word) == MAX_WORD_LETTERS:
            raise ParseError(
                f"monomial of more than {MAX_WORD_LETTERS} letters", toks.lineno, start + 1
            )
        word.append(tok)
        if toks.peek() == "*":
            toks.next()
            kind, tok, col = toks.next()
        else:
            return coeff, word


def _parse_terms(toks: _LineTokens) -> list[tuple[list[str], int]]:
    """The line's (word, signed coeff) pairs, in order."""
    pairs: list[tuple[list[str], int]] = []
    sign = 1
    if toks.peek() in ("+", "-"):
        sign = -1 if toks.next()[1] == "-" else 1
    while True:
        coeff, word = _parse_term(toks)
        pairs.append((word, sign * coeff))
        nxt = toks.peek()
        if nxt is None:
            return pairs
        if nxt in ("+", "-"):
            toks.next()
            sign = -1 if nxt == "-" else 1
        else:
            toks.error(f"expected '+' or '-', got {nxt!r}")


def _canonical_terms(poly: str) -> list[tuple[list[str], int]]:
    """The (word, signed coeff) pairs of a poly matched by _D_LINE, in order."""
    if poly[0] in "+-":
        parts = [poly[0], *poly[1:].split(" ")]
    else:
        parts = ["+", *poly.split(" ")]
    pairs: list[tuple[list[str], int]] = []
    for i in range(0, len(parts), 2):
        factors = parts[i + 1].split("*")
        if factors[0][0].isdecimal():
            coeff = int(factors.pop(0))
        else:
            coeff = 1
        pairs.append((factors, -coeff if parts[i] == "-" else coeff))
    return pairs


def _parse_int(toks: _LineTokens) -> int:
    kind, tok, col = toks.next()
    sign = 1
    if tok == "-":
        sign = -1
        kind, tok, col = toks.next()
    if kind != "int":
        raise ParseError(f"expected an integer, got {tok!r}", toks.lineno, col + 1)
    return sign * _to_int(tok, toks.lineno, col)


def read_document(path: str) -> str:
    """The text of a .dga file, read as at most MAX_DOCUMENT_BYTES of UTF-8.

    The first read asks for one byte more than the file's size, capped: a
    request for the cap itself would allocate a 16 MiB buffer per call.
    """
    with open(path, "rb") as handle:
        size = min(os.fstat(handle.fileno()).st_size, MAX_DOCUMENT_BYTES)
        data = handle.read(size + 1)
        if len(data) > size:
            # A pipe or a /proc file reports size 0, and a file may have
            # grown since the fstat: read on up to one byte past the cap.
            data += handle.read(MAX_DOCUMENT_BYTES + 1 - len(data))
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ParseError(f"document of more than {MAX_DOCUMENT_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte's line and column as parse counts them.
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(
            f"invalid UTF-8 byte {data[exc.start]:#04x}", len(lines), len(lines[-1])
        ) from None


def parse(text: str) -> DGA:
    """Parse a .dga document into a (structurally valid) DGA.

    Grading and d^2 = 0 are *not* checked here; run validate separately.
    A tb line is checked against the DGA built, and then dropped.  The
    structural checks are made here and not again by the constructor.
    """
    name: str | None = None
    tb: int | None = None
    chords: list[tuple[str, int]] = []
    declared: set[str] = set()
    # (chord, lineno, pairs from the fast route or the line's tokens); the
    # tokens are parsed after every gen line is read.
    diff_lines: list[tuple[str, int, list | _LineTokens]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # The line's prefix picks the one fast-route regex that can match it.
        if name is not None:
            if raw.startswith("gen "):
                m = _GEN_LINE.fullmatch(raw)
                if m and m[1] != "t" and m[1] not in declared:
                    declared.add(m[1])
                    chords.append((m[1], int(m[2])))
                    continue
            elif raw.startswith("d "):
                m = _D_LINE.fullmatch(raw)
                if m:
                    diff_lines.append((m[1], lineno, _canonical_terms(m[2])))
                    continue
        toks = _LineTokens(raw, lineno)
        if not toks.tokens:
            continue
        _, keyword, col = toks.next()
        if name is None:
            if keyword != "dga":
                raise ParseError("document must start with: dga \"<name>\"", lineno, col + 1)
            kind, tok, col = toks.next()
            if kind != "str":
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
            _, tok, col = toks.next()
            if tok != "t":
                raise ParseError("the basepoint must be t", lineno, col + 1)
            toks.expect_end()
        elif keyword == "gen":
            kind, tok, col = toks.next()
            if kind != "ident" or tok in ("t", "t^-1"):
                raise ParseError(f"bad chord name {tok!r}", lineno, col + 1)
            if tok in declared:
                raise DuplicateGenerator(f"chord {tok!r} declared twice (line {lineno})")
            degree = _parse_int(toks)
            toks.expect_end()
            declared.add(tok)
            chords.append((tok, degree))
        elif keyword == "d":
            kind, tok, col = toks.next()
            if kind != "ident":
                raise ParseError(f"bad chord name {tok!r}", lineno, col + 1)
            _, eq, col = toks.next()
            if eq != "=":
                raise ParseError(f"expected '=', got {eq!r}", lineno, col + 1)
            diff_lines.append((tok, lineno, toks))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, col + 1)

    if name is None:
        raise ParseError("empty document", 1, 1)

    known = declared | {T_SYMBOL, T_INV_SYMBOL}
    diff: dict[str, Poly] = {}
    for chord, lineno, pairs in diff_lines:
        if chord not in declared:
            raise UnknownGenerator(
                f"differential for undeclared chord {chord!r} (line {lineno})"
            )
        if chord in diff:
            raise ParseError(f"duplicate differential for {chord!r}", lineno, 1)
        if isinstance(pairs, _LineTokens):
            pairs = _parse_terms(pairs)
        poly = Poly.from_terms(pairs)
        # Only symbols left in the sum count: a written term may have cancelled.
        symbol = first_unknown_symbol(poly, known)
        if symbol is not None:
            raise UnknownGenerator(f"undeclared symbol {symbol!r} in d {chord} (line {lineno})")
        diff[chord] = poly

    # The checks above are those of the DGA constructor, with line numbers;
    # as there, a differential that sums to zero is dropped.
    dga = DGA._unchecked(name, tuple(chords), {chord: p for chord, p in diff.items() if p})
    if tb is not None and tb != (signed := euler_tb(dga)):
        raise InvalidParameter(f"tb {tb} contradicts the gradings, which give tb = {signed}")
    return dga


def serialize(dga: DGA) -> str:
    """Canonical document for a DGA; round-trips through parse.

    A DGA built in Python may hold what no document can: a name with a
    '"', a line break or a '#' after whitespace, a chord name that is not
    an identifier, a monomial of more than MAX_WORD_LETTERS letters, or a
    degree or coefficient past sys.get_int_max_str_digits() digits.
    serialize checks for these and raises InvalidParameter; it does not
    parse the document back.
    """
    name = dga.name
    if '"' in name or _NAME_COMMENT.search(name) or "".join(name.splitlines()) != name:
        raise InvalidParameter(f"DGA name {name!r} cannot be written in a .dga document")
    lines = [f'dga "{name}"', "basepoint t"]
    for chord, degree in dga.chords:
        if not CHORD_NAME.fullmatch(chord):
            raise InvalidParameter(f"chord name {chord!r} cannot be written in a .dga document")
        try:
            lines.append(f"gen {chord} {degree}")
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise InvalidParameter(
                f"degree of chord {chord!r} has too many digits for a .dga document"
            ) from None
    for chord, _ in dga.chords:
        p = dga.diff.get(chord)
        if p is None or p.is_zero():
            continue
        if any(len(word) > MAX_WORD_LETTERS for word in p.terms):
            raise InvalidParameter(
                f"d {chord} has a monomial of more than {MAX_WORD_LETTERS} letters,"
                " which a .dga document cannot hold"
            )
        try:
            lines.append(f"d {chord} = {format_poly(p)}")
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise InvalidParameter(
                f"d {chord} has a coefficient with too many digits for a .dga document"
            ) from None
    return "\n".join(lines) + "\n"
