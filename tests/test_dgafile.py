import os
import random
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import lchkit
from lchkit.algebra import Poly, gen, t_gen
from lchkit import dgafile
from lchkit.dga import DGA, connected_sum, geography_dga, lambda0, lambda_k, unknot, validate
from lchkit.dgafile import MAX_WORD_LETTERS, parse, serialize
from lchkit.errors import DuplicateGenerator, InvalidParameter, LchError, ParseError, UnknownGenerator

DATA = Path(__file__).resolve().parent.parent / "src" / "lchkit" / "data"


def test_minimal_document_is_unknot():
    doc = 'dga "U"\ngen a 1\nd a = t + 1\n'
    parsed = parse(doc)
    u = unknot()
    assert parsed.chords == u.chords
    assert parsed.diff == u.diff
    assert parsed.name == "U"


def test_round_trip_builtins():
    for dga in [lambda0(), lambda_k(1), lambda_k(2), lambda_k(4), unknot()]:
        assert parse(serialize(dga)) == dga


def test_round_trip_connected_sums():
    s = connected_sum(lambda0(), lambda_k(1))
    assert parse(serialize(s)) == s
    s2 = connected_sum(s, unknot())
    assert parse(serialize(s2)) == s2


def test_shipped_fixtures_round_trip():
    fixtures = sorted(DATA.glob("*.dga"))
    assert len(fixtures) >= 5
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        dga = parse(text)
        assert serialize(dga) == text
        assert validate(dga).ok


def test_lambda0_fixture_matches_constructor():
    text = (DATA / "lambda0.dga").read_text(encoding="utf-8")
    assert parse(text) == lambda0()
    assert "d a2 = a4*a11" in text


def test_serialize_is_canonical_and_idempotent():
    doc = 'dga "x"\ngen b 1\ngen a 0\nd b = 2*a + t - 1*a # comment\n'
    dga = parse(doc)
    out = serialize(dga)
    assert parse(out) == dga
    assert serialize(parse(out)) == out
    assert "d b = t + a" in out


def test_serialize_refuses_names_a_document_cannot_hold():
    """Names parse would misread raise InvalidParameter; the rest round-trip."""
    for name in ('a"b', "x #y", "p\nq", "p\r", "u\u2028v", "tab\t#"):
        with pytest.raises(InvalidParameter) as err:
            serialize(DGA(name=name, chords=(("a", 0),)))
        assert str(err.value) == f"DGA name {name!r} cannot be written in a .dga document"
    for chord in ("a b", "1a", "a-b", "é", "a^2"):
        with pytest.raises(InvalidParameter) as err:
            serialize(DGA(name="ok", chords=((chord, 0),)))
        assert str(err.value) == f"chord name {chord!r} cannot be written in a .dga document"
    for name in ("", "#x", "a#b", " lead and trail ", "ü²"):
        dga = DGA(name=name, chords=(("a#2", 0), ("_b", 1)), diff={"_b": gen("a#2")})
        assert parse(serialize(dga)) == dga


def test_serialize_refuses_words_a_document_cannot_hold():
    """A word parse would refuse raises InvalidParameter; the longest allowed round-trips."""
    word = ("a",) * MAX_WORD_LETTERS
    ok = DGA(name="x", chords=(("a", 0), ("b", 1)), diff={"b": Poly({word: 1})})
    assert parse(serialize(ok)) == ok
    long = DGA(name="x", chords=(("a", 0), ("b", 1)), diff={"b": Poly({word + ("t",): 1})})
    with pytest.raises(InvalidParameter) as err:
        serialize(long)
    assert str(err.value) == (
        f"d b has a monomial of more than {MAX_WORD_LETTERS} letters,"
        " which a .dga document cannot hold"
    )


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
def test_serialize_refuses_integers_past_the_digit_limit():
    # str() refuses an int past sys.get_int_max_str_digits() digits with a
    # bare ValueError; serialize must raise one of the package's errors.
    huge = 10 ** (sys.get_int_max_str_digits() + 700)
    cases = [
        (
            DGA(name="x", chords=(("a", 0), ("b", 1)), diff={"b": Poly({("a",): huge})}),
            "d b has a coefficient with too many digits for a .dga document",
        ),
        (
            DGA(name="x", chords=(("a", 0), ("b", huge))),
            "degree of chord 'b' has too many digits for a .dga document",
        ),
    ]
    for dga, message in cases:
        with pytest.raises(InvalidParameter) as err:
            serialize(dga)
        assert str(err.value) == message


def test_zero_differential_serializes_without_d_lines():
    dga = DGA(name="flat", chords=(("x", 0), ("y", 2)))
    text = serialize(dga)
    assert "d " not in text
    assert parse(text) == dga


def test_tb_line_is_checked_not_kept():
    # A tb line that matches the gradings adds nothing to the DGA, and the
    # serializer does not write it back; one that does not is refused.
    text = serialize(lambda0())
    header, rest = text.split("\n", 1)
    parsed = parse(f"{header}\ntb 1\n{rest}")
    assert parsed == lambda0()
    assert serialize(parsed) == text
    with pytest.raises(InvalidParameter) as err:
        parse(f"{header}\ntb 3\n{rest}")
    assert str(err.value) == "tb 3 contradicts the gradings, which give tb = 1"


def test_crlf_and_comments_and_blank_lines():
    doc = 'dga "w"\r\n# full-line comment\r\n\r\ngen a 1 # trailing\r\nd a = t + 1\r\n'
    assert parse(doc).diff["a"] == t_gen + Poly.one()


def test_hash_inside_identifier_is_literal():
    doc = 'dga "s"\ngen a#2 0\ngen b 1\nd b = a#2 # but this is a comment\n'
    dga = parse(doc)
    assert dga.chord_names() == ["a#2", "b"]
    assert dga.diff["b"] == gen("a#2")


def test_negative_coefficients_and_t_inverse():
    doc = 'dga "m"\ngen a 0\ngen b 1\nd b = -3*t^-1*a + 1 - a\n'
    dga = parse(doc)
    expected = -3 * (Poly.gen("t^-1") * gen("a")) + Poly.one() - gen("a")
    assert dga.diff["b"] == expected
    assert parse(serialize(dga)) == dga


def test_parse_errors():
    # (document, line, col, message): every location is pinned.
    cases = [
        ("", 1, 1, "empty document"),
        ("gen a 1\n", 1, 1, 'document must start with: dga "<name>"'),
        ('dga "x"\ndga "y"\n', 2, 1, "duplicate dga header"),
        ('dga "x"\ngen a\n', 2, 5, "unexpected end of line"),  # missing degree
        ('dga "x"\ngen a 1\nd a = a *\n', 3, 9, "unexpected end of line"),  # dangling *
        ('dga "x"\ngen a 1\nd a = + \n', 3, 7, "unexpected end of line"),  # missing term
        ('dga "x"\ngen a 1\nd a a\n', 3, 5, "expected '=', got 'a'"),
        ('dga "x"\ngen t 0\n', 2, 5, "bad chord name 't'"),  # reserved name
        ('dga "x\n', 1, 5, "unterminated string"),
        # a '#' after whitespace starts a comment even inside quotes
        ('dga "a #b"\n', 1, 5, "unterminated string"),
        ('dga "x"\nfoo bar\n', 2, 1, "unknown directive 'foo'"),
        ('dga "x"\ngen a 1\nd a = 2*3\n', 3, 9, "expected a factor, got '3'"),
        ('dga "x"\ngen a 1\ntb 1\ntb 2\n', 4, 1, "duplicate tb line"),
        ('dga "x"\ngen a 1\nd a = 1\nd a = t\n', 4, 1, "duplicate differential for 'a'"),
        ('dga "x"\nbasepoint s\n', 2, 11, "the basepoint must be t"),
        ('dga "x"\ngen a 1\nd a = a ~ a\n', 3, 9, "unexpected character '~'"),
        # a digit to isdigit(), not to int()
        ('dga "x"\ngen a 1\nd a = \u00b2*a\n', 3, 7, "unexpected character '\u00b2'"),
        # t^-1 is one token, so the chord after it needs an operator
        ('dga "x"\ngen a 1\nd a = t^-1a\n', 3, 11, "expected '+' or '-', got 'a'"),
    ]
    for doc, line, col, message in cases:
        with pytest.raises(ParseError) as info:
            parse(doc)
        assert (info.value.line, info.value.col) == (line, col), doc
        assert str(info.value) == f"{message} (line {line}, col {col})"
    # trailing blanks are not stray characters
    assert parse('dga "x"\ngen a 1   \n').chords == (("a", 1),)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
def test_overlong_integers_are_parse_errors():
    # Past sys.get_int_max_str_digits() (4300 by default) int() refuses to
    # convert; each integer slot must report the location instead.
    digits = "1" * (sys.get_int_max_str_digits() + 700)
    cases = [
        (f'dga "x"\ngen a 0\ngen b 1\nd b = {digits}*a\n', 4, 7),
        (f'dga "x"\ngen a 0\ngen b 1\nd b = a - {digits}\n', 4, 11),
        (f'dga "x"\ntb -{digits}\n', 2, 5),
        (f'dga "x"\ngen a {digits}\n', 2, 7),
    ]
    for doc, line, col in cases:
        with pytest.raises(ParseError) as info:
            parse(doc)
        assert (info.value.line, info.value.col) == (line, col)
        assert "too long" in str(info.value)


def test_word_length_cap():
    # A monomial of MAX_WORD_LETTERS factors parses; one more letter is a
    # ParseError at the start of its term.  Every built-in has words of at
    # most 4 letters.
    head = 'dga "x"\ngen a 0\ngen b 1\nd b = a + '
    word = ["a"] * MAX_WORD_LETTERS
    assert parse(head + "*".join(word) + "\n").diff["b"].terms[tuple(word)] == 1
    with pytest.raises(ParseError) as info:
        parse(head + "3*" + "*".join(word + ["t"]) + "\n")
    assert str(info.value) == f"monomial of more than {MAX_WORD_LETTERS} letters (line 4, col 11)"
    for dga in (unknot(), lambda0(), lambda_k(3), connected_sum(lambda0(), lambda_k(1))):
        assert max(len(w) for p in parse(serialize(dga)).diff.values() for w in p.terms) <= 4


def test_long_differential_line_parses_in_linear_time():
    # One line of 32768 distinct terms.  Rebuilding the whole Poly for every
    # term made this take seconds; summing into one dict takes a fraction.
    names = [f"g{i}" for i in range(182)]
    words = [f"{x}*{y}" for x in names for y in names][:32768]
    doc = (
        'dga "long"\n'
        + "".join(f"gen {x} 0\n" for x in names)
        + "gen z 1\nd z = " + " + ".join(words) + " - g0*g0 + 2*g0*g0\n"
    )
    start = time.perf_counter()
    dga = parse(doc)
    elapsed = time.perf_counter() - start
    terms = dga.diff["z"].terms
    assert len(terms) == 32768
    assert terms[("g0", "g0")] == 2 and terms[("g179", "g8")] == 1
    assert parse(serialize(dga)) == dga
    assert elapsed < 3.0, elapsed


def _long_line_doc(n, term, head):
    return (
        'dga "long"\n' + head
        + "".join(f"gen b{i} 0\n" for i in range(n))
        + "d z = " + " + ".join(term.format(i) for i in range(n)) + "\n"
    )


def test_long_differential_line_validates_in_linear_time():
    # d(c*b_i) = b0*b_i - b1*b_i: the Leibniz rule yields 65536 terms.  Adding
    # them one Poly at a time copied the growing sum at every step.
    dga = parse(_long_line_doc(32768, "c*b{}", "gen c 1\ngen z 2\nd c = b0 - b1\n"))
    start = time.perf_counter()
    report = validate(dga)
    elapsed = time.perf_counter() - start
    assert report.grading_ok and not report.d_squared_ok
    (chord, dd), = report.failures
    assert chord == "z" and len(dd.terms) == 65536
    assert list(dd.terms.items())[:3] == [(("b0", "b0"), 1), (("b1", "b0"), -1), (("b0", "b1"), 1)]
    assert elapsed < 3.0, elapsed


def test_long_differential_line_substitutes_in_linear_time():
    # connected_sum rewrites t -> c in all 32768 terms t*b_i of d z.
    dga = parse(_long_line_doc(32768, "t*b{}", "gen z 1\n"))
    start = time.perf_counter()
    summed = connected_sum(dga, unknot())
    elapsed = time.perf_counter() - start
    terms = summed.diff["z"].terms
    assert len(terms) == 32768
    assert list(terms.items())[:2] == [(("c", "b0"), 1), (("c", "b1"), 1)]
    assert summed.diff["a"] == 1 - t_gen * gen("c")
    assert elapsed < 3.0, elapsed


def test_duplicate_and_unknown_generators():
    with pytest.raises(DuplicateGenerator):
        parse('dga "x"\ngen a 1\ngen a 0\n')
    with pytest.raises(UnknownGenerator):
        parse('dga "x"\ngen a 1\nd a = zz\n')
    with pytest.raises(UnknownGenerator):
        parse('dga "x"\ngen a 1\nd zz = a\n')


def test_unknown_generator_messages():
    cases = [
        ('dga "x"\ngen a 1\nd a = 2*t*zz - 1\n', "undeclared symbol 'zz' in d a (line 3)"),
        ('dga "x"\ngen a 1\nd a = t^-1 + zz\n', "undeclared symbol 'zz' in d a (line 3)"),
        ('dga "x"\ngen a 1\nd zz = a\n', "differential for undeclared chord 'zz' (line 3)"),
        ('dga "x"\nd t = 1\ngen a 1\n', "differential for undeclared chord 't' (line 2)"),
    ]
    for doc, message in cases:
        with pytest.raises(UnknownGenerator) as info:
            parse(doc)
        assert str(info.value) == message
    # Only symbols left in the sum count: terms that cancel name nothing.
    assert parse('dga "x"\ngen a 1\nd a = zz - zz\n').diff == {}


# Prints the messages of parse and of the DGA constructor for
# differentials with several undeclared symbols.
_NAMING = """
from lchkit.algebra import gen
from lchkit.dga import DGA
from lchkit.dgafile import parse
for build in (
    lambda: parse('dga "x"\\ngen a 1\\nd a = xx + yy + zz\\n'),
    lambda: DGA("x", (("a", 1),), {"a": gen("xx") + gen("yy")}),
):
    try:
        build()
    except Exception as exc:
        print(exc)
"""


def test_undeclared_symbol_named_is_the_first_whatever_the_hash_seed():
    """The first undeclared symbol in term order is named, in every process."""
    src = os.path.dirname(os.path.dirname(lchkit.__file__))
    for seed in range(1, 6):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        proc = subprocess.run(
            [sys.executable, "-c", _NAMING], capture_output=True, text=True, timeout=30, env=env
        )
        assert proc.stdout.splitlines() == [
            "undeclared symbol 'xx' in d a (line 3)",
            "differential of 'a' uses undeclared symbol 'xx'",
        ], (seed, proc.stderr)


def test_parse_error_carries_location():
    try:
        parse('dga "x"\ngen a 1\nd a = a *\n')
    except ParseError as exc:
        assert exc.line == 3
    else:
        raise AssertionError("expected ParseError")


def _outcome(text):
    """What parse makes of text: the DGA with its term order, or the error."""
    try:
        dga = parse(text)
    except LchError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return dga, [(chord, list(p.terms.items())) for chord, p in dga.diff.items()]


def _random_documents(rng):
    alphabet = 'dga gen t^-1 basepoint tb "x" a1 # = + - * 0123456789\n \t'
    pieces = [
        'dga "f"',
        "gen a 1",
        "gen b 0",
        "d a = t + b",
        "d b = 1",
        "tb 2",
        "basepoint t",
    ]
    for i in range(10_000):
        if i % 3 == 0:
            yield "".join(rng.choice(alphabet) for _ in range(rng.randrange(80)))
        else:
            lines = [rng.choice(pieces) for _ in range(rng.randrange(6))]
            text = "\n".join(lines)
            if rng.random() < 0.7:
                pos = rng.randrange(len(text) + 1)
                text = text[:pos] + rng.choice(alphabet) + text[pos:]
            yield text


# Insertions into canonical documents: operators, digits that \d and int()
# accept or refuse, quotes, Unicode blanks, characters that str.splitlines
# takes as line breaks, and whole lines that reuse a name.
_INSERTS = list("#*+-0123456789\" \t") + [
    "\u00b2", "\u0663", "\u00a0", "\u2009", "\u3000", "\x0c", "\x0b", "\x1c", "\x85", "\u2028",
    "t^-1", "a1", "10*", " + a1", " - 2*t", "\ngen t 0\n", "\ngen a1 1\n", "\nd a1 = t\n",
]


def _mutated_documents(rng, per_document):
    summed = connected_sum(lambda0(), lambda_k(1))
    geography, _ = geography_dga(2, 1, [4])
    for dga in (lambda0(), lambda_k(1), lambda_k(2), lambda_k(3), summed, geography):
        text = serialize(dga)
        yield text
        for _ in range(per_document):
            mutated = text
            for _ in range(rng.randrange(1, 4)):
                pos = rng.randrange(len(mutated) + 1)
                if rng.random() < 0.3:
                    mutated = mutated[:pos] + mutated[pos + 1 :]
                else:
                    mutated = mutated[:pos] + rng.choice(_INSERTS) + mutated[pos:]
            yield mutated


def test_fuzz_fast_route_matches_token_route(monkeypatch):
    # Whole canonical lines skip the tokenizer.  With the fast-route regexes
    # made to never match, every line goes through the tokens; both routes
    # must give equal DGAs with equal term order, or equal errors.
    rng = random.Random(20240818)
    docs = [*_random_documents(rng), *_mutated_documents(rng, 400)]
    fast = [_outcome(text) for text in docs]
    never = re.compile(r"(?!)")
    monkeypatch.setattr(dgafile, "_GEN_LINE", never)
    monkeypatch.setattr(dgafile, "_D_LINE", never)
    for text, expected in zip(docs, fast):
        assert _outcome(text) == expected, text
    assert sum(not isinstance(o[0], type) for o in fast) > 250  # some still parse


def _assert_as_constructed(dga):
    """The public constructor, with its checks, keeps dga's parts as they are."""
    rebuilt = DGA(dga.name, dga.chords, dict(dga.diff))
    assert dga == rebuilt
    assert [(c, list(p.terms.items())) for c, p in dga.diff.items()] == [
        (c, list(p.terms.items())) for c, p in rebuilt.diff.items()
    ]


def test_parse_builds_what_the_constructor_builds():
    # parse skips the constructor's checks, as its own have made them; on
    # every document it accepts, the constructor must accept the same parts
    # and keep them as they are: no zero differential, same key and term order.
    rng = random.Random(20240818)
    docs = [*_random_documents(rng), *_mutated_documents(rng, 400)]
    # Differentials that sum to zero, on the fast route and on the tokens.
    zero_sums = [
        'dga "z"\ngen a 1\ngen b 0\nd a = b - b\n',
        'dga "z"\ngen a 1\ngen b 0\nd a = b-b\n',
        'dga "z"\ngen a 1\ngen b 0\nd a = t*t^-1 - 1\nd b = t^-1 * t - 1 # cancels\n',
        'dga "z"\ngen a 1\ngen b 0\nd b = 2*b - b - b  \nd a = b\n',
    ]
    docs += zero_sums
    parsed = 0
    for text in docs:
        try:
            dga = parse(text)
        except LchError:
            continue
        parsed += 1
        _assert_as_constructed(dga)
    assert parsed > 250
    assert [list(parse(text).diff) for text in zero_sums] == [[], [], [], ["a"]]
    # A differential that sums to zero still counts as written once.
    with pytest.raises(ParseError) as err:
        parse('dga "z"\ngen a 1\ngen b 0\nd a = b - b\nd a = b\n')
    assert str(err.value) == "duplicate differential for 'a' (line 5, col 1)"


def test_connected_sums_build_what_the_constructor_builds():
    for d1, d2 in (
        (unknot(), unknot()),
        (lambda0(), lambda_k(1)),
        (lambda_k(2), lambda_k(2)),
        (connected_sum(lambda0(), lambda0()), lambda0()),
    ):
        _assert_as_constructed(connected_sum(d1, d2))
    for i, m, torsions in ((2, 1, [4]), (-2, 1, [4, 6]), (-1, 0, [2, 3, 5]), (3, 2, [])):
        _assert_as_constructed(geography_dga(i, m, torsions)[0])


def _read_reporting_size(monkeypatch, path, reported):
    """read_document(path) with fstat reporting a size of `reported` bytes."""
    fake_os = types.SimpleNamespace(fstat=lambda fd: types.SimpleNamespace(st_size=reported))
    monkeypatch.setattr(dgafile, "os", fake_os)
    return dgafile.read_document(path)


def test_read_document_reads_past_a_stale_size(tmp_path, monkeypatch):
    # The first read is sized by fstat.  A pipe reports size 0 and a file may
    # grow after the fstat: the rest is read on, up to the cap.
    doc = tmp_path / "x.dga"
    cap = 64
    monkeypatch.setattr(dgafile, "MAX_DOCUMENT_BYTES", cap)
    for length in (0, 1, cap - 1, cap):
        data = b"#" * length
        doc.write_bytes(data)
        for reported in (0, 1, length // 2, length, length + 100):
            assert _read_reporting_size(monkeypatch, str(doc), reported) == data.decode()
    doc.write_bytes(b"#" * (cap + 1))
    for reported in (0, cap // 2, cap, cap + 1, 10 * cap):
        with pytest.raises(ParseError) as err:
            _read_reporting_size(monkeypatch, str(doc), reported)
        assert str(err.value) == f"document of more than {cap} bytes"


def test_read_document_sizes_its_first_read(tmp_path, monkeypatch):
    # Asking for MAX_DOCUMENT_BYTES + 1 bytes allocates a 16 MiB buffer on
    # every call; the first read asks for one byte more than the file holds.
    doc = tmp_path / "lambda0.dga"
    doc.write_text(serialize(lambda0()), encoding="utf-8")
    sizes = []

    class Spy:
        def __init__(self, path, mode):
            self.handle = open(path, mode)
            self.fileno = self.handle.fileno

        def read(self, n):
            sizes.append(n)
            return self.handle.read(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

    monkeypatch.setattr(dgafile, "open", Spy, raising=False)
    assert parse(dgafile.read_document(str(doc))) == lambda0()
    assert sizes == [doc.stat().st_size + 1]
