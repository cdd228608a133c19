import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import lchkit
from lchkit.cli import load_dga, run
from lchkit.dga import DGA, MAX_FAMILY_INDEX, connected_sum, lambda0, lambda_k
from lchkit.dgafile import MAX_DOCUMENT_BYTES, MAX_WORD_LETTERS, parse, serialize
from lchkit.homology import GradedHomology, HomologyGroup


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_builtin_lambda0(capsys):
    code, out, _ = invoke(
        capsys, "homology", "builtin:lambda0", "--aug", "a1=2,a2=-1,a3=1,a6=1", "--ring", "Z"
    )
    assert code == 0
    assert out.splitlines() == ["H_1 = Z", "H_0 = Z^2 + Z/2", "H_-1 = Z/2"]


def test_homology_field_ring(capsys):
    code, out, _ = invoke(
        capsys, "homology", "builtin:lambda0", "--aug", "a3=1,a6=1", "--ring", "Z/2"
    )
    assert code == 0
    assert "H_0 = (Z/2)^4" in out


def test_homology_json_round_trips(capsys):
    code, out, _ = invoke(
        capsys,
        "homology", "builtin:lambda0", "--aug", "a1=6,a2=-1,a3=1,a6=1", "--ring", "Z", "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert GradedHomology.from_json_obj(obj["homology"]).group(0).torsion == (6,)


def test_geography_output(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys, "geography", "--grading", "2", "--free", "1", "--torsion", "4,6"
    )
    assert code == 0
    assert out.strip() == "H_2 = Z + Z/4 + Z/6"
    code, out, _ = invoke(capsys, "geography", "--grading", "-3", "--torsion", "5")
    assert code == 0
    assert out.strip() == "H_-3 = Z/5"
    # The construction's own check: a wrong group is a failure verdict.
    monkeypatch.setattr("lchkit.cli.integral_homology", lambda C: GradedHomology({2: HomologyGroup(1)}))
    for flag in ((), ("--json",)):
        argv = ["geography", "--grading", "2", "--free", "1", "--torsion", "4,6", *flag]
        assert invoke(capsys, *argv) == (1, "", "geography FAILED: H_2 = Z, requested Z + Z/2 + Z/12\n")


def test_geography_json_has_canonical_form(capsys):
    code, out, _ = invoke(
        capsys, "geography", "--grading", "2", "--free", "1", "--torsion", "4,6", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["achieved"] == {"free_rank": 1, "torsion": [2, 12]}


# sha256 of the --json stdout.  `_emit` sorts every key, so the order in
# which a report builds its dicts must never reach these bytes.
_PINNED_JSON = [
    (
        ["augs", "builtin:lambda0", "--ring", "Z/3", "--json"],
        "ec9d88dbc94bdd41a3a7705f9c4e3d4986ac175338ca8abb7ff2781f4b55dc6d",
    ),
    (
        ["geography", "--grading", "-2", "--free", "1", "--torsion", "4,6", "--json"],
        "ec666137394dfa9033d7574a714a68743d20d39c72e7b7129691cb60fc3ab8d8",
    ),
    # These two reach integer pivots that do not divide their columns.
    (
        ["homology", "builtin:lambda2", "--aug", "a1=6, a2=-1, a3=1, a10=1, a11=1, a12=1",
         "--ring", "Z", "--json"],
        "9ca500c3d1dfc233f08f3776b702385ea96a08ee43ab0d044e5a6de383e6202e",
    ),
    (
        ["geography", "--grading", "-1", "--torsion", "4,6,9", "--json"],
        "a551ec6989718ba71cb585ae4c5c092fc83f5f3a30fa463560d9ac501b733167",
    ),
    # The augmentation walk solves variables and sorts its points at the end.
    (
        ["scan", "builtin:lambda0", "--primes", "3,7", "--bound", "1", "--json"],
        "75f2bd165c5fc0a1aa2e6481364b370d727d3a86d01e522919c988add828e169",
    ),
    (
        ["scan", "builtin:lambda3", "--primes", "2,5", "--bound", "2", "--json"],
        "451d8b93b5cc7c619b115b1ad3774c58c207a68c80602cfa90da9871e566f213",
    ),
    # Torsion-heavy integral grids: many distinct invariant-factor vectors.
    (
        ["scan", "builtin:lambda0", "--primes", "2,5", "--bound", "3", "--json"],
        "e6dfe23d5a6c903004fdecb35e32d95bbf912afb1bda8c0749aa92719769fc87",
    ),
    (
        ["scan", "builtin:lambda4", "--primes", "7", "--bound", "3", "--json"],
        "d53c899375062028a5453424552d0b506b7a2e063e3887c70445eff8478a8690",
    ),
]


def test_json_bytes_are_pinned_and_repeat_in_one_process(capsys):
    # The second run reuses the family member built by the first.
    for argv, digest in _PINNED_JSON:
        for _ in range(2):
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# The other one-shot commands: argv, exit code and sha256 of the --json stdout.
_ONE_SHOT_JSON = [
    (
        ["duality", "builtin:lambda0", "--aug", "a1=5, a2=-1, a3=1, a6=1", "--field", "Q", "--json"],
        0,
        "c57d917ffa2df0ae4794f9df5ad11cec895a2f7cb6af41025c3d8fb8e7cfc742",
    ),
    (
        ["obstruction", "builtin:lambda0", "--aug", "a1=5, a2=-1, a3=1, a6=1", "--field", "Z/5",
         "--json"],
        1,
        "bcb16396afc41d828bb7ff695710b9f0dd44d00bf031e28d39438d99ad2f3928",
    ),
    (
        ["obstruction", "builtin:lambda1", "--aug", "a1=3, a2=-1, a3=1, a10=1, a11=1", "--field",
         "Z/3", "--json"],
        1,
        "80e56b9ec2916a2eb9a935794bae1e04ca2f847c26a5cff8cf8e8f334eb7971e",
    ),
    (
        ["bockstein", "builtin:lambda2", "--aug", "a1=6, a2=-1, a3=1, a10=1, a11=1, a12=1", "--json"],
        0,
        "b5c723eb7547d1bea3eb093278840e988c304917b317858519d433830495d4a1",
    ),
    (
        ["homology", "builtin:lambda3", "--aug", "a1=4, a2=-1, a3=1, a10=1, a11=1, a12=1, a13=1",
         "--ring", "Z/2", "--json"],
        0,
        "5f3deea6887baf6a004030c28b9c2c260ea57f770a595e953d89ceed74d7037f",
    ),
]


def test_one_shot_commands_never_compile_the_plan(capsys, monkeypatch):
    """A job that linearizes at one augmentation reads the words once.

    With `DGA.linear_plan` refusing to compile, homology, duality,
    obstruction, bockstein and geography print the same bytes.
    """

    def refuse(dga):
        raise AssertionError(f"DGA.linear_plan compiled for {dga.name}")

    monkeypatch.setattr(DGA, "linear_plan", property(refuse))
    pinned = [(argv, 0, digest) for argv, digest in _PINNED_JSON
              if argv[0] in ("homology", "geography")]
    for argv, expected, digest in pinned + _ONE_SHOT_JSON:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (expected, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_scan_of_a_sum_file_is_pinned(tmp_path, capsys):
    doc = tmp_path / "sum.dga"
    doc.write_text(serialize(connected_sum(lambda_k(1), lambda0())))
    code, out, err = invoke(capsys, "scan", str(doc), "--primes", "2", "--bound", "1", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "86a16b130d3a0f6b1b064e6690778483fe7d3386b798bc38adcd17328d9296c7"
    )


def _lch_process(*argv, stdin=None):
    """`lch argv` in a fresh interpreter, killed after 10 s of wall time.

    `stdin`, if given, is the text piped in.
    """
    src = os.path.dirname(os.path.dirname(lchkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "lchkit.cli", *argv],
        capture_output=True, text=True, input=stdin, timeout=10, env=env,
    )


def test_huge_prime_torsion_order_is_fast():
    proc = _lch_process("geography", "--grading", "2", "--torsion", str(2**61 - 1))
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"H_2 = Z/{2**61 - 1}"


def test_rank_route_does_not_reduce_rows(tmp_path):
    """Field homology of a random 40 x 40 boundary with entries in [-9, 9].

    Rank over Q clears each pivot's column by Euclid and drops its row;
    reducing the pivot row as the Smith diagonal does makes the entries
    grow until the run is killed.  Over Z this boundary still has no bound
    on entry growth (ROADMAP item 2), so only Q and Z/2 are run.
    """
    rng = random.Random(3)
    lines = ['dga "dense"']
    lines += [f"gen a{i} 1" for i in range(40)] + [f"gen b{j} 0" for j in range(40)]
    for i in range(40):
        terms = [(rng.randint(-9, 9), j) for j in range(40) if rng.random() < 0.08]
        terms = [f"{c}*b{j}" for c, j in terms if c]
        if terms:
            lines.append(f"d a{i} = " + " + ".join(terms).replace("+ -", "- "))
    doc = tmp_path / "dense.dga"
    doc.write_text("\n".join(lines) + "\n")
    for ring, group in (("Q", "Q^2"), ("Z/2", "(Z/2)^14")):
        proc = _lch_process("homology", str(doc), "--aug", "", "--ring", ring)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [f"H_1 = {group}", f"H_0 = {group}"]


def test_huge_prime_modulus_is_fast():
    aug = "a1=2,a2=-1,a3=1,a6=1"
    proc = _lch_process("homology", "builtin:lambda0", "--aug", aug, "--ring", f"Z/{2**61 - 1}")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [f"H_1 = (Z/{2**61 - 1})", f"H_0 = (Z/{2**61 - 1})^2"]
    proc = _lch_process("homology", "builtin:lambda0", "--aug", aug, "--ring", f"Z/{2**64}")
    assert proc.returncode == 2
    assert proc.stdout == "" and "2^64" in proc.stderr


def test_huge_modulus_enumeration_stops_at_the_cap():
    # The cap is checked before any value list is built: a list of 2^61
    # values, or of four million, is never made.
    for ring in (f"Z/{2**61 - 1}", "Z/4000037"):
        proc = _lch_process("augs", "builtin:lambda0", "--ring", ring)
        assert proc.returncode == 2
        assert proc.stdout == "" and "exceeds cap" in proc.stderr
    proc = _lch_process("augs", "builtin:lambda0", "--ring", "Z", "--bound", str(10**30))
    assert proc.returncode == 2
    assert proc.stdout == "" and "exceeds cap" in proc.stderr


def test_cap_message_for_a_grid_too_large_to_print(tmp_path, capsys):
    # 600 free chords over Z/(2^61 - 1): the grid size has about 11000 digits.
    doc = tmp_path / "free.dga"
    doc.write_text('dga "free"\n' + "".join(f"gen a{i} 0\n" for i in range(600)))
    code, out, err = invoke(capsys, "augs", str(doc), "--ring", f"Z/{2**61 - 1}")
    assert code == 2
    assert out == "" and f"{2**61 - 1}^600 assignments exceeds cap" in err


def test_cap_message_for_a_window_too_wide_to_print(capsys, monkeypatch):
    # --bound 5 * 10^4299 parses, but the window's 10^4300 + 1 values have
    # more digits than str() takes: the message gives their digit count.
    monkeypatch.delenv("LCH_SEARCH_CAP", raising=False)
    bound = "5" + "0" * 4299
    for argv in (["augs", "builtin:lambda0", "--ring", "Z"], ["scan", "builtin:lambda0", "--primes", ""]):
        assert invoke(capsys, *argv, "--bound", bound) == (
            2, "", "error: <4301 digits>^6 assignments exceeds cap 100000000\n"
        )


def test_deep_augmentation_walk_does_not_recurse(tmp_path):
    # 1200 free degree-0 chords on a one-point grid pass the cap; the walk
    # is 1200 deep, past the interpreter's default recursion limit.
    doc = tmp_path / "flat.dga"
    doc.write_text('dga "flat"\n' + "".join(f"gen x{k} 0\n" for k in range(1200)))
    proc = _lch_process("augs", str(doc), "--ring", "Z", "--bound", "0", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["count"] == 1
    proc = _lch_process("scan", str(doc), "--primes", "", "--bound", "0", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["torsion_free_count"] == 1


def test_long_digit_run_in_a_chord_name(tmp_path):
    # 5000 digits are past the interpreter's int-conversion limit, so the
    # natural order of chord names must not convert digit runs to ints.
    name = "a" + "7" * 5000
    doc = tmp_path / "long.dga"
    doc.write_text(f'dga "long"\ngen {name} 0\ngen b 1\nd b = {name} + t\n')
    proc = _lch_process("augs", str(doc), "--ring", "Z/2", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["count"] == 1
    proc = _lch_process("scan", str(doc), "--primes", "2", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["primes"]["2"][0]["count"] == 1


def test_degree_gap_costs_nothing(tmp_path):
    # Only occupied degrees and each one plus 1 are visited, so two chords
    # 10^9 degrees apart are as cheap as two adjacent ones.
    doc = tmp_path / "gap.dga"
    doc.write_text(f'dga "gap"\ngen a 0\ngen b {10**9}\n')
    for ring in ("Z", "Q"):
        proc = _lch_process("homology", str(doc), "--aug", "", "--ring", ring)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [f"H_{10**9} = {ring}", f"H_0 = {ring}"]


def test_duality_visits_only_occupied_degrees(tmp_path):
    # Duality pairs i = 0, 1 and each |degree| that occurs, not every i up
    # to the largest |degree|.
    doc = tmp_path / "gap.dga"
    doc.write_text(f'dga "gap"\ngen a 0\ngen b {10**9}\n')
    proc = _lch_process("duality", str(doc), "--aug", "", "--field", "Q")
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "field Q",
        "dim_0 = 1   dim_0 = 1",
        "dim_1 = 0   dim_-1 = 0  <-- mismatch",
        f"dim_{10**9} = 1   dim_-{10**9} = 0  <-- mismatch",
        "duality FAILS",
    ]
    proc = _lch_process("duality", str(doc), "--aug", "", "--field", "Q", "--json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {
        "field": "Q",
        "dims": {str(10**9): 1, "0": 1},
        "duality_ok": False,
        "degree1_excess": 0,
    }


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
def test_overlong_json_integer_is_an_error(capsys):
    # Each order fits sys.get_int_max_str_digits() (4300 by default, giving
    # 10^2200 + 1 and 10^2200 + 3), but their lcm does not, so json.dumps
    # cannot write it; the text form still works.
    k = sys.get_int_max_str_digits() // 2 + 50
    orders = f"{10**k + 1},{10**k + 3}"
    code, out, err = invoke(capsys, "geography", "--grading", "2", "--torsion", orders, "--json")
    assert code == 2
    assert out == "" and err.startswith("error: cannot write the JSON report")
    code, out, _ = invoke(capsys, "geography", "--grading", "2", "--torsion", orders)
    assert code == 0 and out.startswith("H_2 = Z/")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
def test_overlong_report_integer_is_an_error_in_either_form(tmp_path, capsys):
    # Every coefficient fits sys.get_int_max_str_digits(), but an invariant
    # factor (the lcm of two coprime coefficients) or a d^2 coefficient (their
    # product) does not.  Only the form asked for is written, so either form
    # fails with exit 2 and no stdout, not a traceback whose exit 1 reads as
    # a verdict.
    limit = sys.get_int_max_str_digits()
    n, m = int("7" * (limit - 300)), 10 ** (limit - 301) + 1
    torsion = tmp_path / "torsion.dga"
    torsion.write_text(
        f'dga "torsion"\ngen a1 1\ngen a2 1\ngen b1 0\ngen b2 0\nd a1 = {n}*b1\nd a2 = {m}*b2\n'
    )
    n, m = 10 ** (limit * 7 // 10) + 3, 10 ** (limit * 7 // 10) + 7
    square = tmp_path / "square.dga"
    square.write_text(f'dga "square"\ngen a 2\ngen b 1\ngen c 0\nd a = {n}*b\nd b = {m}*c\n')
    commands = [
        ["homology", str(torsion), "--aug", ""],
        ["scan", str(torsion), "--primes", "2", "--bound", "0"],
        ["validate", str(square)],
    ]
    for argv in commands:
        for flag, form in (((), "text"), (("--json",), "JSON")):
            code, out, err = invoke(capsys, *argv, *flag)
            assert (code, out) == (2, ""), (argv, flag, err)
            assert err.startswith(f"error: cannot write the {form} report: "), (argv, flag, err)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
def test_overlong_coefficient_is_a_parse_error(tmp_path, capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 700)
    doc = tmp_path / "big.dga"
    doc.write_text(f'dga "big"\ngen a 0\ngen b 1\nd b = {digits}*a\n')
    code, out, err = invoke(capsys, "validate", str(doc))
    assert code == 2
    assert out == "" and "line 4, col 7" in err


def test_overlong_word_is_a_parse_error(tmp_path):
    # Validating one n-letter word is quadratic, as the Leibniz rule copies
    # the word once per letter: 4000 letters (an 8 kB line) took 0.84 s and
    # 163 MB.  Past MAX_WORD_LETTERS the parser stops at the word instead.
    doc = tmp_path / "word.dga"
    word = "*".join(["a"] * 4000)
    doc.write_text(f'dga "word"\ngen a 0\ngen b -1\ngen z 1\nd a = b\nd z = 1 + 2*{word}\n')
    proc = _lch_process("validate", str(doc))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"monomial of more than {MAX_WORD_LETTERS} letters (line 6, col 11)" in proc.stderr


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    # The bad byte's line and column count as parse counts them: characters,
    # with lines broken where str.splitlines breaks them.
    cases = [
        (b'dga "x"\ngen a \xff 1\n', "0xff (line 2, col 7)"),
        (b'dga "\xc3\xa9"\r\ngen \xc3\xa9\xff 1\r\n', "0xff (line 2, col 6)"),
        (b'dga "x"\xe2\x80\xa8\x80', "0x80 (line 2, col 1)"),
        (b'dga "\xc3', "0xc3 (line 1, col 6)"),
    ]
    doc = tmp_path / "bad.dga"
    for data, where in cases:
        doc.write_bytes(data)
        code, out, err = invoke(capsys, "validate", str(doc))
        assert code == 2
        assert out == "" and err == f"error: invalid UTF-8 byte {where}\n"


def test_document_size_cap(tmp_path):
    # At most MAX_DOCUMENT_BYTES + 1 bytes are read: one byte over the cap is
    # a parse error, and a document of exactly the cap still parses.
    doc = tmp_path / "huge.dga"
    head = b'dga "huge"\n# '
    for size, code in ((MAX_DOCUMENT_BYTES, 0), (MAX_DOCUMENT_BYTES + 1, 2)):
        doc.write_bytes(head + b"x" * (size - len(head)))
        proc = _lch_process("validate", str(doc))
        assert proc.returncode == code
    assert proc.stdout == ""
    assert f"document of more than {MAX_DOCUMENT_BYTES} bytes" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_validate_reads_a_pipe(tmp_path):
    # A pipe reports size 0, so the document is read past the first byte;
    # what lch prints must not depend on how the document arrives.
    big = serialize(lambda_k(40)) + "# more than one pipe buffer\n" * 3000
    cases = [
        serialize(lambda0()),
        big,
        'dga "bad"\ngen a 0\ngen b 0\nd a = b\n',
        'dga "x"\ngen a 1 1\n',
        "",
    ]
    doc = tmp_path / "doc.dga"
    codes = []
    for data in cases:
        doc.write_text(data, encoding="utf-8")
        from_file = _lch_process("validate", str(doc))
        from_pipe = _lch_process("validate", "/dev/stdin", stdin=data)
        assert (from_pipe.returncode, from_pipe.stdout, from_pipe.stderr) == (
            from_file.returncode, from_file.stdout, from_file.stderr
        )
        codes.append(from_pipe.returncode)
    assert codes == [0, 0, 1, 2, 2]
    proc = _lch_process("validate", "/dev/stdin", stdin="#" * (MAX_DOCUMENT_BYTES + 1))
    assert proc.returncode == 2
    assert f"document of more than {MAX_DOCUMENT_BYTES} bytes" in proc.stderr


def test_validate_builtin_and_bad_file(tmp_path, capsys):
    code, out, _ = invoke(capsys, "validate", "builtin:lambda2")
    assert code == 0 and "OK" in out
    bad = tmp_path / "bad.dga"
    bad.write_text('dga "bad"\ngen a 0\ngen b 0\nd a = b\n', encoding="utf-8")
    code, out, _ = invoke(capsys, "validate", str(bad))
    assert code == 1
    assert "INVALID" in out and "a" in out


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
def test_overlong_builtin_index_is_an_error(capsys):
    digits = "9" * (sys.get_int_max_str_digits() + 700)
    code, out, err = invoke(capsys, "validate", f"builtin:lambda{digits}")
    assert code == 2
    assert out == ""
    assert err == f"error: builtin:lambda<k> index of {len(digits)} digits is too long\n"


def test_family_index_limit(capsys):
    """The largest family index builds and validates; one past it is
    refused before anything is built, on every route to `lambda_k`."""
    code, out, err = invoke(capsys, "validate", f"builtin:lambda{MAX_FAMILY_INDEX}")
    assert (code, out, err) == (0, f"lambda{MAX_FAMILY_INDEX}: OK (grading and d^2 = 0)\n", "")
    over = MAX_FAMILY_INDEX + 1
    refusal = f"error: lambda_k needs k <= {MAX_FAMILY_INDEX}\n"
    for argv in (
        ["validate", f"builtin:lambda{over}"],
        ["builtin", "lambda_k", "--k", str(over)],
        ["geography", "--grading", str(over), "--torsion", "2"],
        ["geography", "--grading", str(-over - 1), "--torsion", "2"],
    ):
        assert invoke(capsys, *argv) == (2, "", refusal), argv


def test_builtin_index_digits(capsys):
    """A builtin name is the whole argument, with an index of ASCII digits;
    anything else is a file path."""
    assert load_dga("builtin:lambda007") == lambda_k(7)
    assert load_dga("builtin:lambda3") == lambda_k(3)
    for source in ("builtin:lambda1\n", "builtin:lambda\u0663"):  # ARABIC-INDIC DIGIT THREE
        code, out, err = invoke(capsys, "validate", source)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {source!r}\n"


def test_validate_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "syntax.dga"
    bad.write_text('dga "x"\ngen a 1\nd a = a *\n', encoding="utf-8")
    code, _, err = invoke(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = invoke(capsys, "validate", "no-such-file.dga")
    assert code == 2


def test_closed_pipe_exits_141_without_an_error(tmp_path):
    # The report is about 94 KB, past a 64 KB pipe buffer, so lch is still
    # writing when its reader goes away after 10 bytes, as `| head -c 10`
    # does.  That is not a failed command: exit 128 + SIGPIPE, stderr empty.
    src = os.path.dirname(os.path.dirname(lchkit.__file__))
    with subprocess.Popen(
        [sys.executable, "-m", "lchkit.cli", "augs", "builtin:lambda0", "--ring", "Z/7", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            code = proc.wait(timeout=30)
        finally:
            proc.kill()
        assert head == b'{\n  "augme'
        assert code == 141
        assert proc.stderr.read() == b""


def test_usage_error_exits_2(capsys):
    assert run(["homology", "builtin:lambda0"]) == 2  # missing --aug
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_bad_comma_lists_are_usage_errors(capsys):
    for argv in (
        ["scan", "builtin:unknot", "--primes", "2,q"],
        ["geography", "--grading", "2", "--torsion", "2,x"],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "expected comma-separated integers" in err and "Traceback" not in err


def test_zero_denominator_in_literal_is_a_parse_error(capsys):
    code, out, err = invoke(
        capsys, "duality", "builtin:lambda0", "--aug", "a1=1/0", "--field", "Q"
    )
    assert code == 2
    assert out == ""
    assert "bad value '1/0'" in err and "Traceback" not in err


def test_builtin_emission_round_trips(tmp_path, capsys):
    out_file = tmp_path / "l2.dga"
    code, _, _ = invoke(capsys, "builtin", "lambda_k", "--k", "2", "--out", str(out_file))
    assert code == 0
    assert parse(out_file.read_text(encoding="utf-8")) == lambda_k(2)
    code, out, _ = invoke(capsys, "builtin", "unknot")
    assert code == 0
    assert out.startswith('dga "unknot"')
    assert invoke(capsys, "builtin", "lambda0") == (0, serialize(lambda0()), "")
    assert invoke(capsys, "builtin", "lambda_k") == (2, "", "error: builtin lambda_k needs --k\n")


def test_augs_mod2(capsys):
    code, out, _ = invoke(capsys, "augs", "builtin:lambda0", "--ring", "Z/2")
    assert code == 0
    assert out.splitlines()[0] == "16 augmentation(s)"
    code, out, _ = invoke(capsys, "augs", "builtin:lambda0", "--ring", "Z", "--bound", "1")
    assert code == 0
    assert "@ Z" in out
    assert invoke(capsys, "augs", "builtin:lambda0", "--ring", "Z") == (
        2, "", "error: enumeration over Z needs --bound\n"
    )
    assert invoke(capsys, "augs", "builtin:lambda0", "--ring", "Q") == (
        2, "", "error: cannot enumerate over Q\n"
    )


def test_augs_of_a_misgraded_document_are_augmentations(tmp_path, capsys):
    """d a = 1 + b puts a constant on a degree-0 chord: it constrains b.

    Every enumerated point passes the augmentation check; the scan then
    stops at the misgraded entry on b, and d a = 1 leaves no point at all.
    """
    doc = tmp_path / "bad.dga"
    doc.write_text('dga "bad"\ngen a 0\ngen b 0\nd a = 1 + b\n')
    assert invoke(capsys, "augs", str(doc), "--ring", "Z/2") == (
        0, "2 augmentation(s)\nb=1 @ Z/2\na=1, b=1 @ Z/2\n", "",
    )
    assert invoke(capsys, "scan", str(doc)) == (
        2, "", "error: d a has an s-linear term on b of degree 0, expected -1; validate the DGA\n",
    )
    doc.write_text('dga "const"\ngen a 0\nd a = 1\n')
    assert invoke(capsys, "augs", str(doc), "--ring", "Z/2") == (0, "0 augmentation(s)\n(none)\n", "")


def test_augs_json_parses_back(capsys):
    code, out, _ = invoke(capsys, "augs", "builtin:unknot", "--ring", "Z/3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert obj["augmentations"][0]["ring"] == "Z/3"


EPS_2 = "a1=2,a2=-1,a3=1,a6=1"


def assert_pinned(capsys, argv, code, lines, obj):
    """`lch argv` prints exactly `lines`, and with --json exactly `obj`."""
    assert invoke(capsys, *argv) == (code, "\n".join(lines) + "\n", "")
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert invoke(capsys, *argv, "--json") == (code, text, "")


def test_duality_exit_codes(capsys):
    table = [
        (
            ["builtin:lambda0", "--aug", EPS_2, "--field", "Z/2"],
            0,
            ["field Z/2", "dim_0 = 4   dim_0 = 4", "dim_1 = 2   dim_-1 = 1", "duality holds"],
            {"degree1_excess": 1, "dims": {"1": 2, "0": 4, "-1": 1}, "duality_ok": True, "field": "Z/2"},
        ),
        (
            ["builtin:lambda0", "--aug", EPS_2, "--field", "Q"],
            0,
            ["field Q", "dim_0 = 2   dim_0 = 2", "dim_1 = 1   dim_-1 = 0", "duality holds"],
            {"degree1_excess": 1, "dims": {"1": 1, "0": 2}, "duality_ok": True, "field": "Q"},
        ),
    ]
    for argv, code, lines, obj in table:
        assert_pinned(capsys, ["duality", *argv], code, lines, obj)


def test_duality_and_obstruction_need_a_field(capsys):
    # Z is read integrally: the torsion Z/2 of H_0 pairs with that of H_-1,
    # and a filling forces free LCH, so the obstruction fires on it.
    argv = ["builtin:lambda0", "--aug", EPS_2, "--field", "Z"]
    assert_pinned(
        capsys, ["duality", *argv], 0,
        ["field Z", "dim_0 = 2   dim_0 = 2", "dim_1 = 1   dim_-1 = 0",
         "torsion_0 = [2]   torsion_-1 = [2]", "duality holds"],
        {"degree1_excess": 1, "dims": {"1": 1, "0": 2}, "duality_ok": True, "field": "Z",
         "torsion": {"0": [2], "-1": [2]}},
    )
    reason = "H_0 has torsion [2], H_-1 has torsion [2]; the Seidel isomorphism forces free LCH"
    assert_pinned(
        capsys, ["obstruction", *argv], 1,
        ["field Z", "total LCH dimension: 3", "filling would give:  3", f"NOT geometric: {reason}"],
        {"expected_filling_dim": 3, "field": "Z", "geometric_possible": False,
         "reason": reason, "total_dim": 3},
    )
    for command in ("duality", "obstruction"):
        for json_flag in ([], ["--json"]):
            argv = [command, "builtin:lambda0", "--aug", EPS_2, "--field", "Z/4", *json_flag]
            assert invoke(capsys, *argv) == (
                2, "", "error: a field augmentation is required, got Z/4\n"
            )


def test_scan(capsys):
    code, out, _ = invoke(
        capsys, "scan", "builtin:lambda0", "--primes", "2,3", "--bound", "2"
    )
    assert code == 0
    assert "dimension jump" in out


def test_scan_duplicate_primes_scanned_once(capsys):
    code, out, _ = invoke(capsys, "scan", "builtin:lambda0", "--primes", "3,3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj["primes"]) == ["3"]
    assert obj["flagged_primes"] == [3]
    assert invoke(capsys, "scan", "builtin:lambda0", "--primes", "3", "--json") == (code, out, "")
    code, out, _ = invoke(capsys, "scan", "builtin:lambda0", "--primes", "3,2,3,2")
    assert code == 0
    assert invoke(capsys, "scan", "builtin:lambda0", "--primes", "3,2") == (code, out, "")


def test_scan_rejects_a_composite_before_enumerating(capsys, monkeypatch):
    import lchkit.verify

    scanned = []
    monkeypatch.setattr(
        lchkit.verify, "enumerate_augmentations",
        lambda dga, ring: scanned.append(ring) or [],
    )
    code, out, err = invoke(capsys, "scan", "builtin:lambda0", "--primes", "7,4", "--json")
    assert code == 2
    assert out == ""
    assert err == "error: 4 is not prime\n"
    assert scanned == []


def test_bockstein(capsys):
    table = [
        (
            EPS_2,
            [
                "beta: H_1(Z/2) -> H_0(Z/2) has rank 1",
                "beta: H_0(Z/2) -> H_-1(Z/2) has rank 1",
            ],
            {"bockstein_ranks": {"1": 1, "0": 1}, "dga": "lambda0"},
        ),
        ("a1=3,a2=-1,a3=1,a6=1", ["beta = 0 in all degrees"], {"bockstein_ranks": {}, "dga": "lambda0"}),
    ]
    for aug, lines, obj in table:
        assert_pinned(capsys, ["bockstein", "builtin:lambda0", "--aug", aug], 0, lines, obj)


def _obstruction_row(field, total, expected, possible, reason):
    lines = [
        f"field {field}",
        f"total LCH dimension: {total}",
        f"filling would give:  {'n/a' if expected is None else expected}",
        "no obstruction (filling not excluded)" if possible else f"NOT geometric: {reason}",
    ]
    obj = {
        "expected_filling_dim": expected,
        "field": field,
        "geometric_possible": possible,
        "reason": reason,
        "total_dim": total,
    }
    return lines, obj


def test_obstruction_exit_codes(tmp_path, capsys):
    even = tmp_path / "even.dga"
    even.write_text('dga "even"\ngen x 0\ngen y 0\n')
    # tb = -3 from the gradings, and a tb -5 line that the gradings (tb = -1) contradict
    three = tmp_path / "three.dga"
    three.write_text('dga "three"\ngen a 1\ngen b 1\ngen c 1\nd a = t + 1\n')
    tb5 = tmp_path / "tb5.dga"
    tb5.write_text('dga "tb5"\ntb -5\ngen a 1\nd a = t + 1\n')
    table = [
        (
            ["builtin:lambda1", "--aug", "a2=2,a3=1,a10=1,a11=1", "--field", "Z/3"],
            1,
            ("Z/3", 7, 3, False, "total dimension 7 != 3 forced by the Seidel isomorphism"),
        ),
        (
            ["builtin:unknot", "--aug", "", "--field", "Z/3"],
            0,
            ("Z/3", 1, 1, True, "dimension matches a once-punctured genus-0 filling"),
        ),
        (
            [str(even), "--aug", "", "--field", "Z/2"],
            1,
            (
                "Z/2", 2, None, False,
                "tb = 2 is even: 2g - 1 = tb has no integer solution, "
                "so no orientable exact filling exists",
            ),
        ),
        (
            [str(three), "--aug", "", "--field", "Z/2"],
            1,
            ("Z/2", 3, None, False, "tb = -3: the genus (tb+1)/2 = -1 is negative, so no exact filling exists"),
        ),
    ]
    for argv, code, row in table:
        lines, obj = _obstruction_row(*row)
        assert_pinned(capsys, ["obstruction", *argv], code, lines, obj)
    # A tb line that contradicts the gradings is refused, not judged against.
    error = "error: tb -5 contradicts the gradings, which give tb = -1\n"
    for json_flag in ((), ("--json",)):
        argv = ["obstruction", str(tb5), "--aug", "", "--field", "Z/2", *json_flag]
        assert invoke(capsys, *argv) == (2, "", error)


def test_geography_out_file_feeds_other_commands(tmp_path, capsys):
    out_file = tmp_path / "geo.dga"
    code, _, _ = invoke(
        capsys,
        "geography", "--grading", "2", "--torsion", "9", "--out", str(out_file),
    )
    assert code == 0
    code, out, _ = invoke(capsys, "validate", str(out_file))
    assert code == 0 and "OK" in out
    # the written DGA still carries the torsion at the right grading
    code, out, _ = invoke(
        capsys,
        "homology", str(out_file), "--aug", "a1=9,a2=-1,a3=1,a10=1,a11=1,a12=1", "--ring", "Z",
    )
    assert code == 0
    assert "H_2 = Z/9" in out


def test_determinism(capsys):
    args = ["scan", "builtin:lambda1", "--primes", "2,3", "--bound", "2", "--json"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_search_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LCH_SEARCH_CAP", "abc")
    assert invoke(capsys, "augs", "builtin:lambda0", "--ring", "Z/2") == (
        2, "", "error: LCH_SEARCH_CAP='abc' is not an integer\n"
    )
    monkeypatch.setenv("LCH_SEARCH_CAP", "10")
    code, _, err = invoke(capsys, "augs", "builtin:lambda0", "--ring", "Z/2")
    assert code == 2
    assert "exceeds cap" in err
    monkeypatch.setenv("LCH_SEARCH_CAP", "1000000")
    code, _, _ = invoke(capsys, "augs", "builtin:lambda0", "--ring", "Z/2")
    assert code == 0
