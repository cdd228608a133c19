"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random

import pytest

from lchkit.augment import (
    Augmentation,
    enumerate_augmentations,
    tangent_space_dim,
)
from lchkit.dga import (
    connected_sum,
    euler_tb,
    geography_dga,
    lambda0,
    lambda_k,
    unknot,
    validate,
)
from lchkit.dgafile import parse, serialize
from lchkit.errors import LchError
from lchkit.homology import (
    HomologyGroup,
    bockstein,
    field_homology,
    from_orders,
    integral_homology,
    uct_check,
)
from lchkit.linearize import linearized_differential
from lchkit.rings import QQ, ZZ, Zmod
from lchkit.verify import (
    connected_sum_additivity_check,
    filling_obstruction,
)

BIG_CAP = 10**10  # the 3-copy geography composite has 3^20 nominal grid points


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail and not ok else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} {suffix}"


def eps_n(n, ring=ZZ):
    return Augmentation(ring, {"a1": n, "a2": -1, "a3": 1, "a6": 1})


def eps_n_k(k, n, ring=ZZ):
    values = {"a1": n, "a2": -1, "a3": 1}
    values.update({f"a{i}": 1 for i in range(10, k + 11)})
    return Augmentation(ring, values)


def Z(rank=1):
    return HomologyGroup(rank, ())


def Zn(*factors):
    return HomologyGroup(0, tuple(factors))


@pytest.fixture(scope="module")
def corpus():
    """Criterion 7's corpus with all Mod(2)/Mod(3) augmentations and complexes."""
    l0 = lambda0()
    dgas = [l0, lambda_k(1), lambda_k(2), lambda_k(3), lambda_k(4), unknot()]
    dgas += [
        connected_sum(l0, l0),
        connected_sum(l0, lambda_k(1)),
        connected_sum(lambda_k(1), lambda_k(2)),
    ]
    geo_a, geo_a_aug = geography_dga(2, 1, [4, 6])
    geo_b, geo_b_aug = geography_dga(-3, 0, [5])
    dgas += [geo_a, geo_b]
    entries = []
    with pytest.MonkeyPatch.context() as env:
        env.setenv("LCH_SEARCH_CAP", str(BIG_CAP))
        for dga in dgas:
            augs = []
            for p in (2, 3):
                augs.extend(enumerate_augmentations(dga, Zmod(p)))
            complexes = [(aug, linearized_differential(dga, aug)) for aug in augs]
            entries.append((dga, complexes))
    return {
        "entries": entries,
        "geography_pairs": [(geo_a, geo_a_aug), (geo_b, geo_b_aug)],
    }


def test_criterion_01_lambda0_torsion_table():
    d = lambda0()
    ok = True
    for n in (2, 3, 4, 6, 12):
        H = integral_homology(linearized_differential(d, eps_n(n)))
        ok = ok and H.groups == {1: Z(), 0: HomologyGroup(2, (n,)), -1: Zn(n)}
    report(1, "lambda0 integral torsion table", ok)


def test_criterion_02_lambda1_table():
    d = lambda_k(1)
    ok = True
    for n in (2, 5):
        H = integral_homology(linearized_differential(d, eps_n_k(1, n)))
        ok = ok and H.groups == {1: HomologyGroup(1, (n,)), 0: Z(2), -2: Zn(n)}
    report(2, "lambda_1 integral table", ok)


def test_criterion_03_lambda_k_tables():
    ok = True
    for k in (2, 3):
        d = lambda_k(k)
        for n in (3, 4):
            H = integral_homology(linearized_differential(d, eps_n_k(k, n)))
            ok = ok and H.groups == {1: Z(), 0: Z(2), k: Zn(n), -k - 1: Zn(n)}
    report(3, "lambda_k integral tables (k = 2, 3)", ok)


def test_criterion_04_mod_p_dimension_formula():
    d = lambda0()
    ok = True
    for n, p in ((6, 2), (6, 3), (6, 5), (5, 2)):
        C = linearized_differential(d, eps_n(n).reduction(p))
        dim0 = field_homology(C, Zmod(p)).get(0, 0)
        expected = 4 if n % p == 0 else 2
        ok = ok and dim0 == expected
    report(4, "mod-p degree-0 dimension jump", ok)


def test_criterion_05_tangent_space_dimensions():
    d = lambda0()
    ok = True
    for ring in (Zmod(5), QQ):
        corner = Augmentation(ring, {"a3": 1, "a6": 1})  # V1 cap V2
        generic = Augmentation(ring, {"a1": 2, "a2": -1, "a3": 1, "a6": 1})  #V1 \ V2
        ok = ok and tangent_space_dim(d, corner) == 4
        ok = ok and tangent_space_dim(d, generic) == 3
    report(5, "tangent space dimensions 4 and 3", ok)


def test_criterion_06_augmentation_census_mod2():
    from itertools import product

    from lchkit.algebra import evaluate

    d = lambda0()
    deg0 = d.chords_of_degree(0)
    brute = []
    for combo in product((0, 1), repeat=len(deg0)):
        eps = {name: 0 for name, _ in d.chords}
        eps.update(dict(zip(deg0, combo)))
        eps["t"] = -1
        if all(evaluate(d.differential(c), eps) % 2 == 0 for c, _ in d.chords):
            brute.append(combo)
    augs = enumerate_augmentations(d, Zmod(2))
    tuples = [tuple(a.value_of(c) for c in deg0) for a in augs]
    ok = len(brute) == 16 and tuples == brute
    report(6, "mod-2 census: 16 augmentations, same set", ok)


def test_criterion_07_square_zero_everywhere(corpus):
    ok = True
    detail = ""
    for dga, complexes in corpus["entries"]:
        rep = validate(dga)
        if not rep.ok:
            ok = False
            detail = f"{dga.name} fails d^2"
        if not complexes:
            ok = False
            detail = f"{dga.name} has no field augmentations"
        for aug, C in complexes:
            try:
                C.check_square_zero()
            except LchError:
                ok = False
                detail = f"linearized square at {dga.name} / {aug.literal()}"
    report(7, "d^2 = 0 and (d^eps)^2 = 0 across the corpus", ok, detail)


def test_criterion_08_sabloff_duality_across_corpus(corpus):
    ok = True
    detail = ""
    for dga, complexes in corpus["entries"]:
        for aug, C in complexes:
            dims = field_homology(C, aug.ring)
            top = max((abs(deg) for deg in dims), default=1)
            for i in range(max(top, 1) + 1):
                a, b = dims.get(i, 0), dims.get(-i, 0)
                good = (a == b + 1) if i == 1 else (a == b)
                if not good:
                    ok = False
                    detail = f"{dga.name} / {aug.literal()} at degree {i}"
    report(8, "Sabloff duality for every enumerated field augmentation", ok, detail)


def test_criterion_09_geography():
    ok = True
    g, aug = geography_dga(2, 1, [4, 6])
    H = integral_homology(linearized_differential(g, aug))
    ok = ok and H.group(2) == from_orders([0, 4, 6]) == HomologyGroup(1, (2, 12))
    g, aug = geography_dga(-3, 0, [5])
    H = integral_homology(linearized_differential(g, aug))
    ok = ok and H.group(-3) == Zn(5)
    # the CLI surface agrees
    from lchkit.cli import run

    ok = ok and run(["geography", "--grading", "2", "--free", "1", "--torsion", "4,6"]) == 0
    report(9, "geography realizes Z+Z/4+Z/6 at 2 and Z/5 at -3", ok)


def test_criterion_10_connected_sum_additivity():
    ok = connected_sum_additivity_check(
        lambda0(), eps_n(2), lambda_k(1), eps_n_k(1, 3)
    )
    report(10, "connected-sum additivity away from degrees 0, 1", ok)


def test_criterion_11_filling_obstruction():
    v1 = filling_obstruction(lambda_k(1), eps_n_k(1, 3).reduction(3))
    v2 = filling_obstruction(unknot(), Augmentation(Zmod(3), {}))
    ok = (
        v1.total_dim == 7
        and v1.expected_filling_dim == 3
        and not v1.geometric_possible
        and v2.total_dim == 1
        and v2.expected_filling_dim == 1
        and v2.geometric_possible
    )
    report(11, "filling obstruction: 7 vs 3 fires, 1 vs 1 silent", ok)


def test_criterion_12_uct_and_euler(corpus):
    pairs = [(lambda0(), eps_n(n)) for n in (2, 3, 4, 6, 12)]
    pairs += [(lambda_k(1), eps_n_k(1, n)) for n in (2, 5)]
    pairs += [(lambda_k(k), eps_n_k(k, n)) for k in (2, 3) for n in (3, 4)]
    pairs += [(unknot(), Augmentation(ZZ, {}))]
    pairs += corpus["geography_pairs"]
    from lchkit.dga import connected_sum_augmented

    s, combined = connected_sum_augmented(lambda0(), eps_n(2), lambda_k(1), eps_n_k(1, 3))
    pairs.append((s, combined))
    ok = True
    detail = ""
    for dga, aug in pairs:
        C = linearized_differential(dga, aug)
        H = integral_homology(C)
        if H.euler_characteristic() != euler_tb(dga):
            ok = False
            detail = f"Euler mismatch on {dga.name}"
        for p in (2, 3, 5, 7):
            Cp = linearized_differential(dga, aug.reduction(p))
            if not uct_check(H, p, field_homology(Cp, Zmod(p))):
                ok = False
                detail = f"UCT fails on {dga.name} at p={p}"
    report(12, "universal coefficients and Euler characteristic", ok, detail)


def test_criterion_13_bockstein():
    d = lambda0()
    ranks2 = bockstein(linearized_differential(d, eps_n(2)))
    ranks3 = bockstein(linearized_differential(d, eps_n(3)))
    ok = ranks2.get(0, 0) == 1 and ranks3 == {}
    report(13, "Bockstein rank 1 in degree 0 (eps_2), zero (eps_3)", ok)


def test_criterion_14_snf_property_suite():
    from test_homology import check_snf, minors_gcd

    from lchkit.homology import _divisibility_chain
    from lchkit.matrices import diagonal_of_rows, rank_rationals, sparse_rows

    rng = random.Random(20240819)
    ok = True
    detail = ""
    for trial in range(1000):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        try:
            diag = check_snf(M)  # U*M*V = D, unimodular, divisibility, signs
        except AssertionError:
            ok = False
            detail = f"structure fails at trial {trial}"
            break
        # The kernel behind every printed torsion order must give the same
        # nonzero diagonal, hence the same ratios of determinantal divisors.
        if _divisibility_chain(diagonal_of_rows(sparse_rows(M))) != [x for x in diag if x]:
            ok = False
            detail = f"kernel diagonal mismatch at trial {trial}"
            break
        r = rank_rationals(M)
        if sum(1 for x in diag if x) != r:
            ok = False
            detail = f"rank mismatch at trial {trial}"
            break
        dk_prev = 1
        for k in range(1, r + 1):
            dk = minors_gcd(M, k)
            if diag[k - 1] != dk // dk_prev:
                ok = False
                detail = f"determinantal divisor mismatch at trial {trial}, k={k}"
                break
            dk_prev = dk
        if not ok:
            break
    report(14, "SNF and kernel: 1000 random matrices vs determinantal divisors", ok, detail)


def test_criterion_15_parser_round_trip_and_fuzz():
    from pathlib import Path

    data = Path(__file__).resolve().parent.parent / "src" / "lchkit" / "data"
    ok = True
    fixtures = sorted(data.glob("*.dga"))
    ok = ok and len(fixtures) >= 5
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        dga = parse(text)
        ok = ok and parse(serialize(dga)) == dga and serialize(dga) == text
    rng = random.Random(20240820)
    alphabet = 'dga gen t^-1 "q" a1 c#2 = + - * 0123456789\n\t #'
    for i in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(100)))
        try:
            parse(text)
        except LchError:
            pass
        # anything else is a crash and fails the test
    report(15, "parser fixtures round-trip and 10^4 fuzz inputs", ok)
