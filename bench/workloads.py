"""Seeded inputs and independent oracles for the four benchmark workloads.

Each workload turns a seed into a fixed list of jobs.  A job is one
``lch ... --json`` command line; run.py runs the list in seeded
permutations, whole cycles at a time, so every job runs equally often and
the percentiles of a run land inside a known job rather than between two
jobs of very different cost.  The seed picks the instances (which family
member, which summand order, which torsion orders, which primes and
augmentation values); the shape of the list, and so the cost distribution,
stays the same across seeds.

Setup builds the inputs with lchkit library calls and is timed.  The
oracle references (``prepare``) are computed afterwards, untimed, and a
job's check never reuses the job's own computation: it compares the JSON
against an answer known from the construction or computed by another
route.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

PRIMES = (2, 3, 5, 7)


@dataclass
class Job:
    key: str
    argv: list[str]
    oracle: object  # callable(ref, parsed JSON output) -> bool
    ref: dict = field(default_factory=dict)

    def check(self, returncode, stdout: str):
        """None if the output is right, else what is wrong with it."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            ok = self.oracle(self.ref, json.loads(stdout))
        except Exception as exc:  # any failure of a check is a failed job
            return f"{type(exc).__name__}: {exc}"
        return None if ok else "oracle mismatch"


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def family_member(lch, k: int):
    """lambda0 for k = 0, else lambda_k."""
    return lch.lambda0() if k == 0 else lch.lambda_k(k)


def eps_values(dga, n: int) -> dict[str, int]:
    """eps_n on a family member: (a1, a2, a3) = (n, -1, 1), chain chords 1."""
    values = {"a1": n, "a2": -1, "a3": 1}
    if dga.name == "lambda0":
        values["a6"] = 1
    else:
        for chord in dga.chords_of_degree(0):
            values.setdefault(chord, 1)
    return values


def augmented_sum(lch, parts):
    """Iterated connected sum of (k, n) summands with the combined eps."""
    dga = family_member(lch, parts[0][0])
    aug = lch.Augmentation(ring=lch.ZZ, values=eps_values(dga, parts[0][1]))
    for k, n in parts[1:]:
        piece = family_member(lch, k)
        piece_aug = lch.Augmentation(ring=lch.ZZ, values=eps_values(piece, n))
        dga, aug = lch.connected_sum_augmented(dga, aug, piece, piece_aug)
    return dga, aug


def chord_count(k: int) -> int:
    return 11 if k == 0 else 2 * k + 11


def literal_body(aug) -> str:
    """Augmentation literal without the ring, for use with --ring/--field."""
    return ", ".join(f"{name}={value}" for name, value in sorted(aug.values.items()))


def write_dga(lch, workdir: str, filename: str, dga) -> str:
    path = os.path.join(workdir, filename)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(lch.serialize(dga))
    return path


def sabloff_ok(dims: dict[int, int]) -> bool:
    top = max([1] + [abs(d) for d in dims])
    for i in range(top + 1):
        a, b = dims.get(i, 0), dims.get(-i, 0)
        if (a != b + 1) if i == 1 else (a != b):
            return False
    return True


def int_keys(obj: dict) -> dict[int, int]:
    return {int(k): v for k, v in obj.items()}


def uct_dims(H, p: int) -> dict[int, int]:
    """Field dimensions over Z/p predicted from an integral homology."""
    dims = {}
    for d in set(H.degrees()) | {d + 1 for d in H.degrees()}:
        dim = H.group(d).free_rank + H.group(d).p_torsion_count(p) + H.group(d - 1).p_torsion_count(p)
        if dim:
            dims[d] = dim
    return dims


def canonical_group(free_rank: int, orders) -> dict:
    """Invariant-factor form of Z^free + sum Z/n, computed independently."""
    exponents: dict[int, list[int]] = {}
    for n in orders:
        q = 2
        while n > 1:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            if e:
                exponents.setdefault(q, []).append(e)
            q += 1
    width = max((len(v) for v in exponents.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for q, exps in exponents.items():
            exps = sorted(exps, reverse=True)
            if i < len(exps):
                f *= q ** exps[i]
        factors.append(f)
    return {"free_rank": free_rank, "torsion": sorted(factors)}


# ----------------------------------------------------------------------
# scan: lch scan over small built-ins and two-summand sums
# ----------------------------------------------------------------------

# (family, primes, bound).  "K" is lambda_k with k drawn from 1..4, "L0" is
# lambda0, "S" a seeded sum of two of lambda1/lambda2, "S0" lambda0#lambda1
# or lambda1#lambda0 (fixed, as the order changes the cost).  The list is
# ordered by cost on the reference machine: ten cheap lambda_k scans, a cluster of five mid-cost lambda0
# scans holding the median, five dearer lambda0 scans, two lambda_k sums,
# and four lambda0 sums holding p90.  Every grid stays under the default
# search cap; lambda0#lambda0 is left out because its bound-1 scan alone
# takes seconds.
SCAN_TEMPLATES = (
    ("K", (2,), 1), ("K", (3,), 1), ("K", (5,), 1), ("K", (7,), 1), ("K", (2, 3), 2),
    ("K", (5,), 2), ("K", (7,), 2), ("K", (2, 5), 3), ("K", (3, 7), 3), ("K", (5, 7), 3),
    ("L0", (5,), 1), ("L0", (2,), 2), ("L0", (3,), 2), ("L0", (2, 5), 1), ("L0", (3, 5), 1),
    ("L0", (5,), 2), ("L0", (7,), 1), ("L0", (2,), 3), ("L0", (3,), 3), ("L0", (3, 7), 1),
    ("S", (2,), 1), ("S", (3,), 1),
    ("S0", (2,), 1), ("S0", (2,), 1), ("S0", (2,), 1), ("S0", (2,), 1),
)


def _scan_oracle(ref, obj) -> bool:
    lch, dga, primes = ref["lch"], ref["dga"], ref["primes"]
    if obj["dga"] != dga.name or obj["bound"] != ref["bound"]:
        return False
    if sorted(int(p) for p in obj["primes"]) != sorted(primes):
        return False
    classes = {p: {tuple(sorted(int_keys(c["dims"]).items())) for c in obj["primes"][str(p)]}
               for p in primes}
    # Every class satisfies Sabloff duality, and its Euler characteristic
    # is the chord count signed by degree, whatever the augmentation.
    euler = sum(1 if deg % 2 == 0 else -1 for _, deg in dga.chords)
    for p in primes:
        for c in obj["primes"][str(p)]:
            dims = int_keys(c["dims"])
            if not sabloff_ok(dims) or sum((-1) ** d * v for d, v in dims.items()) != euler:
                return False
    # Each torsion augmentation reduced mod p is an augmentation over Z/p,
    # so its field dimensions must be one of the reported classes.
    for item in obj["integral_torsion"]:
        aug = lch.parse_augmentation_literal(item["augmentation"])
        for p in primes:
            reduced = aug.reduction(p)
            dims = lch.field_homology(lch.linearized_differential(dga, reduced), reduced.ring)
            if tuple(sorted(dims.items())) not in classes[p]:
                return False
    return True


def scan_setup(lch, seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for index, (family, primes, bound) in enumerate(SCAN_TEMPLATES):
        if family == "K":
            k = rng.randint(1, 4)
            dga, source = lch.lambda_k(k), f"builtin:lambda{k}"
        elif family == "L0":
            dga, source = lch.lambda0(), "builtin:lambda0"
        else:
            if family == "S0":
                pair = [0, 1] if index % 2 else [1, 0]
            else:
                pair = [rng.randint(1, 2), rng.randint(1, 2)]
            dga = lch.connected_sum(family_member(lch, pair[0]), family_member(lch, pair[1]))
            source = write_dga(lch, workdir, f"scan{index}.dga", dga)
        argv = ["scan", source, "--primes", ",".join(map(str, primes)), "--bound", str(bound), "--json"]
        jobs.append(Job(key=f"scan{index}:{dga.name}", argv=argv, oracle=_scan_oracle,
                        ref={"lch": lch, "dga": dga, "primes": list(primes), "bound": bound}))
    return jobs


# ----------------------------------------------------------------------
# geography: few large sparse integral complexes
# ----------------------------------------------------------------------

GEO_GRADINGS = (-4, -3, -2, 2, 3, 4)
# Target chord counts: each grading gets one job per size, so every seed
# has the same mix of small, mid-size and large complexes, and the median
# and p90 land on the same grading's job whatever the seed.
GEO_SIZES = (75, 170, 280)


def _geo_family(i: int) -> int:
    """Family index whose eps_n torsion sits in grading i."""
    if i > 1:
        return i
    return 0 if i == -1 else -i - 1


def _geo_oracle(ref, obj) -> bool:
    i, m, orders = ref["grading"], ref["free"], ref["orders"]
    expected = canonical_group(m, orders)
    if obj["grading"] != i or obj["achieved"] != expected:
        return False
    if obj["requested"] != {"free_rank": m, "torsion_orders": orders}:
        return False
    at_i = [g for g in obj["homology"] if g["degree"] == i]
    return at_i == [{"degree": i, **expected}]


def geography_setup(lch, seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    specs = []
    for i in GEO_GRADINGS:
        per_summand = chord_count(_geo_family(i)) + 1
        for size in GEO_SIZES:
            m = rng.randint(0, 2)
            summands = round(size / per_summand)
            specs.append((i, m, min(20, max(4, summands - m))))
    # Sums of lambda0 (grading -1) with five or more mixed torsion orders
    # can spend seconds to minutes in integral_homology (Smith form entry
    # growth), which no run could absorb; grading -1 stays at four orders.
    specs.extend([(-1, 0, 4)] * 3)
    jobs = []
    for index, (i, m, t) in enumerate(specs):
        orders = [rng.randint(2, 60) for _ in range(t)]
        argv = ["geography", "--grading", str(i), "--free", str(m),
                "--torsion", ",".join(map(str, orders)), "--json"]
        jobs.append(Job(key=f"geo{index}:i={i},m={m},t={t}", argv=argv, oracle=_geo_oracle,
                        ref={"grading": i, "free": m, "orders": orders}))
    return jobs


# ----------------------------------------------------------------------
# files and rational: seeded .dga files of lambda_k connected sums
# ----------------------------------------------------------------------


def _seeded_sum(lch, rng: random.Random, chords: int, allowed_n):
    """Seeded sum of lambda_k (k in 1..4) summands with exactly `chords` chords.

    s summands with indices k_i have sum(2 k_i + 12) - 1 chords, so any odd
    count from 13 up is reachable.  s is the fewest summands that reach the
    size, because the summand count changes the cost at a given size by up
    to a factor of two; the seed picks the split of the k_i, their order and
    each summand's eps_n.  lambda0 is not used: the oracle needs the
    integral homology of every file, and for lambda0 sums that can take
    minutes (see geography).
    """
    summands = next(n for n in range(1, chords) if 14 * n - 1 <= chords <= 20 * n - 1)
    ks = [1] * summands
    for _ in range((chords + 1 - 12 * summands) // 2 - summands):
        i = rng.choice([i for i, k in enumerate(ks) if k < 4])
        ks[i] += 1
    dga, aug = augmented_sum(lch, [(k, rng.choice(allowed_n)) for k in ks])
    assert len(dga.chords) == chords
    return dga, aug


# Nine files from 41 to 159 chords (sums of lambda_k have odd chord counts).
FILES_SIZES = (41, 55, 69, 85, 99, 115, 129, 145, 159)


def _files_oracle(ref, obj) -> bool:
    H, kind = ref["H"], ref["kind"]
    if kind == "validate":
        return obj["grading_ok"] and obj["d_squared_ok"] and obj["failures"] == []
    p = ref["p"]
    expected = uct_dims(H, p)
    if kind == "homology":
        dims = int_keys(obj["dims"])
        return (obj["ring"] == f"Z/{p}" and ref["lch"].uct_check(H, p, dims)
                and dims == expected and sabloff_ok(dims))
    tb = sum(1 if deg % 2 == 0 else -1 for _, deg in ref["dga"].chords)
    return (obj["total_dim"] == sum(expected.values()) and tb % 2 == 1
            and obj["expected_filling_dim"] == tb + 2 and obj["geometric_possible"])


def files_setup(lch, seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for index, size in enumerate(FILES_SIZES):
        # The obstruction prime divides no eps_n value, so the filling
        # obstruction stays silent (exit 0); the homology prime may divide
        # some, which shows torsion as extra Z/p dimensions.
        p_obs = rng.choice(PRIMES)
        p_hom = rng.choice(PRIMES)
        dga, aug = _seeded_sum(lch, rng, size, [n for n in range(1, 61) if n % p_obs])
        path = write_dga(lch, workdir, f"files{index}.dga", dga)
        body = literal_body(aug)
        ref = {"lch": lch, "dga": dga, "aug": aug}
        for kind, argv in (
            ("validate", ["validate", path, "--json"]),
            ("homology", ["homology", path, "--aug", body, "--ring", f"Z/{p_hom}", "--json"]),
            ("obstruction", ["obstruction", path, "--aug", body, "--field", f"Z/{p_obs}", "--json"]),
        ):
            jobs.append(Job(key=f"files{index}:{kind}:{len(dga.chords)}", argv=argv,
                            oracle=_files_oracle,
                            ref=dict(ref, kind=kind, p=p_hom if kind == "homology" else p_obs)))
    return jobs


def integral_references(lch, jobs: list[Job]) -> None:
    """Integral homology of every file's DGA at its eps, for the oracles."""
    cache: dict[int, object] = {}
    for job in jobs:
        key = id(job.ref["dga"])
        if key not in cache:
            complex_ = lch.linearized_differential(job.ref["dga"], job.ref["aug"])
            cache[key] = lch.integral_homology(complex_)
        job.ref["H"] = cache[key]


# 21 files from 19 to 143 chords, denser at small sizes because the
# Fraction-elimination cost grows about cubically.  Five files share the
# median size and four the p90 size, so both percentiles land inside a
# group of equal-size files whatever the seed.
RATIONAL_SIZES = (19, 27, 31, 35, 39, 43, 47, 51, 55, 55, 55, 55, 55,
                  63, 71, 83, 111, 143, 143, 143, 143)


def _rational_oracle(ref, obj) -> bool:
    H = ref["H"]
    dims = int_keys(obj["dims"])
    free = {d: H.group(d).free_rank for d in H.degrees() if H.group(d).free_rank}
    return obj["field"] == "Q" and obj["duality_ok"] and dims == free and sabloff_ok(dims)


def rational_setup(lch, seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for index, size in enumerate(RATIONAL_SIZES):
        dga, aug = _seeded_sum(lch, rng, size, range(0, 61))
        path = write_dga(lch, workdir, f"rational{index}.dga", dga)
        argv = ["duality", path, "--aug", literal_body(aug), "--field", "Q", "--json"]
        jobs.append(Job(key=f"rational{index}:{len(dga.chords)}", argv=argv,
                        oracle=_rational_oracle, ref={"dga": dga, "aug": aug}))
    return jobs


# name -> (timed setup, untimed oracle preparation or None)
WORKLOADS = {
    "scan": (scan_setup, None),
    "geography": (geography_setup, None),
    "files": (files_setup, integral_references),
    "rational": (rational_setup, integral_references),
}
