"""Invariance oracle: linearized homology under tame isomorphism and stabilization.

Chekanov (Invent. Math. 150, 2002) shows that the DGA of a Legendrian
knot is determined up to stable tame isomorphism, and that linearized
homology at an augmentation is an invariant of it.  The tests build such
DGAs from lambda0 and lambda1 by hand:

* an elementary automorphism phi(a) = a + u, where u is a polynomial of
  degree |a| in the other generators, conjugates the differential to
  d' = phi d phi^-1, and moves each augmentation eps to eps o phi^-1;
* a stabilization in degree k adds generators e (degree k) and f
  (degree k - 1) with d e = f, and extends each augmentation by 0.

Every such DGA must validate, have as many augmentations over Z/3 as the
original (after the normalization q^(-chi*/2) of Ng and Sabloff, which
only a stabilization in degree 0 changes: it adds a free degree-0
generator), and the same integral homology at the moved eps_n, on both
routes of `linearized_differential`.
"""

import pytest

from lchkit.algebra import Poly, evaluate, gen, t_gen
from lchkit.augment import Augmentation, enumerate_augmentations
from lchkit.dga import DGA, differentiate, lambda0, lambda_k, validate
from lchkit.homology import integral_homology
from lchkit.linearize import linearized_differential
from lchkit.rings import ZZ, Zmod


def substitute(p, name, u):
    """phi(p) for phi(name) = name + u, fixing every other symbol."""
    image = gen(name) + u
    out = Poly.zero()
    for word, coeff in p.terms.items():
        term = Poly.constant(coeff)
        for x in word:
            term = term * (image if x == name else Poly({(x,): 1}))
        out = out + term
    return out


def elementary(dga, name, u):
    """The DGA conjugated by phi(name) = name + u: d' = phi d phi^-1."""
    assert name not in u.symbols()
    diff = {chord: substitute(p, name, u) for chord, p in dga.diff.items()}
    diff[name] = substitute(dga.differential(name) - differentiate(dga, u), name, u)
    return DGA(f"{dga.name}+{name}", dga.chords, diff)


def moved(dga, aug, name, u):
    """eps o phi^-1: phi^-1(name) = name - u, every other chord fixed."""
    values = dict(aug.values)
    values[name] = values.get(name, 0) - evaluate(u, aug.eps_map(dga))
    return Augmentation(aug.ring, values)


def stabilized(dga, degree):
    """The DGA with e (degree `degree`) and f (degree `degree` - 1), d e = f."""
    chords = dga.chords + (("e", degree), ("f", degree - 1))
    return DGA(f"{dga.name}~{degree}", chords, {**dga.diff, "e": gen("f")})


def chi_star(dga):
    """sum over degrees i >= 0 of (-1)^i r_i, plus over i < 0 of (-1)^(i+1) r_i."""
    return sum(-1 if (deg if deg >= 0 else deg + 1) % 2 else 1 for _, deg in dga.chords)


def a(i):
    return gen(f"a{i}")


# (original, eps_n values, steps): a step is ("phi", name, u) or ("stab", degree).
CASES = {
    "lambda0": (lambda0, lambda n: {"a1": n, "a2": -1, "a3": 1, "a6": 1}, [
        [("phi", "a1", a(2) * a(3))],
        [("phi", "a6", t_gen * a(3) + Poly.one())],
        [("phi", "a7", a(1) * a(8))],
        [("phi", "a4", a(5) * a(6) - a(2))],
        [("stab", 1)],
        [("stab", 0)],
        [("stab", 1), ("phi", "e", a(8)), ("phi", "a1", gen("f") + a(3))],
        [("stab", 0), ("phi", "a3", gen("e") * a(2)), ("phi", "f", a(11) * a(4))],
    ]),
    "lambda1": (lambda: lambda_k(1), lambda n: {"a1": n, "a2": -1, "a3": 1, "a10": 1, "a11": 1}, [
        [("phi", "a1", a(10) * a(11) - a(2))],
        [("phi", "a5", a(4) * a(8))],
        [("phi", "a12", a(3) * a(13) * a(2))],
        [("stab", 1)],
        [("stab", 0), ("phi", "e", a(2) * a(3))],
        [("stab", 1), ("phi", "a9", gen("e") + a(8) * a(1)), ("phi", "f", a(1) * a(1))],
    ]),
}


def _homology_on_both_routes(dga, aug):
    """Integral homology at aug, read word by word on a fresh copy of `dga`
    and from the plan on `dga` once it holds one; the two must agree."""
    fresh = DGA(dga.name, dga.chords, dga.diff)
    one_pass = integral_homology(linearized_differential(fresh, aug))
    assert "linear_plan" not in vars(fresh)
    dga.linear_plan
    assert integral_homology(linearized_differential(dga, aug)) == one_pass
    return one_pass


@pytest.mark.parametrize("name", sorted(CASES))
def test_stable_tame_isomorphism_keeps_augmentations_and_homology(name):
    build, eps_values, sequences = CASES[name]
    original = build()
    ring = Zmod(3)
    count = len(enumerate_augmentations(original, ring))
    expected = {n: integral_homology(linearized_differential(original, Augmentation(ZZ, eps_values(n))))
                for n in (2, 3, 6)}
    for n, homology in expected.items():
        assert any(homology.group(d).torsion == (n,) for d in homology.degrees())
    for steps in sequences:
        dga = original
        augs = {n: Augmentation(ZZ, eps_values(n)) for n in expected}
        for step in steps:
            if step[0] == "stab":
                dga = stabilized(dga, step[1])
            else:
                _, chord, u = step
                augs = {n: moved(dga, aug, chord, u) for n, aug in augs.items()}
                dga = elementary(dga, chord, u)
            assert validate(dga).ok, (name, steps)
        found = len(enumerate_augmentations(dga, ring))
        assert found**2 * 3 ** chi_star(original) == count**2 * 3 ** chi_star(dga), (name, steps)
        for n, aug in augs.items():
            assert _homology_on_both_routes(dga, aug) == expected[n], (name, steps, n)
