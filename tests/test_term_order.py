"""Term order of polynomials built in one pass, against the old folds.

Linearization, by either route, takes its row order from `p.terms`, and
that order decides which error fires first, so these tests compare
`list(p.terms.items())`, not just equal polynomials.  The references below are the arithmetic that
built each polynomial term by term: dict-level `+` and `*` that drop a
word when its sum reaches 0, the folding ring map `ref_substitute`, and the
product-and-fold Leibniz rule.  Connected sums are built by renaming
words; `ref_substitute` is kept here only as their reference.
"""

import random

import lchkit.dga as dga_module
from lchkit.algebra import Poly
from lchkit.augment import Augmentation
from lchkit.dga import (
    _connected_sum_parts,
    connected_sum,
    connected_sum_augmented,
    differentiate,
    geography_dga,
    lambda0,
    lambda_k,
)
from lchkit.rings import ZZ


def ref_normalize(word):
    out = []
    for x in word:
        if out and {out[-1], x} == {"t", "t^-1"}:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def ref_add_into(out, terms):
    for word, coeff in terms.items():
        c = out.get(word, 0) + coeff
        if c:
            out[word] = c
        elif word in out:
            del out[word]
    return out


def ref_add(p, q):
    return ref_add_into(dict(p), q)


def ref_neg(p):
    return {w: -c for w, c in p.items()}


def ref_mul(p, q):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            ref_add_into(out, {ref_normalize(w1 + w2): c1 * c2})
    return out


def ref_substitute(p, images):
    """The folding substitute: out = out + factor, one monomial at a time."""
    images = {k: v.terms if isinstance(v, Poly) else {(): v} for k, v in images.items()}
    images.setdefault("t", {("t",): 1})
    if any("t^-1" in word for word in p):
        (word, coeff), = images["t"].items()
        images["t^-1"] = {tuple({"t": "t^-1", "t^-1": "t"}[x] for x in reversed(word)): coeff}
    out = {}
    for word, coeff in p.items():
        factor = {(): coeff}
        for x in word:
            factor = ref_mul(factor, images[x])
        out = ref_add(out, factor)
    return out


def ref_differentiate(dga, p):
    """The product-and-fold Leibniz rule: prefix * dx * suffix, summed with +."""
    out = {}
    for word, coeff in p.items():
        prefix_degree = 0
        for j, x in enumerate(word):
            if x in ("t", "t^-1"):
                continue
            if x in dga.diff:
                sign = -1 if prefix_degree % 2 else 1
                prefix = {ref_normalize(word[:j]): coeff * sign}
                suffix = {ref_normalize(word[j + 1 :]): 1}
                out = ref_add(out, ref_mul(ref_mul(prefix, dga.diff[x].terms), suffix))
            prefix_degree += dga.grading[x]
    return out


def items(p):
    return list(p.terms.items()) if isinstance(p, Poly) else list(p.items())


def random_terms(rng, symbols, max_terms=5, max_len=4):
    """A Poly built from raw (word, coeff) pairs, some repeated or cancelling."""
    pairs = []
    for _ in range(rng.randrange(max_terms + 1)):
        word = tuple(rng.choice(symbols) for _ in range(rng.randrange(max_len + 1)))
        pairs.append((word, rng.randint(-3, 3)))
        if rng.random() < 0.3:
            pairs.append((word, rng.choice([-pairs[-1][1], 1])))
    return pairs


SYMBOLS = ["a1", "a2", "t", "t^-1"]


def test_constructors_match_the_old_normalizing_init():
    rng = random.Random(8)
    for _ in range(500):
        pairs = random_terms(rng, SYMBOLS)
        ref = {}
        for word, coeff in pairs:
            if coeff:
                ref_add_into(ref, {ref_normalize(word): coeff})
        assert items(Poly.from_terms(pairs)) == items(ref)
        mapping = dict(pairs)
        assert items(Poly(mapping)) == items(Poly.from_terms(mapping.items()))


def test_arithmetic_keeps_the_term_order_of_the_folds():
    rng = random.Random(20261018)
    for _ in range(1000):
        p = Poly.from_terms(random_terms(rng, SYMBOLS))
        q = Poly.from_terms(random_terms(rng, SYMBOLS))
        assert items(p + q) == items(ref_add(p.terms, q.terms))
        assert items(-p) == items(ref_neg(p.terms))
        assert items(p - q) == items(ref_add(p.terms, ref_neg(q.terms)))
        assert items(p * q) == items(ref_mul(p.terms, q.terms))


def _eps(dga, n):
    return Augmentation(ZZ, dga_module._eps_n_values(dga, n))


def _dgas():
    """Each DGA with the summands it was summed from (none for a family member)."""
    base = [lambda0(), lambda_k(1), lambda_k(2), lambda_k(3)]
    for d in base:
        yield d, []
    for d1 in base:
        for d2 in base:
            yield connected_sum(d1, d2), [d1, d2]
    summed = connected_sum_augmented(base[0], _eps(base[0], 2), base[2], _eps(base[2], 3))[0]
    yield summed, [base[0], base[2]]
    for i, m, orders in ((-1, 1, [2, 6]), (2, 0, [3, 4]), (3, 2, [5]), (-4, 1, [2])):
        summands = [dga_module._family_member_for_grading(i)] * (m + len(orders))
        yield geography_dga(i, m, orders)[0], summands


def test_sums_and_differentials_keep_the_term_order_of_the_folds():
    rng = random.Random(5)
    count = 0
    sum_diffs = 0
    for dga, summands in _dgas():
        if summands:
            # The fold's ring map: renamed chords, t -> c_1, -c_j*c_{j-1} or -t*c_{n-1}.
            _, renames, c_names = _connected_sum_parts(summands)
            heads = [Poly.gen(c) for c in c_names] + [Poly.gen("t")]
            for j, (d, rename) in enumerate(zip(summands, renames)):
                images = {x: Poly.gen(new) for x, new in rename.items()}
                images["t"] = -(heads[j] * heads[j - 1]) if j else heads[0]
                for chord, p in d.diff.items():
                    assert items(dga.diff[rename[chord]]) == items(ref_substitute(p.terms, images))
                    sum_diffs += 1
        names = dga.chord_names()
        for chord, p in dga.diff.items():
            assert items(differentiate(dga, p)) == []
            for q in (p * Poly.gen(chord), Poly.gen(chord) * p + p * p):
                assert items(differentiate(dga, q)) == items(ref_differentiate(dga, q.terms))
        for _ in range(30):
            symbols = rng.sample(names, min(4, len(names))) + ["t", "t^-1"]
            q = Poly.from_terms(random_terms(rng, symbols))
            dq = differentiate(dga, q)
            assert items(dq) == items(ref_differentiate(dga, q.terms))
            count += bool(dq)
    assert count > 200
    assert sum_diffs > 100
