"""Calibration sample: a fixed piece of pure-Python work, timed.

On a shared machine the speed of all Python code can switch between states
far apart (1.7x on the 2-core Xeon the benchmark was tuned on) for seconds
to minutes.  run.py times this sample next to the jobs and scales their
times by REF_MS over the sample's time, so reported times are milliseconds
on a machine where one sample takes REF_MS.

The kernels mimic lchkit's instruction mix (small-integer elimination,
dicts of word tuples) without calling lchkit, so that a change to lchkit
never moves them.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_MS = 3.0

_CAL_MATRIX = [[(7 * i + 3 * j * j + 1) % 19 - 9 for j in range(16)] for i in range(16)]
_CAL_NAMES = ["a%d" % i for i in range(1, 12)]


def _eliminate_mod_p() -> int:
    """Dense Gaussian elimination mod p on a fixed 16 x 16 integer matrix."""
    p = 10007
    A = [row[:] for row in _CAL_MATRIX]
    n = len(A)
    for c in range(n):
        pivot = next((r for r in range(c, n) if A[r][c] % p), None)
        if pivot is None:
            continue
        A[c], A[pivot] = A[pivot], A[c]
        inv = pow(A[c][c], -1, p)
        A[c] = [(x * inv) % p for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[c])]
    return A[0][0]


def _multiply_words() -> int:
    """Noncommutative polynomial products as dicts keyed by word tuples."""
    poly = {(): 1}
    for i in range(6):
        factor = {(_CAL_NAMES[i],): 1, (_CAL_NAMES[i + 1], _CAL_NAMES[i + 3]): -1, ("t",): 1}
        out: dict[tuple[str, ...], int] = {}
        for w1, c1 in poly.items():
            for w2, c2 in factor.items():
                word = w1 + w2
                out[word] = out.get(word, 0) + c1 * c2
        poly = {w: c for w, c in out.items() if c}
    values = {name: i % 5 - 2 for i, name in enumerate(_CAL_NAMES)}
    values["t"] = -1
    total = 0
    for word, coeff in poly.items():
        for x in word:
            coeff *= values[x]
        total += coeff
    return total


def calibrate() -> float:
    """Milliseconds for one calibration sample.

    The kernels mimic lchkit's instruction mix (small-integer elimination,
    dicts of word tuples) without calling lchkit, so that a change to
    lchkit never moves them.  A full collection first, so that the previous
    job's garbage is not charged to the kernels.
    """
    gc.collect()
    start = time.perf_counter()
    for _ in range(2):
        _eliminate_mod_p()
        _multiply_words()
    return (time.perf_counter() - start) * 1000.0


def median_sample(n: int) -> float:
    """Median milliseconds of n samples in a row."""
    return statistics.median(calibrate() for _ in range(n))
