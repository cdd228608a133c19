"""Spans and exact work counters for the traced pass, installed from outside.

The benchmark never edits lchkit.  It wraps the public functions named in
TARGETS and rebinds every module attribute that holds the original,
because ``from .x import f`` copies the binding into the importing module.
``algebra`` and ``rings`` are deliberately left unwrapped: their functions
run tens of thousands of times per job, so a wrapper would cost more than
the work, and their time shows up as self time of the callers.

Two wrappers exist.  The span wrapper only reads the clock; it records
(id, job, name, start, end, parent id) and folds each span's self time
(duration minus the time its child spans cover) into per-name totals.  The counting
wrapper computes exact counters from each call's arguments and result; it
runs in its own untimed passes, one tracer per job, so that its work never
shows up as self time and each job's counters can be compared across passes.
"""

from __future__ import annotations

import itertools
import time

# (module, attribute path) of every wrapped function, in report order.
TARGETS = (
    ("cli", "run"),
    ("dgafile", "parse"),
    ("dga", "validate"),
    ("dga", "geography_dga"),
    ("dga", "connected_sum_augmented"),
    ("augment", "enumerate_augmentations"),
    ("augment", "enumerate_augmentations_bounded"),
    ("linearize", "linearized_differential"),
    ("linearize", "ChainComplex.check_square_zero"),
    ("homology", "integral_homology"),
    ("homology", "invariant_factors"),
    ("homology", "field_homology"),
    ("matrices", "rank_mod_p"),
    ("matrices", "rank_rationals"),
    ("matrices", "matmul"),
    ("verify", "torsion_scan"),
    ("verify", "sabloff_check"),
    ("verify", "filling_obstruction"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)

COUNTER_NAMES = (
    "dgafile.bytes",
    "augment.grid_points",
    "augment.found",
    "linearize.complexes",
    "linearize.cells",
    "linearize.nnz",
    "linearize.units",
    "linearize.square_checks",
    "homology.max_factor_bits",
    "matrices.rank_cells",
)


# Counters that keep the largest value seen instead of a sum.
MAX_COUNTERS = ("homology.max_factor_bits",)


def merge_counters(per_job: list[dict]) -> dict:
    """Counters of several jobs combined: summed, or the maximum."""
    merged = dict.fromkeys(COUNTER_NAMES, 0)
    for counters in per_job:
        for name, value in counters.items():
            merged[name] = max(merged[name], value) if name in MAX_COUNTERS else merged[name] + value
    return merged


def _lchkit_modules(sys_modules) -> list:
    return [m for name, m in sorted(sys_modules.items())
            if m is not None and (name == "lchkit" or name.startswith("lchkit."))]


class _Patch:
    """Rebinds every reference to the TARGETS functions; undo() restores them."""

    def __init__(self, sys_modules, make_wrapper):
        self._undo: list[tuple[object, str, object]] = []
        modules = _lchkit_modules(sys_modules)
        by_name = {m.__name__: m for m in modules}
        for index, (mod_name, path) in enumerate(TARGETS):
            owner = by_name[f"lchkit.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, make_wrapper(index, original))
                continue
            original = getattr(owner, path)
            wrapper = make_wrapper(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def undo(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


class SpanTracer:
    """Clock-only wrappers; spans are kept in memory until written out."""

    def __init__(self):
        self.keep_spans = True  # run.py keeps only the first cycle's spans
        # (span id, job, name, start, end, parent span id or -1)
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.self_s = [0.0] * len(TARGETS)
        self.calls = [0] * len(TARGETS)
        self.job = -1
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count()
        self._patch = None

    def _make_wrapper(self, index: int, original):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        name = SPAN_NAMES[index]
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[index] += duration - frame[1]
                calls[index] += 1
                if parent is not None:
                    parent[1] += duration
                if self.keep_spans:
                    self.spans.append(
                        (frame[0], self.job, name, start, end, parent[0] if parent else -1)
                    )

        traced.__wrapped__ = original
        return traced

    def install(self, sys_modules) -> None:
        self._patch = _Patch(sys_modules, self._make_wrapper)

    def uninstall(self) -> None:
        if self._patch is not None:
            self._patch.undo()
            self._patch = None


def _matrix_stats(matrix, ring) -> tuple[int, int, int]:
    """(cells, nonzeros, nonzeros equal to +-1 in the ring) of one matrix."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    nnz = units = 0
    modulus = ring.modulus if ring.kind == "Zmod" else None
    for row in matrix:
        for x in row:
            if x:
                nnz += 1
                if modulus is None:
                    units += x == 1 or x == -1
                else:
                    units += x % modulus in (1, modulus - 1)
    return rows * cols, nnz, units


class CountingTracer:
    """Exact counters computed from arguments and results of wrapped calls."""

    def __init__(self):
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.calls = [0] * len(TARGETS)
        self._patch = None

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counters
        if name == "dgafile.parse":
            c["dgafile.bytes"] += len(args[0].encode("utf-8"))
        elif name in ("augment.enumerate_augmentations", "augment.enumerate_augmentations_bounded"):
            dga = args[0]
            second = args[1] if len(args) > 1 else kwargs.get("ring", kwargs.get("bound"))
            size = second.modulus if name.endswith("augmentations") else 2 * second + 1
            c["augment.grid_points"] += size ** len(dga.chords_of_degree(0))
            c["augment.found"] += len(result)
        elif name == "linearize.linearized_differential":
            c["linearize.complexes"] += 1
            for matrix in result.boundary.values():
                cells, nnz, units = _matrix_stats(matrix, result.ring)
                c["linearize.cells"] += cells
                c["linearize.nnz"] += nnz
                c["linearize.units"] += units
        elif name == "linearize.ChainComplex.check_square_zero":
            c["linearize.square_checks"] += 1
        elif name == "homology.invariant_factors":
            bits = max((abs(f).bit_length() for f in result), default=0)
            c["homology.max_factor_bits"] = max(c["homology.max_factor_bits"], bits)
        elif name in ("matrices.rank_mod_p", "matrices.rank_rationals"):
            matrix = args[0]
            c["matrices.rank_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

    def _make_wrapper(self, index: int, original):
        name = SPAN_NAMES[index]
        calls = self.calls

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[index] += 1
            self._count(name, args, kwargs, result)
            return result

        counted.__wrapped__ = original
        return counted

    def install(self, sys_modules) -> None:
        self._patch = _Patch(sys_modules, self._make_wrapper)

    def uninstall(self) -> None:
        if self._patch is not None:
            self._patch.undo()
            self._patch = None
