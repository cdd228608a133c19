"""Command-line interface.

DGAs are addressed either by a .dga file path or by a builtin pseudo-path:
builtin:lambda0, builtin:lambda1, builtin:lambda<k>, builtin:unknot.
Exit codes: 0 success, 1 check-failure verdict, 2 usage or parse errors,
141 when the reader of stdout closes the pipe early (128 + SIGPIPE, the
status a shell gives a writer whose reader has gone; nothing goes to
stderr).
All output is deterministic; --json switches to structured output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import dgafile
from .augment import (
    enumerate_augmentations,
    enumerate_augmentations_bounded,
    parse_augmentation_literal,
)
from .dga import DGA, geography_dga, lambda0, lambda_k, unknot, validate
from .errors import InvalidParameter, LchError
from .homology import bockstein, field_homology, from_orders, integral_homology
from .linearize import linearized_differential
from .rings import QQ, ZZ, RingDesc
from .verify import filling_obstruction, sabloff_check, torsion_scan

_BUILTIN = re.compile(r"builtin:(lambda([0-9]+)|unknot)")


def load_dga(source: str) -> DGA:
    m = _BUILTIN.fullmatch(source)
    if m:
        if m.group(1) == "unknot":
            return unknot()
        try:
            k = int(m.group(2))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise InvalidParameter(
                f"builtin:lambda<k> index of {len(m.group(2))} digits is too long"
            ) from None
        return lambda0() if k == 0 else lambda_k(k)
    return dgafile.parse(dgafile.read_document(source))


def _int_list(text: str) -> list[int]:
    """Comma-separated integers, as in '--primes 2,3'; empty items are skipped."""
    try:
        return [int(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _emit(args, obj, text: str) -> None:
    if args.json:
        try:
            text = json.dumps(obj, indent=2, sort_keys=True)
        except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
            raise LchError(f"cannot write the JSON report: {exc}") from None
    print(text)


def cmd_validate(args) -> int:
    dga = load_dga(args.dga)
    report = validate(dga)
    obj = {
        "dga": dga.name,
        "grading_ok": report.grading_ok,
        "d_squared_ok": report.d_squared_ok,
        "failures": [{"chord": c, "poly": str(p)} for c, p in report.failures],
    }
    if report.ok:
        _emit(args, obj, f"{dga.name}: OK (grading and d^2 = 0)")
        return 0
    lines = [f"{dga.name}: INVALID"]
    for chord, poly in report.failures:
        lines.append(f"  {chord}: {poly}")
    _emit(args, obj, "\n".join(lines))
    return 1


def cmd_builtin(args) -> int:
    if args.which == "lambda0":
        dga = lambda0()
    elif args.which == "lambda_k":
        if args.k is None:
            raise LchError("builtin lambda_k needs --k")
        dga = lambda_k(args.k)
    else:
        dga = unknot()
    text = dgafile.serialize(dga)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_augs(args) -> int:
    dga = load_dga(args.dga)
    ring = RingDesc.parse(args.ring)
    if ring == ZZ:
        if args.bound is None:
            raise LchError("enumeration over Z needs --bound")
        augs = enumerate_augmentations_bounded(dga, args.bound)
    elif ring.is_finite:
        augs = enumerate_augmentations(dga, ring)
    else:
        raise LchError(f"cannot enumerate over {ring}")
    obj = {"dga": dga.name, "count": len(augs), "augmentations": [a.to_json_obj() for a in augs]}
    text = "\n".join(a.literal() for a in augs) or "(none)"
    _emit(args, obj, f"{len(augs)} augmentation(s)\n{text}")
    return 0


def _field_homology_text(dims: dict[int, int], ring: RingDesc) -> str:
    lines = []
    for d in sorted(dims, reverse=True):
        dim = dims[d]
        base = "Q" if ring == QQ else f"({ring})"
        power = "" if dim == 1 else f"^{dim}"
        lines.append(f"H_{d} = {base}{power}")
    return "\n".join(lines) if lines else "LCH = 0"


def cmd_homology(args) -> int:
    dga = load_dga(args.dga)
    ring = RingDesc.parse(args.ring) if args.ring else None
    aug = parse_augmentation_literal(args.aug, default_ring=ring)
    complex_ = linearized_differential(dga, aug)
    if aug.ring == ZZ:
        homology = integral_homology(complex_)
        obj = {"dga": dga.name, "ring": "Z", "homology": homology.to_json_obj()}
        _emit(args, obj, homology.format_report() or "LCH = 0")
    else:
        dims = field_homology(complex_, aug.ring)
        obj = {
            "dga": dga.name,
            "ring": str(aug.ring),
            "dims": {str(d): v for d, v in sorted(dims.items(), reverse=True)},
        }
        _emit(args, obj, _field_homology_text(dims, aug.ring))
    return 0


def cmd_duality(args) -> int:
    dga = load_dga(args.dga)
    ring = RingDesc.parse(args.field)
    aug = parse_augmentation_literal(args.aug, default_ring=ring)
    report = sabloff_check(dga, aug)
    _emit(args, report.to_json_obj(), report.format_report())
    return 0 if report.duality_ok else 1


def cmd_scan(args) -> int:
    dga = load_dga(args.dga)
    report = torsion_scan(dga, args.primes, bound=args.bound)
    _emit(args, report.to_json_obj(), report.format_report())
    return 0


def cmd_geography(args) -> int:
    dga, aug = geography_dga(args.grading, args.free, args.torsion)
    homology = integral_homology(linearized_differential(dga, aug))
    achieved = homology.group(args.grading)
    requested = from_orders([0] * args.free + args.torsion)
    if achieved != requested:
        # The construction guarantees this; a mismatch means a bug.
        print(
            f"geography FAILED: H_{args.grading} = {achieved}, requested {requested}",
            file=sys.stderr,
        )
        return 1
    # Verified isomorphic, so print the group in the user's decomposition.
    pieces = ["Z"] * args.free + [f"Z/{n}" for n in args.torsion]
    text = f"H_{args.grading} = " + " + ".join(pieces)
    obj = {
        "dga": dga.name,
        "grading": args.grading,
        "requested": {"free_rank": args.free, "torsion_orders": args.torsion},
        "achieved": achieved.to_json_obj(),
        "homology": homology.to_json_obj(),
        "augmentation": aug.to_json_obj(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dgafile.serialize(dga))
    _emit(args, obj, text)
    return 0


def cmd_bockstein(args) -> int:
    dga = load_dga(args.dga)
    aug = parse_augmentation_literal(args.aug, default_ring=ZZ)
    ranks = bockstein(linearized_differential(dga, aug))
    obj = {"dga": dga.name, "bockstein_ranks": {str(d): r for d, r in sorted(ranks.items(), reverse=True)}}
    if ranks:
        text = "\n".join(
            f"beta: H_{d}(Z/2) -> H_{d - 1}(Z/2) has rank {r}"
            for d, r in sorted(ranks.items(), reverse=True)
        )
    else:
        text = "beta = 0 in all degrees"
    _emit(args, obj, text)
    return 0


def cmd_obstruction(args) -> int:
    dga = load_dga(args.dga)
    ring = RingDesc.parse(args.field)
    aug = parse_augmentation_literal(args.aug, default_ring=ring)
    verdict = filling_obstruction(dga, aug)
    _emit(args, verdict.to_json_obj(), verdict.format_report())
    return 0 if verdict.geometric_possible else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lch` argument parser, built once on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="lch",
        description="Exact linearized contact homology for Chekanov-Eliashberg DGAs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="structured output")
        return p

    p = add("validate", cmd_validate, "check gradings and d^2 = 0")
    p.add_argument("dga", help=".dga file or builtin:<name>")

    p = add("builtin", cmd_builtin, "emit a built-in DGA as a .dga document")
    p.add_argument("which", choices=["lambda0", "lambda_k", "unknot"])
    p.add_argument("--k", type=int, default=None, help="family index for lambda_k")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")

    p = add("augs", cmd_augs, "enumerate augmentations")
    p.add_argument("dga")
    p.add_argument("--ring", default="Z/2", help="Z/m, or Z with --bound")
    p.add_argument("--bound", type=int, default=None, help="|value| bound over Z")

    p = add("homology", cmd_homology, "linearized homology at an augmentation")
    p.add_argument("dga")
    p.add_argument("--aug", required=True, help="literal like 'a1=2,a3=1' (zeros omitted)")
    p.add_argument("--ring", default=None, help="Z (default), Z/p, or Q")

    p = add("duality", cmd_duality, "Sabloff duality report over a field")
    p.add_argument("dga")
    p.add_argument("--aug", required=True)
    p.add_argument("--field", required=True, help="Q or Z/p")

    p = add("scan", cmd_scan, "torsion evidence scan over several primes")
    p.add_argument("dga")
    p.add_argument("--primes", type=_int_list, default="2,3", help="comma-separated primes")
    p.add_argument("--bound", type=int, default=None, help="also scan Z values in [-N, N]")

    p = add("geography", cmd_geography, "realize a group as LCH in a grading")
    p.add_argument("--grading", type=int, required=True)
    p.add_argument("--free", type=int, default=0, help="free rank m")
    p.add_argument("--torsion", type=_int_list, default="", help="comma-separated torsion orders")
    p.add_argument("--out", default=None, help="also write the constructed .dga")

    p = add("bockstein", cmd_bockstein, "mod-2 Bockstein ranks at a Z augmentation")
    p.add_argument("dga")
    p.add_argument("--aug", required=True)

    p = add("obstruction", cmd_obstruction, "filling dimension obstruction")
    p.add_argument("dga")
    p.add_argument("--aug", required=True)
    p.add_argument("--field", required=True)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise  # the reader has gone; `main` exits 141, not 2
    except (LchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # As in the "Note on SIGPIPE" of the `signal` docs: stdout goes to
        # devnull, so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
