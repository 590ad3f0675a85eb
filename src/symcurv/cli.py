"""Command-line front end.

Subcommands: symmetrizer, lr, fourier, xi, eta, gamma-hat, check-tensor,
rank, verify-paper. Output is text in the package's bracket notation by
default, or JSON with --json. Exit codes: 0 success, 1 failed
verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .dft import fourier_eta, fourier_transform, fourier_xi
from .group_ring import MAX_DEGREE, GroupRingElement
from .littlewood_richardson import lr_product
from .rationals import Rational, format_rational, parse_rational
from .tableaux import (
    curvature_tableau,
    format_partition,
    hook_dimension,
    partitions_of,
    standard_tableaux,
    validate_partition,
    young_symmetrizer,
)
from .tensor import DenseTensor, gamma_hat, is_acdc, is_algebraic_curvature, projector_rank
from .verify import run_all


def _rational_arg(text: str) -> Rational:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """argv with "--nu -2/3" written as "--nu=-2/3", and the same for --xi-nu.

    argparse takes a token that starts with "-" and is not a plain number for
    an option, so it would refuse a negative fraction given after its option.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--nu", "--xi-nu") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _partition_arg(text: str):
    try:
        return validate_partition([int(v) for v in text.replace(",", " ").split()])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _read_document(path: str, kind):
    """kind.from_json of the file at path (- for stdin); nesting too deep to read is a ValueError."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return kind.from_json(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _print_element(element: GroupRingElement, as_json: bool) -> None:
    if as_json:
        print(element.to_json())
    else:
        print(element.pretty())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcurv",
        description="Exact symmetric-group algebra and curvature-tensor toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symmetrizer", help="print a Young symmetrizer")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--shape", type=_partition_arg, help="partition, e.g. 3,2")
    group.add_argument("--curvature", type=int, metavar="U",
                       help="curvature tableau family parameter (0 for order 4, 1 for order 5)")
    p.add_argument("--index", type=int,
                   help="standard tableau index in last-letter order (with --shape; default 0)")
    p.add_argument("--star", action="store_true", help="apply the star involution")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("lr", help="Littlewood-Richardson product of two partitions")
    p.add_argument("--left", type=_partition_arg, required=True)
    p.add_argument("--right", type=_partition_arg, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fourier", help="Fourier blocks of a group-ring element")
    p.add_argument("element", help="path to group-ring JSON, or - for stdin")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("xi", help="rational family of primitive idempotents in Q[S_3]")
    p.add_argument("--nu", type=_rational_arg, required=True, metavar="NUM/DEN")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eta", help="the complementary primitive idempotent in Q[S_3]")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gamma-hat", help="order-5 generator from a symmetric pair")
    p.add_argument("--s", required=True, metavar="FILE",
                   help="order-2 symmetric tensor JSON (- for stdin)")
    p.add_argument("--shat", required=True, metavar="FILE",
                   help="order-3 totally symmetric tensor JSON (- for stdin)")
    p.add_argument("--out", metavar="FILE", help="output path (default stdout)")

    p = sub.add_parser("check-tensor", help="curvature identity diagnostics")
    p.add_argument("tensor", help="path to tensor JSON (order 4 or 5), or - for stdin")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rank", help="rank of a symmetry operator on tensors")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--element", metavar="FILE", help="group-ring JSON (- for stdin)")
    group.add_argument("--xi-nu", type=_rational_arg, metavar="NUM/DEN")
    group.add_argument("--eta", action="store_true")
    group.add_argument("--curvature", type=int, metavar="U")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--star", action="store_true", help="apply star before acting")

    p = sub.add_parser("verify-paper", help="run the bundled claim-verification suite")
    p.add_argument("--only", metavar="NAME", help="run checks matching this name prefix")
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_symmetrizer(args) -> int:
    if args.curvature is not None:
        if args.index is not None:
            raise ValueError("--index goes with --shape, not --curvature")
        tableau = curvature_tableau(args.curvature)
    else:
        shape, index = format_partition(args.shape), args.index or 0
        if sum(args.shape) > MAX_DEGREE:
            raise ValueError(f"shape {shape} exceeds the degree cap {MAX_DEGREE}")
        count = hook_dimension(args.shape)
        if not 0 <= index < count:
            raise ValueError(f"index must be in 0..{count - 1} for shape {shape}")
        tableau = standard_tableaux(args.shape)[index]
    element = young_symmetrizer(tableau)
    if args.star:
        element = element.star()
    if not args.json:
        print(tableau.pretty())
    _print_element(element, args.json)
    return 0


def _cmd_lr(args) -> int:
    decomposition = lr_product(args.left, args.right)
    if args.json:
        print(json.dumps({
            "left": list(decomposition.left),
            "right": list(decomposition.right),
            "terms": [
                {"partition": list(shape), "multiplicity": c}
                for shape, c in decomposition.sorted_terms()
            ],
        }))
    else:
        print(decomposition.pretty())
    return 0


def _cmd_fourier(args) -> int:
    element = _read_document(args.element, GroupRingElement)
    image = fourier_transform(element)
    if args.json:
        print(json.dumps({
            "degree": image.degree,
            "blocks": [
                {
                    "partition": list(shape),
                    "matrix": [[format_rational(v) for v in row] for row in block],
                }
                for shape, block in zip(partitions_of(image.degree), image.blocks)
            ],
        }))
    else:
        for shape, block in zip(partitions_of(image.degree), image.blocks):
            print(format_partition(shape))
            for row in block:
                print("  [" + "  ".join(format_rational(v) for v in row) + "]")
    return 0


def _cmd_gamma_hat(args) -> int:
    s = _read_document(args.s, DenseTensor)
    shat = _read_document(args.shat, DenseTensor)
    result = gamma_hat(s, shat)
    _write_text(args.out, result.to_json())
    return 0


def _cmd_check_tensor(args) -> int:
    tensor = _read_document(args.tensor, DenseTensor)
    if tensor.order == 4:
        report = is_algebraic_curvature(tensor)
        kind = "algebraic curvature tensor"
    elif tensor.order == 5:
        report = is_acdc(tensor)
        kind = "algebraic covariant derivative curvature tensor"
    else:
        print(f"error: expected an order-4 or order-5 tensor, got order {tensor.order}",
              file=sys.stderr)
        return 2
    checks = asdict(report)
    if args.json:
        print(json.dumps({"kind": kind, "passed": report.ok, "checks": checks}))
    else:
        for name, good in checks.items():
            print(f"{'ok  ' if good else 'FAIL'} {name}")
        print(("is" if report.ok else "is NOT") + f" an {kind}")
    return 0 if report.ok else 1


def _cmd_rank(args) -> int:
    if args.element is not None:
        element = _read_document(args.element, GroupRingElement)
    elif args.xi_nu is not None:
        element = fourier_xi(args.xi_nu)
    elif args.eta:
        element = fourier_eta()
    else:
        element = young_symmetrizer(curvature_tableau(args.curvature))
    if args.star:
        element = element.star()
    print(projector_rank(element, args.dim))
    return 0


def _cmd_verify(args) -> int:
    reports = run_all(only=args.only)
    if args.only and not reports:
        print(f"error: no check matches {args.only!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([r.to_dict() for r in reports]))
    else:
        for report in reports:
            print(report.line())
        n_pass = sum(1 for r in reports if r.passed)
        print(f"{n_pass}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_rationals(sys.argv[1:] if argv is None else list(argv)))
    handlers = {
        "symmetrizer": _cmd_symmetrizer,
        "lr": _cmd_lr,
        "fourier": _cmd_fourier,
        "xi": lambda a: (_print_element(fourier_xi(a.nu), a.json), 0)[1],
        "eta": lambda a: (_print_element(fourier_eta(), a.json), 0)[1],
        "gamma-hat": _cmd_gamma_hat,
        "check-tensor": _cmd_check_tensor,
        "rank": _cmd_rank,
        "verify-paper": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
