"""Command-line front end: compute invariants, run obstructions, sum knots,
and verify spec files, with human-readable or machine-readable output.

Exit codes: 0 on success or verdict obtained, 1 on validation failure,
2 on parse or usage errors, 3 on an internal error (a degree cap hit, a
Smith form that did not converge, a certificate failing its self-check).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .catalog import (
    CatalogError,
    CatalogValidationError,
    KnotSpec,
    assemble,
    build,
    builtin,
    builtin_example,
    format_spec,
    list_builtins,
    load,
    parse_entry,
    parse_params,
    save,
    sum_specs,
)
from .laurent import format_poly, normalize_alexander
from .obstruction import (
    amphichiral_obstruction,
    certify_k0,
    equivariant_slice_verdict,
    genus_lower_bound,
)
from .pairing import pair
from .witt import validate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def resolve_spec(ref: str) -> KnotSpec:
    """A spec reference is a file path or `name[:k=v,...]` for a builtin."""
    if os.path.isfile(ref):
        return load(ref)
    name, _, rest = ref.partition(":")
    if name.strip() not in {b for b, _, _ in list_builtins()}:
        raise CatalogError(f"{ref!r} is neither an existing file nor a builtin name")
    return builtin(name.strip(), **parse_params(rest))


def parse_vector(text: str, n: int):
    entries = [parse_entry(piece.strip()) for piece in text.split(",")]
    if len(entries) != n:
        raise CatalogError(f"expected {n} entries, got {len(entries)}")
    return entries


def emit(args, payload: dict, lines: list[str]):
    """Print payload as JSON under --json, else the lines unless --quiet."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif not args.quiet:
        for line in lines:
            print(line)


def _check_line(c) -> str:
    return f"{c.name}: {'pass' if c.passed else 'FAIL'}" + (f" ({c.detail})" if c.detail else "")


def _gram_strings(triple):
    return [[str(g) for g in row] for row in triple.pairing.gram]


def cmd_alexander(args) -> int:
    triple = assemble(resolve_spec(args.spec))
    alex = normalize_alexander(triple.module.order)
    payload = {
        "alexander": format_poly(alex),
        "invariant_factors": [format_poly(f) for f in triple.module.invariant_factors],
        "grk": triple.module.grk,
    }
    emit(
        args,
        payload,
        [
            f"alexander = {payload['alexander']}",
            f"invariant_factors = {'; '.join(payload['invariant_factors']) or '(none)'}",
            f"grk = {payload['grk']}",
        ],
    )
    return EXIT_OK


def cmd_blanchfield(args) -> int:
    triple = assemble(resolve_spec(args.spec))
    gram = _gram_strings(triple)
    emit(args, {"gram": gram}, [" | ".join(row) for row in gram] or ["(empty gram)"])
    return EXIT_OK


def cmd_pair(args) -> int:
    triple = assemble(resolve_spec(args.spec))
    n = triple.module.generators
    x = triple.module.element(parse_vector(args.x, n))
    y = triple.module.element(parse_vector(args.y, n))
    value = pair(triple.pairing, x, y)
    emit(args, {"pair": str(value)}, [f"pair = {value}"])
    return EXIT_OK


def cmd_tau(args) -> int:
    triple = assemble(resolve_spec(args.spec))
    n = triple.module.generators
    x = triple.module.element(parse_vector(args.x, n))
    image = triple.involution.apply(x)
    coeffs = [format_poly(c) for c in image.coeffs]
    emit(args, {"tau": coeffs}, [f"tau(x) = ({', '.join(coeffs)})"])
    return EXIT_OK


def cmd_obstruct(args) -> int:
    payloads = []
    lines = []
    for ref in args.specs:
        triple = assemble(resolve_spec(ref))
        report = equivariant_slice_verdict(triple, seed=args.seed)
        payload = report.to_dict()
        payload["spec"] = ref
        payloads.append(payload)
        lines.append(f"{ref}: {report.verdict} (seed {args.seed})")
        lines.append(f"  certificate: {report.certificate.verdict}")
        for part in report.certificate.parts:
            lines.append(
                f"    part over {part.denominator}: {sum(any(map(any, Q)) for Q in part.layers)} form(s)"
            )
        lines.append(f"  reason: {report.reason}")
    emit(args, payloads[0] if len(payloads) == 1 else {"results": payloads}, lines)
    if args.quiet and not args.json:
        for payload in payloads:
            print(payload["verdict"])
    return EXIT_OK


def cmd_genus_bound(args) -> int:
    triple = assemble(resolve_spec(args.spec))
    cert = certify_k0(triple, seed=args.seed)
    bound = genus_lower_bound(triple, cert, k_upper=args.k_upper)
    payload = bound.to_dict()
    payload["certificate"] = cert.to_dict()
    emit(
        args,
        payload,
        [
            f"grk = {bound.grk}",
            f"k_upper = {bound.k_upper}",
            f"bound_rational = {bound.bound_rational}",
            f"bound_integer = {bound.bound_integer}",
            f"certificate = {cert.verdict}",
            f"seed = {bound.seed}",
        ],
    )
    return EXIT_OK


def cmd_sum(args) -> int:
    specs = [resolve_spec(ref) for ref in args.specs]
    combined = sum_specs(specs)
    save(combined, args.output)
    emit(args, {"written": args.output, "name": combined.name}, [f"wrote {args.output}"])
    return EXIT_OK


def cmd_amphichiral(args) -> int:
    report = amphichiral_obstruction(args.a, args.n)
    payload = report.to_dict()
    lines = [f"verdict = {report.verdict}", f"branch = {report.branch}"]
    lines += ["  " + _check_line(c) for c in report.checks]
    emit(args, payload, lines)
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        entries = list_builtins()
        emit(
            args,
            {"builtins": [{"name": n, "params": s, "description": d} for n, s, d in entries]},
            [f"{n}({s}): {d}" if s else f"{n}: {d}" for n, s, d in entries],
        )
        return EXIT_OK
    if not args.name:
        raise CatalogError("catalog show requires a builtin name")
    # a builtin reference as resolve_spec reads it; a bare name shows the example
    name, sep, params = args.name.partition(":")
    spec = builtin(name.strip(), **parse_params(params)) if sep else builtin_example(name.strip())
    text = format_spec(spec)
    emit(args, {"spec": text}, [text.rstrip("\n")])
    return EXIT_OK


def cmd_verify(args) -> int:
    report = validate(build(resolve_spec(args.spec)))
    payload = report.to_dict()
    lines = [_check_line(c) for c in report.checks]
    lines.append("ok" if report.ok else "FAILED: " + ", ".join(report.failing()))
    emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_VALIDATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    parse_args keeps no state between calls, and argparse works out the
    help width again for each message."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="suppress informational output")

    parser = argparse.ArgumentParser(
        prog="eqslice",
        description=(
            "Exact computations with knot modules, linking pairings, and "
            "equivariant slice obstructions from Seifert-matrix data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alexander", parents=[common], help="order polynomial, invariant factors, grk")
    p.add_argument("spec")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("blanchfield", parents=[common], help="gram matrix of the pairing")
    p.add_argument("spec")
    p.set_defaults(func=cmd_blanchfield)

    p = sub.add_parser("pair", parents=[common], help="evaluate the pairing on coefficient vectors")
    p.add_argument("spec")
    p.add_argument("--x", required=True, help="comma-separated polynomial entries")
    p.add_argument("--y", required=True, help="comma-separated polynomial entries")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("tau", parents=[common], help="apply the involution to a vector")
    p.add_argument("spec")
    p.add_argument("--x", required=True, help="comma-separated polynomial entries")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("obstruct", parents=[common], help="equivariant slice verdict with certificate")
    p.add_argument("specs", nargs="+")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("genus-bound", parents=[common], help="equivariant 4-genus lower bound")
    p.add_argument("spec")
    p.add_argument("--k-upper", type=_nonnegative_int, default=None, dest="k_upper")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_genus_bound)

    p = sub.add_parser("sum", parents=[common], help="write the equivariant connected sum spec")
    p.add_argument("specs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("amphichiral", parents=[common], help="twist-family obstruction")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_amphichiral)

    p = sub.add_parser("catalog", parents=[common], help="list or show builtins")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="a builtin name, or name:k=v,... for other parameters")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", parents=[common], help="run the structural axiom checks")
    p.add_argument("spec")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CatalogValidationError as e:
        print(e, file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError) as e:
        # SpecParseError, PolyParseError and CatalogError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:
        # DegreeCapError and the convergence and self-check guards
        print(f"internal error: {type(e).__name__}: {e}".replace("\n", " "), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
