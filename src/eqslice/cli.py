"""Command-line front end: compute invariants, run obstructions, sum knots,
and verify spec files, with human-readable or machine-readable output.

Exit codes: 0 on success or verdict obtained, 1 on validation failure,
2 on parse or usage errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .catalog import (
    CatalogError,
    CatalogValidationError,
    KnotSpec,
    SpecParseError,
    assemble,
    builtin,
    format_spec,
    list_builtins,
    load,
    save,
    sum_specs,
)
from .laurent import PolyParseError, format_poly, normalize_alexander, parse_poly
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

BUILTIN_SHOW_DEFAULTS = {
    "genus_one_slice": {"m": 1, "l": 1},
    "twist_ka": {"a": 1},
    "pretzel": {"a": 3},
    "generalized_twist": {"b": 2},
    "swap_double": {},
}


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
    if os.path.exists(ref):
        return load(ref)
    name, _, rest = ref.partition(":")
    params = {}
    if rest:
        for piece in rest.split(","):
            if "=" not in piece:
                raise CatalogError(f"bad parameter {piece!r} in spec reference")
            k, _, v = piece.partition("=")
            try:
                params[k.strip()] = Fraction(v.strip())
            except (ValueError, ZeroDivisionError):
                params[k.strip()] = v.strip()
    return builtin(name.strip(), **params)


def parse_vector(text: str, n: int):
    entries = [parse_poly(piece.strip()) for piece in text.split(",")]
    if len(entries) != n:
        raise CatalogError(f"expected {n} entries, got {len(entries)}")
    return entries


class Output:
    def __init__(self, as_json: bool, quiet: bool):
        self.as_json = as_json
        self.quiet = quiet

    def emit(self, payload: dict, lines: list[str]):
        if self.as_json:
            print(json.dumps(payload, sort_keys=True))
        elif not self.quiet:
            for line in lines:
                print(line)

    def result_line(self, line: str):
        # shown even under --quiet: the one-line result
        if not self.as_json:
            print(line)


def _gram_strings(triple):
    return [[str(g) for g in row] for row in triple.pairing.gram]


def cmd_alexander(args, out: Output) -> int:
    triple = assemble(resolve_spec(args.spec))
    alex = normalize_alexander(triple.module.order)
    payload = {
        "alexander": format_poly(alex),
        "invariant_factors": [format_poly(f) for f in triple.module.invariant_factors],
        "grk": triple.module.grk,
    }
    out.emit(
        payload,
        [
            f"alexander = {payload['alexander']}",
            f"invariant_factors = {'; '.join(payload['invariant_factors']) or '(none)'}",
            f"grk = {payload['grk']}",
        ],
    )
    return EXIT_OK


def cmd_blanchfield(args, out: Output) -> int:
    triple = assemble(resolve_spec(args.spec))
    gram = _gram_strings(triple)
    out.emit(
        {"gram": gram},
        [" | ".join(row) for row in gram] or ["(empty gram)"],
    )
    return EXIT_OK


def cmd_pair(args, out: Output) -> int:
    triple = assemble(resolve_spec(args.spec))
    n = triple.module.generators
    x = triple.module.element(parse_vector(args.x, n))
    y = triple.module.element(parse_vector(args.y, n))
    value = pair(triple.pairing, x, y)
    out.emit({"pair": str(value)}, [f"pair = {value}"])
    return EXIT_OK


def cmd_tau(args, out: Output) -> int:
    triple = assemble(resolve_spec(args.spec))
    n = triple.module.generators
    x = triple.module.element(parse_vector(args.x, n))
    image = triple.involution.apply(x)
    coeffs = [format_poly(c) for c in image.coeffs]
    out.emit({"tau": coeffs}, [f"tau(x) = ({', '.join(coeffs)})"])
    return EXIT_OK


def cmd_obstruct(args, out: Output) -> int:
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
                f"    part over {part.denominator}: {len(part.nonzero_forms())} form(s)"
            )
        lines.append(f"  reason: {report.reason}")
    out.emit(
        payloads[0] if len(payloads) == 1 else {"results": payloads},
        lines,
    )
    if out.quiet and not out.as_json:
        for payload in payloads:
            print(payload["verdict"])
    return EXIT_OK


def cmd_genus_bound(args, out: Output) -> int:
    triple = assemble(resolve_spec(args.spec))
    cert = certify_k0(triple, seed=args.seed)
    bound = genus_lower_bound(triple, cert, k_upper=args.k_upper)
    payload = bound.to_dict()
    payload["certificate"] = cert.to_dict()
    out.emit(
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


def cmd_sum(args, out: Output) -> int:
    specs = [resolve_spec(ref) for ref in args.specs]
    combined = sum_specs(specs)
    save(combined, args.output)
    out.emit(
        {"written": args.output, "name": combined.name},
        [f"wrote {args.output}"],
    )
    return EXIT_OK


def cmd_amphichiral(args, out: Output) -> int:
    report = amphichiral_obstruction(args.a, args.n)
    payload = report.to_dict()
    lines = [f"verdict = {report.verdict}", f"branch = {report.branch}"]
    for c in report.checks:
        lines.append(f"  {c.name}: {'pass' if c.passed else 'FAIL'}"
                     + (f" ({c.detail})" if c.detail else ""))
    out.emit(payload, lines)
    return EXIT_OK


def cmd_catalog(args, out: Output) -> int:
    if args.action == "list":
        entries = list_builtins()
        out.emit(
            {"builtins": [{"name": n, "params": s, "description": d} for n, s, d in entries]},
            [f"{n}({s}): {d}" if s else f"{n}: {d}" for n, s, d in entries],
        )
        return EXIT_OK
    if not args.name:
        raise CatalogError("catalog show requires a builtin name")
    params = BUILTIN_SHOW_DEFAULTS.get(args.name, {})
    spec = builtin(args.name, **params)
    text = format_spec(spec)
    out.emit({"spec": text}, [text.rstrip("\n")])
    return EXIT_OK


def cmd_verify(args, out: Output) -> int:
    spec = resolve_spec(args.spec)
    try:
        triple = assemble(spec)
        report = validate(triple)
    except CatalogValidationError as e:
        report = e.report
    payload = report.to_dict()
    lines = [
        f"{c.name}: {'pass' if c.passed else 'FAIL'}" + (f" ({c.detail})" if c.detail else "")
        for c in report.checks
    ]
    lines.append("ok" if report.ok else "FAILED: " + ", ".join(report.failing()))
    out.emit(payload, lines)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("name", nargs="?")
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
    out = Output(as_json=args.json, quiet=args.quiet)
    try:
        return args.func(args, out)
    except CatalogValidationError as e:
        print(f"validation failed: {', '.join(e.report.failing())}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SpecParseError, PolyParseError, CatalogError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
