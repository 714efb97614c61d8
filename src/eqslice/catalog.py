"""Built-in knot families with Seifert matrices and involution data, plus a
diff-friendly text format for user-supplied knots.

Each builtin is one entry of `_BUILTINS`: its description, its parameters,
the parameters `catalog show` uses and the constructor that checks them.
Involution matrices are catalog data verified against the axioms at
assembly time, not derived from diagrams.  The genus-one slice family keeps
the involution scale c as a free rational parameter (default 1); the
obstruction verdicts do not depend on it.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, Union

from .laurent import (
    ONE,
    ZERO,
    DigitLimitError,
    LaurentPoly,
    PolyParseError,
    format_poly,
    parse_poly,
    parse_rational,
)
from .matrices import DEFAULT_DEGREE_CAP, LambdaMatrix, block_diag, det, seifert_pencil
from .modules import PresentedModule, check_seifert, from_seifert
from .pairing import gram_from_seifert
from .involution import SemilinearMap, swap_involution
from .witt import EquivariantTriple, ValidationReport, validate

SCHEMA_VERSION = 1


class CatalogError(ValueError):
    """Unknown builtin or invalid parameters."""


class SpecParseError(ValueError):
    """Malformed spec file; carries the offending line number, or None for
    a fault of the whole file, such as a missing key."""

    def __init__(self, message: str, line: int | None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CatalogValidationError(ValueError):
    """A spec assembled into a triple that fails the structural axioms."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("validation failed: " + ", ".join(report.failing()))


@dataclass(frozen=True)
class KnotSpec:
    name: str
    params: dict = field(default_factory=dict)
    seifert: tuple[tuple[int, ...], ...] = ()
    involution: Union[str, LambdaMatrix] = "swap"
    notes: str = ""


def _genus_one_data(m: int, l: int, c: Fraction):
    """Seifert matrix and involution matrix for the genus-one slice shape.

    The module is cyclic on b1 with b2 = -(m/l)((m+1)t - m) b1; the
    involution sends b1 to u(t) b1 where u interpolates the two eigenvalue
    components so that y1 -> c y2 and y2 -> y1 / c.
    """
    if m in (0, -1):
        raise CatalogError("m must avoid 0 and -1 (trivial order polynomial)")
    if l == 0:
        raise CatalogError("l must be nonzero")
    if c == 0:
        raise CatalogError("c must be nonzero")
    seifert = ((0, m + 1), (m, l))
    tp = Fraction(m + 1, m)
    tq = Fraction(m, m + 1)
    up = -(1 / c) * tp
    uq = -c * tq
    beta = (up - uq) / (tp - tq)
    alpha = up - beta * tp
    u = LaurentPoly({0: alpha, 1: beta})
    q = LaurentPoly({1: m + 1, 0: -m})
    col2 = (q.conjugate() * u).scale(Fraction(-m, l))
    matrix = LambdaMatrix([[u, col2], [ZERO, ZERO]])
    return seifert, matrix


def twist_order(a: int) -> LaurentPoly:
    """Order polynomial of the twist family: the integral determinant of
    t*A - A^T for the Seifert matrix A of its `twist_ka` spec.

    Equals a^2 t^2 - (2 a^2 + 1) t + a^2, with |p(1)| = 1 and
    |p(-1)| = 4 a^2 + 1 strictly between consecutive squares.
    """
    p = det(seifert_pencil(builtin("twist_ka", a=a).seifert))
    if p.leading_coefficient() < 0:
        p = -p
    return p


def _twist_ka(a: int):
    if a < 1:
        raise CatalogError("a must be a positive integer")
    # cyclic generator b2 with b1 = -a(t-1) b2, so tau(b1) = (a - a t^-1) b2
    return ((a, 0), (1, -a)), LambdaMatrix([[ZERO, ZERO], [LaurentPoly({0: a, -1: -a}), ONE]])


def _pretzel(a: int, c: Fraction):
    if a < 3 or a % 2 == 0:
        raise CatalogError("pretzel parameter a must be odd and at least 3")
    return _genus_one_data((a - 1) // 2, a, c)


def _generalized_twist(b: int, c: Fraction):
    if b < 2 or b % 2:
        raise CatalogError("generalized twist parameter b must be even and positive")
    return _genus_one_data(b // 2, 1, c)


def _swap_double(inner: str):
    A = builtin(inner).seifert
    return block_diag([A, tuple(zip(*A))], 0), "swap"


@dataclass(frozen=True)
class _Builtin:
    """One catalog entry.  `make` takes the checked parameters and returns
    the Seifert matrix and the involution."""

    description: str
    make: Callable[..., tuple]
    # (name, int | Fraction | str, default); a default of None makes it required
    params: tuple[tuple[str, type, object], ...] = ()
    show: dict = field(default_factory=dict)  # the parameters `catalog show` uses
    note: str = ""  # appended to the spec's notes, formatted with the parameters


_BUILTINS = {
    "nine46": _Builtin(
        "pretzel presentation of the slice knot with two coprime cyclic summands; factor-swapping inversion",
        lambda: (((0, 2), (1, 0)), LambdaMatrix([[ZERO, ONE], [ONE, ZERO]])),
    ),
    "figure_eight": _Builtin(
        "amphichiral twist knot; inversion conjugates the cyclic generator",
        lambda: (((1, 1), (0, -1)), LambdaMatrix([[ONE, parse_poly("t^-1 - 1")], [ZERO, ZERO]])),
    ),
    "stevedore": _Builtin(
        "genus-one slice twist knot; inversion negates and conjugates the cyclic generator",
        lambda: _genus_one_data(1, 1, Fraction(2)),
        note="; equals genus_one_slice(1, 1, c=2)",
    ),
    "trefoil": _Builtin(
        "cyclic module with symmetric order; conjugation inversion",
        lambda: (((-1, 1), (0, -1)), LambdaMatrix([[ONE, parse_poly("1 - t^-1")], [ZERO, ZERO]])),
    ),
    "genus_one_slice": _Builtin(
        "genus-one algebraically slice shape [[0,m+1],[m,l]]",
        _genus_one_data,
        (("m", int, None), ("l", int, None), ("c", Fraction, 1)),
        {"m": 1, "l": 1},
    ),
    "twist_ka": _Builtin(
        "amphichiral twist family with irreducible order polynomial",
        _twist_ka,
        (("a", int, None),),
        {"a": 1},
    ),
    "pretzel": _Builtin(
        "odd pretzel family P(a,-a,a) in the genus-one shape, (m,l) = ((a-1)/2, a)",
        _pretzel,
        (("a", int, None), ("c", Fraction, 1)),
        {"a": 3},
    ),
    "generalized_twist": _Builtin(
        "even two-bridge family [b,b+2]+ in the genus-one shape, (m,l) = (b/2, 1)",
        _generalized_twist,
        (("b", int, None), ("c", Fraction, 1)),
        {"b": 2},
    ),
    "swap_double": _Builtin(
        "connected sum of a knot and its reverse with the factor-swapping inversion",
        _swap_double,
        (("inner", str, "trefoil"),),
        note="; inner = {inner}",
    ),
}


def list_builtins() -> list[tuple[str, str, str]]:
    return [
        (name, ", ".join(k if d is None else f"{k}={d}" for k, _, d in b.params), b.description)
        for name, b in sorted(_BUILTINS.items())
    ]


def _entry(name: str) -> _Builtin:
    if name not in _BUILTINS:
        raise CatalogError(f"unknown builtin {name!r}")
    return _BUILTINS[name]


def _param(name: str, kind: type, value):
    """A builtin parameter as its kind: an int, a Fraction or a str."""
    if kind is str:
        return str(value)
    if isinstance(value, str):
        try:
            value = parse_rational(value)
        except DigitLimitError as e:
            raise CatalogError(f"parameter {name}: {e}") from None
        except (ValueError, ZeroDivisionError):
            pass
    if not isinstance(value, (int, Fraction)) or (kind is int and value.denominator != 1):
        what = "an integer" if kind is int else "a rational number"
        raise CatalogError(f"parameter {name} must be {what}, got {value}")
    return kind(value)


def builtin(name: str, /, **params) -> KnotSpec:
    """Assemble a built-in knot spec; validates parameters, not axioms."""
    entry = _entry(name)
    values = {}
    for key, kind, default in entry.params:
        if key not in params and default is None:
            raise CatalogError(f"missing required parameter {key!r}")
        values[key] = _param(key, kind, params.pop(key, default))
    if params:
        raise CatalogError(f"unexpected parameters for {name}: {sorted(params)}")
    seifert, involution = entry.make(**values)
    return KnotSpec(
        name=name,
        params=values,
        seifert=seifert,
        involution=involution,
        notes=entry.description + entry.note.format(**values),
    )


def builtin_example(name: str) -> KnotSpec:
    """The builtin with the parameters `catalog show` uses."""
    return builtin(name, **_entry(name).show)


def build(spec: KnotSpec) -> EquivariantTriple:
    """The triple (module, pairing, involution) of a spec, not validated."""
    module = from_seifert(spec.seifert)
    pairing = gram_from_seifert(spec.seifert, module)
    return EquivariantTriple(module=module, pairing=pairing, involution=_involution(spec, module))


def assemble(spec: KnotSpec) -> EquivariantTriple:
    """Build and validate the triple (module, pairing, involution)."""
    triple = build(spec)
    report = validate(triple)
    if not report.ok:
        raise CatalogValidationError(report)
    return triple


def _involution(spec: KnotSpec, module: PresentedModule) -> SemilinearMap:
    """The spec's involution on module: the named swap or its matrix."""
    if isinstance(spec.involution, str):
        if spec.involution != "swap":
            raise CatalogError(f"unknown involution constructor {spec.involution!r}")
        return swap_involution(module)
    return SemilinearMap(module=module, matrix=spec.involution)


def sum_specs(specs: Sequence[KnotSpec]) -> KnotSpec:
    """Equivariant connected sum at the spec level: block Seifert matrix and
    block involution matrix.  Only a named swap needs the summand's module."""
    if not specs:
        raise CatalogError("cannot sum zero specs")
    matrices = []
    for s in specs:
        matrix = s.involution
        if isinstance(matrix, str):
            matrix = _involution(s, from_seifert(s.seifert)).matrix
        if matrix.rows != len(s.seifert) or matrix.cols != len(s.seifert):
            raise CatalogError("involution matrix shape must match the Seifert matrix")
        matrices.append(matrix.to_lists())
    return KnotSpec(
        name="+".join(s.name for s in specs),
        seifert=block_diag([s.seifert for s in specs], 0),
        involution=LambdaMatrix(block_diag(matrices, ZERO)),
        notes="equivariant connected sum of " + ", ".join(s.name for s in specs),
    )


# ---------------------------------------------------------------------------
# Text format: key=value lines, schema-stamped, diff-friendly.

def format_spec(spec: KnotSpec) -> str:
    lines = [f"schema={SCHEMA_VERSION}", f"name={spec.name}"]
    params = ",".join(f"{k}={v}" for k, v in sorted(spec.params.items()))
    lines.append(f"params={params}")
    lines.append(
        "seifert=" + ";".join(",".join(str(x) for x in row) for row in spec.seifert)
    )
    if isinstance(spec.involution, str):
        lines.append(f"involution={spec.involution}")
    else:
        rows = ";".join(
            ",".join(format_poly(spec.involution.entry(i, j)) for j in range(spec.involution.cols))
            for i in range(spec.involution.rows)
        )
        lines.append(f"involution={rows}")
    lines.append(f"notes={spec.notes}")
    return "\n".join(lines) + "\n"


def parse_params(text: str) -> dict:
    """Read `k=v,...`: integral values become ints, other rationals
    Fractions, and anything else stays a string.  Numbers follow the
    coefficient grammar of parse_rational, so `0.5` and `1e3` are strings."""
    params: dict = {}
    if text:
        for piece in text.split(","):
            if "=" not in piece:
                raise CatalogError(f"bad parameter {piece!r}")
            k, _, v = piece.partition("=")
            k = k.strip()
            if k in params:
                raise CatalogError(f"duplicate parameter {k!r}")
            try:
                value = parse_rational(v.strip())
                if value.denominator == 1:
                    value = int(value)
            except (ValueError, ZeroDivisionError):
                value = v.strip()
            params[k] = value
    return params


def parse_entry(text: str) -> LaurentPoly:
    """parse_poly for an entry of an involution matrix or an element vector,
    refusing any exponent beyond DEFAULT_DEGREE_CAP in absolute value: no
    computation with such an entry stays under the cap, and its powers would
    exhaust memory before any guard is reached."""
    p = parse_poly(text)
    if any(abs(k) > DEFAULT_DEGREE_CAP for k, _ in p.items()):
        raise CatalogError(f"an exponent exceeds the degree cap {DEFAULT_DEGREE_CAP} in absolute value")
    return p


def parse_spec(text: str) -> KnotSpec:
    fields: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecParseError("expected key=value", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in {"schema", "name", "params", "seifert", "involution", "notes"}:
            raise SpecParseError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise SpecParseError(f"duplicate key {key!r}", lineno)
        fields[key] = (value, lineno)

    for required in ("schema", "name", "seifert", "involution"):
        if required not in fields:
            raise SpecParseError(f"missing required key {required!r}", None)
    schema, lineno = fields["schema"]
    if schema.strip() != str(SCHEMA_VERSION):
        raise SpecParseError(f"unsupported schema {schema!r}", lineno)

    name = fields["name"][0].strip()
    params: dict = {}
    if "params" in fields:
        value, lineno = fields["params"]
        try:
            params = parse_params(value.strip())
        except CatalogError as e:
            raise SpecParseError(str(e), lineno) from None

    value, lineno = fields["seifert"]
    seifert_rows = []
    if value.strip():
        for row in value.split(";"):
            try:
                seifert_rows.append(tuple(_param("seifert", int, x.strip()) for x in row.split(",")))
            except ValueError:
                raise SpecParseError(f"bad integer row {reprlib.repr(row)}", lineno) from None
    seifert = tuple(seifert_rows)
    try:
        check_seifert(seifert)
    except ValueError as e:
        raise SpecParseError(str(e), lineno) from None
    n = len(seifert)

    value, lineno = fields["involution"]
    inv_text = value.strip()
    involution: Union[str, LambdaMatrix]
    if inv_text == "swap":
        involution = "swap"
    else:
        rows = []
        for row in inv_text.split(";"):
            entries = []
            for cell in row.split(","):
                try:
                    entries.append(parse_entry(cell.strip()))
                except (PolyParseError, CatalogError) as e:
                    raise SpecParseError(
                        f"bad polynomial {reprlib.repr(cell.strip())}: {e}", lineno
                    ) from None
            rows.append(entries)
        involution = LambdaMatrix(rows)
        if involution.rows != n or involution.cols != n:
            raise SpecParseError("involution matrix shape must match the Seifert matrix", lineno)

    notes = fields.get("notes", ("", 0))[0]
    return KnotSpec(name=name, params=params, seifert=seifert, involution=involution, notes=notes)


def save(spec: KnotSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_spec(spec))


def load(path) -> KnotSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())
