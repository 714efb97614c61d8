"""Built-in knot families with Seifert matrices and involution data, plus a
diff-friendly text format for user-supplied knots.

Involution matrices are catalog data verified against the axioms at
assembly time, not derived from diagrams.  The genus-one slice family keeps
the involution scale c as a free rational parameter (default 1); the
obstruction verdicts do not depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    PolyParseError,
    format_poly,
    parse_poly,
)
from .matrices import LambdaMatrix, det, seifert_form_det, seifert_pencil
from .modules import PresentedModule, from_seifert
from .pairing import GramPairing, gram_from_seifert
from .involution import SemilinearMap, swap_involution
from .witt import EquivariantTriple, ValidationReport, validate

SCHEMA_VERSION = 1


class CatalogError(ValueError):
    """Unknown builtin or invalid parameters."""


class SpecParseError(ValueError):
    """Malformed spec file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
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


def _as_int(value, name: str) -> int:
    f = Fraction(value)
    if f.denominator != 1:
        raise CatalogError(f"parameter {name} must be an integer, got {f}")
    return int(f)


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


def twist_seifert(a: int) -> tuple[tuple[int, int], tuple[int, int]]:
    return ((a, 0), (1, -a))


def twist_order(a: int) -> LaurentPoly:
    """Order polynomial of the twist family, computed from its Seifert matrix.

    Equals a^2 t^2 - (2 a^2 + 1) t + a^2, with |p(1)| = 1 and
    |p(-1)| = 4 a^2 + 1 strictly between consecutive squares.
    """
    p = det(seifert_pencil(twist_seifert(a)))
    if p.leading_coefficient() < 0:
        p = -p
    return p


def twist_cyclic_triple(a: int) -> EquivariantTriple:
    """Cyclic presentation of the twist family: one generator, fixed by the
    involution up to conjugation; normative for the amphichiral routine."""
    if a < 1:
        raise CatalogError("a must be a positive integer")
    A = twist_seifert(a)
    two_gen = gram_from_seifert(A)
    module = PresentedModule(1, LambdaMatrix([[twist_order(a)]]))
    gram = ((two_gen.gram[1][1],),)
    return EquivariantTriple(
        module=module,
        pairing=GramPairing(module=module, gram=gram),
        involution=SemilinearMap(module=module, matrix=LambdaMatrix([[ONE]])),
    )


def _builtin_specs():
    return {
        "nine46": (
            "",
            "pretzel presentation of the slice knot with two coprime cyclic summands; factor-swapping inversion",
        ),
        "figure_eight": ("", "amphichiral twist knot; inversion conjugates the cyclic generator"),
        "stevedore": ("", "genus-one slice twist knot; inversion negates and conjugates the cyclic generator"),
        "trefoil": ("", "cyclic module with symmetric order; conjugation inversion"),
        "genus_one_slice": ("m, l, c=1", "genus-one algebraically slice shape [[0,m+1],[m,l]]"),
        "twist_ka": ("a", "amphichiral twist family with irreducible order polynomial"),
        "pretzel": ("a, c=1", "odd pretzel family P(a,-a,a) in the genus-one shape, (m,l) = ((a-1)/2, a)"),
        "generalized_twist": ("b, c=1", "even two-bridge family [b,b+2]+ in the genus-one shape, (m,l) = (b/2, 1)"),
        "swap_double": ("inner=trefoil", "connected sum of a knot and its reverse with the factor-swapping inversion"),
    }


def list_builtins() -> list[tuple[str, str, str]]:
    return [(name, sig, desc) for name, (sig, desc) in sorted(_builtin_specs().items())]


def builtin(name: str, **params) -> KnotSpec:
    """Assemble a built-in knot spec; validates parameters, not axioms."""
    if name == "nine46":
        _no_params(name, params)
        return KnotSpec(
            name=name,
            seifert=((0, 2), (1, 0)),
            involution=LambdaMatrix([[ZERO, ONE], [ONE, ZERO]]),
            notes=_builtin_specs()[name][1],
        )
    if name == "figure_eight":
        _no_params(name, params)
        return KnotSpec(
            name=name,
            seifert=((1, 1), (0, -1)),
            involution=LambdaMatrix([[ONE, parse_poly("t^-1 - 1")], [ZERO, ZERO]]),
            notes=_builtin_specs()[name][1],
        )
    if name == "trefoil":
        _no_params(name, params)
        return KnotSpec(
            name=name,
            seifert=((-1, 1), (0, -1)),
            involution=LambdaMatrix([[ONE, parse_poly("1 - t^-1")], [ZERO, ZERO]]),
            notes=_builtin_specs()[name][1],
        )
    if name == "stevedore":
        _no_params(name, params)
        seifert, _ = _genus_one_data(1, 1, Fraction(2))
        return KnotSpec(
            name=name,
            seifert=seifert,
            involution=LambdaMatrix([[-ONE, parse_poly("2*t^-1 - 1")], [ZERO, ZERO]]),
            notes=_builtin_specs()[name][1] + "; equals genus_one_slice(1, 1, c=2)",
        )
    if name == "genus_one_slice":
        m = _require_int(params, "m")
        l = _require_int(params, "l")
        c = Fraction(params.pop("c", 1))
        _no_params(name, params)
        seifert, matrix = _genus_one_data(m, l, c)
        return KnotSpec(
            name=name,
            params={"m": m, "l": l, "c": c},
            seifert=seifert,
            involution=matrix,
            notes=_builtin_specs()[name][1],
        )
    if name == "twist_ka":
        a = _require_int(params, "a")
        _no_params(name, params)
        if a < 1:
            raise CatalogError("a must be a positive integer")
        # cyclic generator b2 with b1 = -a(t-1) b2, so tau(b1) = (a - a t^-1) b2
        matrix = LambdaMatrix([[ZERO, ZERO], [LaurentPoly({0: a, -1: -a}), ONE]])
        return KnotSpec(
            name=name,
            params={"a": a},
            seifert=twist_seifert(a),
            involution=matrix,
            notes=_builtin_specs()[name][1],
        )
    if name == "pretzel":
        a = _require_int(params, "a")
        c = Fraction(params.pop("c", 1))
        _no_params(name, params)
        if a < 3 or a % 2 == 0:
            raise CatalogError("pretzel parameter a must be odd and at least 3")
        m = (a - 1) // 2
        seifert, matrix = _genus_one_data(m, a, c)
        return KnotSpec(
            name=name,
            params={"a": a, "c": c},
            seifert=seifert,
            involution=matrix,
            notes=_builtin_specs()[name][1],
        )
    if name == "generalized_twist":
        b = _require_int(params, "b")
        c = Fraction(params.pop("c", 1))
        _no_params(name, params)
        if b < 2 or b % 2:
            raise CatalogError("generalized twist parameter b must be even and positive")
        seifert, matrix = _genus_one_data(b // 2, 1, c)
        return KnotSpec(
            name=name,
            params={"b": b, "c": c},
            seifert=seifert,
            involution=matrix,
            notes=_builtin_specs()[name][1],
        )
    if name == "swap_double":
        inner_name = params.pop("inner", "trefoil")
        _no_params(name, params)
        inner = builtin(str(inner_name))
        A = inner.seifert
        n = len(A)
        At = tuple(tuple(A[j][i] for j in range(n)) for i in range(n))
        block = tuple(
            tuple(A[i]) + (0,) * n for i in range(n)
        ) + tuple((0,) * n + tuple(At[i]) for i in range(n))
        return KnotSpec(
            name=name,
            params={"inner": str(inner_name)},
            seifert=block,
            involution="swap",
            notes=_builtin_specs()[name][1] + f"; inner = {inner_name}",
        )
    raise CatalogError(f"unknown builtin {name!r}")


def _no_params(name: str, params: dict):
    if params:
        raise CatalogError(f"unexpected parameters for {name}: {sorted(params)}")


def _require_int(params: dict, key: str) -> int:
    if key not in params:
        raise CatalogError(f"missing required parameter {key!r}")
    return _as_int(params.pop(key), key)


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


def sum_specs(specs: Sequence[KnotSpec], name: str | None = None) -> KnotSpec:
    """Equivariant connected sum at the spec level: block Seifert matrix and
    block involution matrix."""
    if not specs:
        raise CatalogError("cannot sum zero specs")
    seifert: tuple[tuple[int, ...], ...] = ()
    matrices = []
    for s in specs:
        matrices.append(_involution(s, from_seifert(s.seifert)).matrix)
        old = len(seifert)
        n = len(s.seifert)
        seifert = tuple(row + (0,) * n for row in seifert) + tuple(
            (0,) * old + tuple(r) for r in s.seifert
        )
    total = matrices[0]
    for m in matrices[1:]:
        total = LambdaMatrix.block_diag(total, m)
    return KnotSpec(
        name=name or "+".join(s.name for s in specs),
        seifert=seifert,
        involution=total,
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
            raise SpecParseError(f"missing required key {required!r}", 0)
    schema, lineno = fields["schema"]
    if schema.strip() != str(SCHEMA_VERSION):
        raise SpecParseError(f"unsupported schema {schema!r}", lineno)

    name = fields["name"][0].strip()
    params: dict = {}
    if "params" in fields and fields["params"][0].strip():
        value, lineno = fields["params"]
        for piece in value.split(","):
            if "=" not in piece:
                raise SpecParseError(f"bad parameter {piece!r}", lineno)
            k, _, v = piece.partition("=")
            try:
                parsed = Fraction(v.strip())
                if parsed.denominator == 1:
                    parsed = int(parsed)
            except (ValueError, ZeroDivisionError):
                parsed = v.strip()
            params[k.strip()] = parsed

    value, lineno = fields["seifert"]
    seifert_rows = []
    if value.strip():
        for row in value.split(";"):
            try:
                seifert_rows.append(tuple(int(x.strip()) for x in row.split(",")))
            except ValueError:
                raise SpecParseError(f"bad integer row {row!r}", lineno) from None
    seifert = tuple(seifert_rows)
    n = len(seifert)
    if any(len(r) != n for r in seifert):
        raise SpecParseError("seifert matrix must be square", lineno)
    d = seifert_form_det(seifert)
    if d not in (1, -1):
        raise SpecParseError(
            f"det(A - A^T) = {d}, expected +-1: not a Seifert matrix", lineno
        )

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
                    entries.append(parse_poly(cell.strip()))
                except PolyParseError as e:
                    raise SpecParseError(
                        f"bad polynomial {cell.strip()!r}: {e}", lineno
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
