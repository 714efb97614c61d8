"""Exact matrices over the Laurent ring: determinants, inverses, Smith
normal form with unimodular transforms, kernels, and span membership.

Determinants use one fraction-free (Bareiss) elimination, which divides
exactly by the previous pivot: directly over the ring for `det`, and over
the integers for `inverse_qt`, which samples the determinant and adjugate
of the denominator-cleared matrix at integer points and interpolates them.
Both take polynomially many ring operations.

The Laurent ring is a PID (a localization of the rational polynomial ring),
so Smith normal form exists; pivoting works on ordinary-polynomial degrees
after stripping t-power units, which keeps the Euclidean algorithm honest.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import floordiv
from typing import Iterable, Sequence

from .laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    RationalFn,
    as_poly,
    divexact,
    divides,
    laurent_quo,
)

DEFAULT_DEGREE_CAP = 512


class DegreeCapError(RuntimeError):
    """Intermediate polynomial degree exceeded the configured cap."""


class SingularMatrixError(ValueError):
    """Inversion was requested for a matrix with zero determinant."""


class LambdaMatrix:
    """Immutable rectangular matrix of Laurent polynomials."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(as_poly(x) for x in row) for row in entries)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        self._e = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0

    @classmethod
    def identity(cls, n: int) -> "LambdaMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "LambdaMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self._e[i][j]

    def row(self, i: int) -> tuple[LaurentPoly, ...]:
        return self._e[i]

    def col(self, j: int) -> tuple[LaurentPoly, ...]:
        return tuple(r[j] for r in self._e)

    def to_lists(self) -> list[list[LaurentPoly]]:
        return [list(r) for r in self._e]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self._e for e in r)

    def transpose(self) -> "LambdaMatrix":
        return LambdaMatrix(zip(*self._e)) if self._e else LambdaMatrix([])

    def conjugate(self) -> "LambdaMatrix":
        return LambdaMatrix([[e.conjugate() for e in r] for r in self._e])

    def __neg__(self) -> "LambdaMatrix":
        return LambdaMatrix([[-e for e in r] for r in self._e])

    def __add__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return LambdaMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)]
        )

    def __sub__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        return self + (-other)

    def __mul__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = other.transpose()._e
        out = []
        for r in self._e:
            out.append([_dot(r, c) for c in cols])
        return LambdaMatrix(out)

    def hstack(self, other: "LambdaMatrix") -> "LambdaMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return LambdaMatrix([r1 + r2 for r1, r2 in zip(self._e, other._e)])

    @staticmethod
    def block_diag(a: "LambdaMatrix", b: "LambdaMatrix") -> "LambdaMatrix":
        out = []
        for r in a._e:
            out.append(list(r) + [ZERO] * b.cols)
        for r in b._e:
            out.append([ZERO] * a.cols + list(r))
        return LambdaMatrix(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        return self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in r) for r in self._e)
        return f"LambdaMatrix[{self.rows}x{self.cols}]({body})"


def _dot(u: Sequence[LaurentPoly], v: Sequence[LaurentPoly]) -> LaurentPoly:
    acc = ZERO
    for a, b in zip(u, v):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


def mat_vec(M: LambdaMatrix, v: Sequence[LaurentPoly]) -> tuple[LaurentPoly, ...]:
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    return tuple(_dot(r, v) for r in M._e)


def _eliminate(rows: list[list], zero, one, divide, size, adjugate: bool = False):
    """Fraction-free (Bareiss) elimination over an integral domain.

    divide(a, b) is the ring's exact division, and each step pivots on an
    entry of least size(entry) in the remaining block.  Returns (det, adj),
    where adj is None unless asked for, and also None when det is zero.
    With the adjugate this is Gauss-Jordan on [M | I].  After step k every
    entry is, up to sign, a minor of order k + 1 of [M | I], so each
    division by the previous pivot is exact.  At the end the right block is
    +-adj(M) with its rows permuted as the columns were, which is undone.
    """
    n = len(rows)
    a = [
        list(r) + ([one if i == j else zero for j in range(n)] if adjugate else [])
        for i, r in enumerate(rows)
    ]
    width = 2 * n if adjugate else n
    cols = list(range(n))
    negate = False
    prev = one
    for k in range(n):
        best = None
        for i in range(k, n):
            for j in range(k, n):
                e = a[i][j]
                if e != zero:
                    s = size(e)
                    if best is None or s < best[0]:
                        best = (s, i, j)
        if best is None:
            return zero, None
        _, p, q = best
        if p != k:
            a[k], a[p] = a[p], a[k]
            negate = not negate
        if q != k:
            for r in a:
                r[k], r[q] = r[q], r[k]
            cols[k], cols[q] = cols[q], cols[k]
            negate = not negate
        rk = a[k]
        piv = rk[k]
        # Columns up to k need no update: they end as piv * (unit vector).
        for i in range(0 if adjugate else k + 1, n):
            if i == k:
                continue
            ri = a[i]
            f = ri[k]
            if f == zero:
                for j in range(k + 1, width):
                    if ri[j] != zero:
                        ri[j] = divide(piv * ri[j], prev)
            else:
                for j in range(k + 1, width):
                    ri[j] = divide(piv * ri[j] - f * rk[j], prev)
        prev = piv
    d = -prev if negate else prev
    if not adjugate:
        return d, None
    adj = [None] * n
    for k in range(n):
        adj[cols[k]] = [-e if negate else e for e in a[k][n:]]
    return d, adj


def _size(e: LaurentPoly) -> tuple[int, int]:
    return e.span(), len(e.items())


def det(M: LambdaMatrix, degree_cap: int = DEFAULT_DEGREE_CAP) -> LaurentPoly:
    """Exact determinant by fraction-free elimination over the ring."""
    if not M.is_square():
        raise ValueError("determinant of a non-square matrix")
    worst = sum(
        max((e.span() for e in M.row(i) if not e.is_zero()), default=0) for i in range(M.rows)
    )
    if worst > degree_cap:
        raise DegreeCapError(f"determinant degree could reach {worst}, cap {degree_cap}")
    return _eliminate(M.to_lists(), ZERO, ONE, divexact, _size)[0]


def seifert_form_det(A: Sequence[Sequence[int]]) -> int:
    """det(A - A^T) for a square integer matrix A."""
    n = len(A)
    rows = [[A[i][j] - A[j][i] for j in range(n)] for i in range(n)]
    return _eliminate(rows, 0, 1, floordiv, abs)[0]


def seifert_pencil(A: Sequence[Sequence[int]]) -> LambdaMatrix:
    """t*A - A^T for a square integer matrix A: the relations of its module.

    The pairing inverts A - t*A^T, which is minus the transpose of this.
    """
    n = len(A)
    return LambdaMatrix(
        [[LaurentPoly({1: A[i][j], 0: -A[j][i]}) for j in range(n)] for i in range(n)]
    )


def _horner(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Coefficients c_0..c_D of the integer polynomial of degree <= D through
    the len(xs) = D + 1 points (xs, ys).

    The divided differences of an integer polynomial at distinct integers are
    integers, so every Newton step divides exactly.
    """
    c = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) // (xs[i] - xs[i - k])
    poly = [c[-1]]
    for k in range(len(xs) - 2, -1, -1):
        # poly = poly * (t - xs[k]) + c[k]
        poly = [0] + poly
        for j in range(len(poly) - 1):
            poly[j] -= xs[k] * poly[j + 1]
        poly[0] += c[k]
    return poly


def inverse_qt(M: LambdaMatrix) -> tuple[tuple[RationalFn, ...], ...]:
    """Inverse as a grid over the fraction field, interpolated from integers.

    Row i is scaled by s_i = L_i * t^(-v_i), with v_i its lowest exponent and
    L_i the lcm of its coefficient denominators.  This makes P = S*M an
    integer polynomial matrix whose determinant and adjugate have degree at
    most D, the sum of its row degrees.  Both are interpolated from
    fraction-free integer eliminations of P(x) at D + 1 integers x with
    det P(x) != 0, and M^-1 = adj(P) * S / det(P).
    """
    if not M.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    scales: list[LaurentPoly] = []
    P: list[list[list[int]]] = []
    for row in M._e:
        nonzero = [e for e in row if not e.is_zero()]
        if not nonzero:
            raise SingularMatrixError("matrix is singular")
        v = min(e.valuation() for e in nonzero)
        L = lcm(*(c.denominator for e in nonzero for _, c in e.items()))
        scales.append(LaurentPoly({-v: L}))
        P.append([[int(c * L) for c in e.shift(-v).dense()] for e in row])
    D = sum(max(len(e) for e in row) - 1 for row in P)
    if D > DEFAULT_DEGREE_CAP:
        raise DegreeCapError(f"inverse degree could reach {D}, cap {DEFAULT_DEGREE_CAP}")
    # A nonzero det P has at most D integer roots, so 2D + 1 samples
    # 0, 1, -1, 2, -2, ... hold D + 1 non-roots unless det P = 0.
    xs: list[int] = []
    dets: list[int] = []
    adjs: list[list[list[int]]] = []
    for k in range(2 * D + 1):
        x = (k + 1) // 2 if k % 2 else -(k // 2)
        sample = [[_horner(e, x) for e in row] for row in P]
        d, adj = _eliminate(sample, 0, 1, floordiv, abs, adjugate=True)
        if d:
            xs.append(x)
            dets.append(d)
            adjs.append(adj)
            if len(xs) == D + 1:
                break
    else:
        raise SingularMatrixError("matrix is singular")
    den = LaurentPoly(enumerate(_interpolate(xs, dets)))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            values = [adj[i][j] for adj in adjs]
            num = LaurentPoly(enumerate(_interpolate(xs, values))) if any(values) else ZERO
            row.append(RationalFn(num * scales[j], den))
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class SnfResult:
    """U*M*V = D with U, V unimodular and D diagonal with divisibility."""

    U: LambdaMatrix
    D: LambdaMatrix
    V: LambdaMatrix
    diagonal: tuple[LaurentPoly, ...]
    invariant_factors: tuple[LaurentPoly, ...]
    rank: int


def snf(M: LambdaMatrix, degree_cap: int = DEFAULT_DEGREE_CAP) -> SnfResult:
    """Smith normal form over the Laurent ring.

    Pivots are chosen with minimal ordinary degree, ties broken by lowest
    row then column index, so the output is deterministic.  Diagonal entries
    are monic ordinary polynomials in a divisibility chain; the non-unit
    ones are the invariant factors.
    """
    r, c = M.rows, M.cols
    D = M.to_lists()
    U = LambdaMatrix.identity(r).to_lists()
    V = LambdaMatrix.identity(c).to_lists()

    def check_cap():
        for row in D:
            for e in row:
                if not e.is_zero() and e.span() > degree_cap:
                    raise DegreeCapError(
                        f"intermediate degree {e.span()} exceeds cap {degree_cap}"
                    )

    def swap_rows(a, b):
        if a != b:
            D[a], D[b] = D[b], D[a]
            U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        if a != b:
            for row in D:
                row[a], row[b] = row[b], row[a]
            for row in V:
                row[a], row[b] = row[b], row[a]

    def scale_row(i, unit):
        D[i] = [unit * e for e in D[i]]
        U[i] = [unit * e for e in U[i]]

    def addmul_row(i, k, q):
        # row_i -= q * row_k
        D[i] = [a - q * b for a, b in zip(D[i], D[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def addmul_col(j, k, q):
        for row in D:
            row[j] = row[j] - q * row[k]
        for row in V:
            row[j] = row[j] - q * row[k]

    def find_pivot(k):
        best = None
        for i in range(k, r):
            for j in range(k, c):
                e = D[i][j]
                if e.is_zero():
                    continue
                s = e.span()
                if best is None or s < best[0]:
                    best = (s, i, j)
        return best

    guard = 0
    k = 0
    while k < min(r, c):
        found = find_pivot(k)
        if found is None:
            break
        _, pi, pj = found
        swap_rows(k, pi)
        swap_cols(k, pj)
        while True:
            guard += 1
            if guard > 100000:
                raise RuntimeError("Smith normal form failed to converge")
            piv = D[k][k]
            unit = LaurentPoly({-piv.valuation(): 1 / piv.leading_coefficient()})
            if not unit.is_one():
                scale_row(k, unit)
            piv = D[k][k]
            dirty = False
            for i in range(k + 1, r):
                if not D[i][k].is_zero():
                    addmul_row(i, k, laurent_quo(D[i][k], piv))
                    if not D[i][k].is_zero():
                        dirty = True
            for j in range(k + 1, c):
                if not D[k][j].is_zero():
                    addmul_col(j, k, laurent_quo(D[k][j], piv))
                    if not D[k][j].is_zero():
                        dirty = True
            check_cap()
            if dirty:
                _, pi, pj = find_pivot(k)
                swap_rows(k, pi)
                swap_cols(k, pj)
                continue
            bad = None
            for i in range(k + 1, r):
                for j in range(k + 1, c):
                    if not D[i][j].is_zero() and not divides(piv, D[i][j]):
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is not None:
                addmul_row(k, bad, -ONE)
                continue
            break
        k += 1

    diag = tuple(D[i][i] for i in range(min(r, c)))
    rank = sum(1 for d in diag if not d.is_zero())
    invariant = tuple(d for d in diag if not d.is_zero() and not d.is_unit())
    return SnfResult(
        U=LambdaMatrix(U),
        D=LambdaMatrix(D),
        V=LambdaMatrix(V),
        diagonal=diag,
        invariant_factors=invariant,
        rank=rank,
    )


def kernel(M: LambdaMatrix, _snf: SnfResult | None = None) -> LambdaMatrix:
    """Matrix whose columns generate the kernel of M over the Laurent ring."""
    s = _snf if _snf is not None else snf(M)
    cols = [s.V.col(j) for j in range(s.rank, M.cols)]
    if not cols:
        return LambdaMatrix.zeros(M.cols, 0)
    return LambdaMatrix(zip(*cols))


def in_span(v: Sequence[LaurentPoly], M: LambdaMatrix, _snf: SnfResult | None = None):
    """Coefficients w with M*w = v when v lies in the column span, else None."""
    v = [as_poly(x) for x in v]
    if len(v) != M.rows:
        raise ValueError("vector length mismatch")
    s = _snf if _snf is not None else snf(M)
    u = mat_vec(s.U, v)
    z = [ZERO] * M.cols
    for i in range(M.rows):
        if i < s.rank:
            d = s.diagonal[i]
            if u[i].is_zero():
                continue
            if not divides(d, u[i]):
                return None
            z[i] = divexact(u[i], d)
        elif not u[i].is_zero():
            return None
    return mat_vec(s.V, z)
