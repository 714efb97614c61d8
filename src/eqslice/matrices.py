"""Exact matrices over the Laurent ring: determinants, inverses, Smith
normal form with unimodular transforms, kernels, and span membership.

Determinants use one fraction-free (Bareiss) elimination, which divides
exactly by the previous pivot: directly over the ring for `det`, and over
the integers for `inverse_qt`, which samples the determinant and adjugate
of the denominator-cleared matrix at integer points and interpolates them.
Both take polynomially many ring operations.  The pairing inverts
A - t*A^T with `inverse_qt` only when det A = 0; otherwise the inverse
comes from the module's exponent (see modules._RationalModel).

The Laurent ring is a PID (a localization of the rational polynomial ring),
so Smith normal form exists; pivoting works on ordinary-polynomial degrees
after stripping t-power units, which keeps the Euclidean algorithm honest.
snf runs on integer coefficient lists, each entry t^v * c(t) / d in one
canonical form, and keeps them in its result, which makes the LaurentPoly
matrices U, D and V only when they are read.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import floordiv, mul
from typing import Iterable, Sequence

from .laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    _pseudo_divide,
    _pseudo_remainder,
    as_poly,
    divexact,
    divides,
    integer_lists,
    list_dot,
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        return self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in r) for r in self._e)
        return f"LambdaMatrix[{self.rows}x{self.cols}]({body})"


def block_diag(blocks: Sequence[Sequence[Sequence]], zero) -> tuple[tuple, ...]:
    """The block-diagonal matrix of the blocks, given as rows, padded with zero.

    A block may be rectangular, or have rows of length 0; the result is a
    tuple of row tuples, for integer matrices, grams and LambdaMatrix rows.
    """
    widths = [len(b[0]) if b else 0 for b in blocks]
    size, left = sum(widths), 0
    rows: list[tuple] = []
    for b, width in zip(blocks, widths):
        rows += [(zero,) * left + tuple(r) + (zero,) * (size - left - width) for r in b]
        left += width
    return tuple(rows)


def _product(X: Sequence[Sequence[int]], Y: Sequence[Sequence[int]]) -> list[list[int]]:
    """X * Y for integer matrices given as rows.  A row of X with more than
    half its entries nonzero takes each output entry as one dot product
    with a column of Y; any other row is the combination of Y's rows it
    weights, so its zero entries cost nothing (block sums, permutations)."""
    out = []
    cols = None
    for row in X:
        if 2 * sum(map(bool, row)) > len(row):
            if cols is None:
                cols = list(zip(*Y))
            out.append([sum(map(mul, row, c)) for c in cols])
            continue
        acc = [0] * (len(Y[0]) if Y else 0)
        for x, y in zip(row, Y):
            if x:
                acc = [a + x * b for a, b in zip(acc, y)]
        out.append(acc)
    return out


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


def det(M: LambdaMatrix) -> LaurentPoly:
    """Exact determinant by fraction-free elimination over the ring."""
    if not M.is_square():
        raise ValueError("determinant of a non-square matrix")
    worst = sum(
        max((e.span() for e in M.row(i) if not e.is_zero()), default=0) for i in range(M.rows)
    )
    if worst > DEFAULT_DEGREE_CAP:
        raise DegreeCapError(f"determinant degree could reach {worst}, cap {DEFAULT_DEGREE_CAP}")
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


def inverse_qt(M: LambdaMatrix) -> tuple[list[int], list[list[list[int]]]]:
    """(den, F) with M^-1 = F / den, interpolated from integers.

    Row i is scaled by s_i = L_i * t^(-v_i), with v_i its lowest exponent and
    L_i the lcm of its coefficient denominators.  This makes P = S*M an
    integer polynomial matrix whose determinant and adjugate have degree at
    most D, the sum of its row degrees.  Both are interpolated from
    fraction-free integer eliminations of P(x) at D + 1 integers x with
    det P(x) != 0, and M^-1 = adj(P) * S / det(P).  With V = max(0, v_i),
    that is F = adj(P) * t^V * S over den = t^V * det(P): den and each entry
    of F are integer coefficient lists, lowest first, as in
    modules._RationalModel.inverse_pencil.
    """
    if not M.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    scales: list[tuple[int, int]] = []
    P: list[list[list[int]]] = []
    for row in M._e:
        nonzero = [e for e in row if not e.is_zero()]
        if not nonzero:
            raise SingularMatrixError("matrix is singular")
        v = min(e.valuation() for e in nonzero)
        L = lcm(*(c.denominator for e in nonzero for _, c in e.items()))
        scales.append((L, v))
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
    V = max([0] + [v for _, v in scales])
    F = []
    for i in range(n):
        row = []
        for j, (L, v) in enumerate(scales):
            values = [adj[i][j] for adj in adjs]
            row.append([0] * (V - v) + [L * c for c in _interpolate(xs, values)] if any(values) else [])
        F.append(row)
    return [0] * V + _interpolate(xs, dets), F


class SnfResult:
    """U*M*V = D with U, V unimodular and D diagonal with divisibility.

    Held as snf's integer entries (see _entry), entries = (U, D, V) as
    grids: the diagonal, the invariant factors and the rank are made at
    once, the LaurentPoly matrices U, D and V on first read, and
    integer_column gives a column of V on integer coefficient lists.
    """

    def __init__(self, U: list[list], D: list[list], V: list[list]):
        self.entries = (U, D, V)
        self.diagonal = tuple(_poly(D[i][i]) for i in range(min(len(D), len(V))))
        self.rank = sum(1 for d in self.diagonal if not d.is_zero())
        self.invariant_factors = tuple(d for d in self.diagonal if not d.is_zero() and not d.is_unit())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SnfResult):
            return NotImplemented
        return self.entries == other.entries

    @cached_property
    def U(self) -> LambdaMatrix:
        return _matrix(self.entries[0])

    @cached_property
    def D(self) -> LambdaMatrix:
        return _matrix(self.entries[1])

    @cached_property
    def V(self) -> LambdaMatrix:
        return _matrix(self.entries[2])

    def integer_column(self, j: int) -> tuple[list[list[int]], int, int]:
        """Column j of V as laurent.integer_lists gives it: (lists, m, v)
        with V[i][j] = t^v * lists[i] / m, one positive m and the least
        exponent v for the whole column."""
        col = [row[j] for row in self.entries[2]]
        nonzero = [e for e in col if e is not None]
        if not nonzero:
            return [[] for _ in col], 1, 0
        v, m = min(e[0] for e in nonzero), lcm(*(e[2] for e in nonzero))
        return [[] if e is None else [0] * (e[0] - v) + [x * (m // e[2]) for x in e[1]] for e in col], m, v


def snf(M: LambdaMatrix) -> SnfResult:
    """Smith normal form over the Laurent ring.

    Pivots are chosen with minimal ordinary degree, ties broken by lowest
    row then column index, so the output is deterministic.  Diagonal entries
    are monic ordinary polynomials in a divisibility chain; the non-unit
    ones are the invariant factors.  D, U and V hold integer coefficient
    lists (see _entry), and so does the result: an update a - q*b is one
    integer convolution over lcm(da, dq*db), a quotient an integer
    pseudo-division by the pivot and a divisibility test a
    pseudo-remainder.
    """
    r, c = M.rows, M.cols
    entries, m, low = integer_lists([e for row in M._e for e in row])
    D = [[_entry(low, entries[i * c + j], m) for j in range(c)] for i in range(r)]
    U, V = ([[(0, [1], 1) if i == j else None for j in range(n)] for i in range(n)] for n in (r, c))

    def check_cap():
        # the first entry over the cap, row by row
        span = next((len(e[1]) - 1 for row in D for e in row if e is not None and len(e[1]) - 1 > DEFAULT_DEGREE_CAP), 0)
        if span:
            raise DegreeCapError(f"intermediate degree {span} exceeds cap {DEFAULT_DEGREE_CAP}")

    def swap(k, i, j):
        # row k with row i, column k with column j
        D[k], D[i], U[k], U[i] = D[i], D[k], U[i], U[k]
        for row in D + V:
            row[k], row[j] = row[j], row[k]

    def addmul_row(i, k, q):
        # row_i -= q * row_k
        D[i] = [a if b is None else _sub_mul(a, q, b) for a, b in zip(D[i], D[k])]
        U[i] = [a if b is None else _sub_mul(a, q, b) for a, b in zip(U[i], U[k])]

    def addmul_col(j, k, q):
        for row in D + V:
            if row[k] is not None:
                row[j] = _sub_mul(row[j], q, row[k])

    def find_pivot(k):
        best = None
        for i in range(k, r):
            for j in range(k, c):
                e = D[i][j]
                if e is not None and (best is None or len(e[1]) - 1 < best[0]):
                    best = (len(e[1]) - 1, i, j)
        return best

    guard = 0
    k = 0
    while k < min(r, c):
        found = find_pivot(k)
        if found is None:
            break
        swap(k, *found[1:])
        while True:
            guard += 1
            if guard > 100000:
                raise RuntimeError("Smith normal form failed to converge")
            v, P, d = D[k][k]
            if v or P[-1] != d:
                # row_k times the unit t^-v / lc, lc = P[-1] / d, as 0 - (-unit) * row_k
                unit = (-v, [-d], P[-1])
                D[k] = [e if e is None else _sub_mul(None, unit, e) for e in D[k]]
                U[k] = [e if e is None else _sub_mul(None, unit, e) for e in U[k]]
            piv = D[k][k]
            dirty = False
            for i in range(k + 1, r):
                if D[i][k] is not None:
                    q = _quotient(D[i][k], piv)
                    if q is not None:
                        addmul_row(i, k, q)
                    if D[i][k] is not None:
                        dirty = True
            for j in range(k + 1, c):
                if D[k][j] is not None:
                    q = _quotient(D[k][j], piv)
                    if q is not None:
                        addmul_col(j, k, q)
                    if D[k][j] is not None:
                        dirty = True
            check_cap()
            if dirty:
                swap(k, *find_pivot(k)[1:])
                continue
            # the first row below with an entry the pivot does not divide
            bad = next(
                (i for i in range(k + 1, r) for e in D[i][k + 1 :]
                 if e is not None and len(piv[1]) > 1 and any(_pseudo_remainder(e[1], piv[1])[0])),
                None,
            )
            if bad is None:
                break
            addmul_row(k, bad, (0, [-1], 1))
        k += 1

    return SnfResult(U, D, V)


def _entry(v: int, c: list[int], d: int):
    """The entry of snf for t^v * (c_0 + c_1 t + ...) / d, d != 0: the
    canonical (v', c', d') with the same value, c'_0 and c'_m nonzero,
    d' > 0 and gcd(d', c') = 1; None for zero."""
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    if not hi:
        return None
    lo = 0
    while not c[lo]:
        lo += 1
    if lo or hi < len(c):
        c = c[lo:hi]
    if d != 1:
        g = gcd(d, *c)
        if d < 0:
            g = -g
        if g != 1:
            c, d = [x // g for x in c], d // g
    return v + lo, c, d


def _matrix(X: list[list]) -> LambdaMatrix:
    return LambdaMatrix([[_poly(e) for e in row] for row in X])


def _poly(e) -> LaurentPoly:
    if e is None:
        return ZERO
    v, c, d = e
    return LaurentPoly((v + i, Fraction(x, d)) for i, x in enumerate(c) if x)


def _sub_mul(a, q, b):
    """The entry a - q*b, for b nonzero."""
    vq, Q, dq = q
    vb, B, db = b
    prod = [Q[0] * y for y in B] if len(Q) == 1 else list_dot([Q], [B])
    vp, dp = vq + vb, dq * db
    if a is None:
        return _entry(vp, [-x for x in prod], dp)
    va, A, da = a
    if da != dp:
        # over one lcm
        l = lcm(da, dp)
        if l != da:
            A = [x * (l // da) for x in A]
        if l != dp:
            prod = [x * (l // dp) for x in prod]
        dp = l
    lo = min(va, vp)
    out = [0] * (max(va + len(A), vp + len(prod)) - lo)
    out[va - lo : va - lo + len(A)] = A
    s = vp - lo
    out[s : s + len(prod)] = [x - y for x, y in zip(out[s : s + len(prod)], prod)]
    return _entry(lo, out, dp)


def _quotient(a, b):
    """The entry q with a - q*b of smaller ordinary degree than b."""
    va, A, da = a
    vb, B, db = b
    q, _, k = _pseudo_divide(A, B)
    return _entry(va - vb, [x * db for x in q], da * B[-1] ** k) if q else None


def kernel(M: LambdaMatrix) -> LambdaMatrix:
    """Matrix whose columns generate the kernel of M over the Laurent ring."""
    s = snf(M)
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
