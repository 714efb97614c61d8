"""Exact matrices over the Laurent ring: determinants, inverses, Smith
normal form with unimodular transforms, kernels, and span membership.

Determinants and adjugates come from one fraction-free (Bareiss)
elimination over the integers, _steps, which divides exactly by the
previous pivot and only swaps rows; obstruction._definiteness reads the
same steps.  A Laurent matrix is cleared of denominators and negative
exponents, sampled at integer points and eliminated there, and `det` and
`inverse_qt` interpolate its determinant and adjugate from the integer
values: polynomially many integer operations.  The pairing inverts
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
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .laurent import (
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


def _steps(a: list[list[int]], adjugate: bool = False):
    """Fraction-free (Bareiss) elimination of the n integer rows a of an
    n x n matrix M, in place, one step at a time.

    Step k takes a[k][k] as pivot when it is nonzero, else swaps in the
    first row below with a nonzero entry in column k; only rows move.  It
    yields (pivot, swapped) before clearing column k, so a caller may stop
    there, and a zero pivot (column k is zero from row k down) ends it.
    After step k every entry is, up to sign, a minor of order k + 1 of a,
    so each division by the previous pivot is exact.  With adjugate, a is
    [M | I] and the rows above the pivot are cleared too (Gauss-Jordan).
    """
    n = len(a)
    width = len(a[0]) if a else 0
    prev = 1
    for k in range(n):
        p = k
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                yield 0, False
                return
            a[k], a[p] = a[p], a[k]
        rk = a[k]
        piv = rk[k]
        yield piv, p != k
        # Columns up to k need no update: they end as piv * (unit vector).
        for ri in a[:k] + a[k + 1 :] if adjugate else a[k + 1 :]:
            f = ri[k]
            if f:
                for j in range(k + 1, width):
                    ri[j] = (piv * ri[j] - f * rk[j]) // prev
            else:
                for j in range(k + 1, width):
                    if ri[j]:
                        ri[j] = piv * ri[j] // prev
        prev = piv


def _eliminate(rows: Sequence[Sequence[int]], adjugate: bool = False) -> tuple[int, list[list[int]] | None]:
    """(det, adj) of a square integer matrix by _steps, adj None unless
    asked for, and also None when det is zero.

    With the adjugate the steps run on [M | I]; the left block ends as
    d * I, d the last pivot, and the right block as d * M^-1, which is
    adj(M) when an even number of rows were swapped and -adj(M) otherwise.
    """
    n = len(rows)
    a = [list(r) + ([int(i == j) for j in range(n)] if adjugate else []) for i, r in enumerate(rows)]
    piv, negate = 1, False
    for piv, swapped in _steps(a, adjugate):
        negate ^= swapped
    if not piv:
        return 0, None
    sign = -1 if negate else 1
    return sign * piv, [[sign * e for e in r[n:]] for r in a] if adjugate else None


def seifert_form_det(A: Sequence[Sequence[int]]) -> int:
    """det(A - A^T) for a square integer matrix A."""
    n = len(A)
    return _eliminate([[A[i][j] - A[j][i] for j in range(n)] for i in range(n)])[0]


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


def _samples(M: LambdaMatrix, adjugate: bool):
    """(scales, xs, dets, adjs): det P(x), and adj P(x) when asked for,
    by one _eliminate at each of D + 1 integers x with det P(x) != 0.

    P = S*M scales row i by s_i = L_i * t^(-v_i), scales[i] = (L_i, v_i),
    v_i its lowest exponent and L_i the lcm of its coefficient
    denominators.  So P is an integer polynomial matrix whose determinant
    and adjugate have degree at most D, the sum of its row degrees.
    Raises SingularMatrixError for a zero row or det P = 0, and
    DegreeCapError when D exceeds DEFAULT_DEGREE_CAP.
    """
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
        raise DegreeCapError(f"degree could reach {D}, cap {DEFAULT_DEGREE_CAP}")
    # A nonzero det P has at most D integer roots, so 2D + 1 samples
    # 0, 1, -1, 2, -2, ... hold D + 1 non-roots unless det P = 0.
    xs, dets, adjs = [], [], []
    for k in range(2 * D + 1):
        x = (k + 1) // 2 if k % 2 else -(k // 2)
        d, adj = _eliminate([[_horner(e, x) for e in row] for row in P], adjugate)
        if d:
            xs.append(x)
            dets.append(d)
            adjs.append(adj)
            if len(xs) == D + 1:
                return scales, xs, dets, adjs
    raise SingularMatrixError("matrix is singular")


def det(M: LambdaMatrix) -> LaurentPoly:
    """Exact determinant, interpolated from integers as in inverse_qt.

    With P = S*M the denominator-cleared matrix of _samples, det M is
    t^(v_1 + ... + v_n) * det P / (L_1 * ... * L_n), and det P is
    interpolated from its values at D + 1 integers.  A zero row or
    det P = 0 gives zero; DegreeCapError is raised when D, the sum of P's
    row degrees, exceeds DEFAULT_DEGREE_CAP.
    """
    if not M.is_square():
        raise ValueError("determinant of a non-square matrix")
    try:
        scales, xs, dets, _ = _samples(M, adjugate=False)
    except SingularMatrixError:
        return ZERO
    v = sum(v for _, v in scales)
    L = prod(L for L, _ in scales)
    return LaurentPoly((v + k, Fraction(c, L)) for k, c in enumerate(_interpolate(xs, dets)) if c)


def inverse_qt(M: LambdaMatrix) -> tuple[list[int], list[list[list[int]]]]:
    """(den, F) with M^-1 = F / den, interpolated from integers.

    With P = S*M and the samples of _samples, det P and adj P are
    interpolated from their values, and M^-1 = adj(P) * S / det(P).  With
    V = max(0, v_i), that is F = adj(P) * t^V * S over den = t^V * det(P):
    den and each entry of F are integer coefficient lists, lowest first, as
    in modules._RationalModel.inverse_pencil.
    """
    if not M.is_square():
        raise ValueError("inverse of a non-square matrix")
    scales, xs, dets, adjs = _samples(M, adjugate=True)
    V = max([0] + [v for _, v in scales])
    F = []
    for i in range(M.rows):
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
