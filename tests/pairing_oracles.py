"""Independent and per-term evaluations of the pairing, kept as test oracles.

The library sums pairing values over the gram's common denominator; these
follow the definitions term by term instead.  Also kept: the symmetrised
tau-grid and the block-by-block swap check that the library replaced.
"""
from fractions import Fraction

from eqslice.laurent import ONE, TORSION_ZERO, ZERO, LaurentPoly, RationalFn, TorsionClass
from eqslice.matrices import LambdaMatrix, SingularMatrixError, in_span, seifert_pencil, snf


def pair_per_term(B, x, y):
    """sum over i, j of gram[i][j] * x_i * conj(y_j), one torsion class per term."""
    n = B.module.generators
    acc = TORSION_ZERO
    for j in range(n):
        cj = y.coeffs[j].conjugate()
        for i in range(n):
            acc = acc + B.gram[i][j].scale(x.coeffs[i] * cj)
    return acc


def vanishes_per_term(B):
    """gram * conj(r) is the zero class for every relation column r."""
    R = B.module.relations
    n = B.module.generators
    for col in range(R.cols):
        r = [R.entry(i, col).conjugate() for i in range(n)]
        for i in range(n):
            acc = TORSION_ZERO
            for j in range(n):
                acc = acc + B.gram[i][j].scale(r[j])
            if not acc.is_zero():
                return False
    return True


def quotient(a, b):
    """a / b in the fraction field, for b nonzero."""
    return RationalFn(a.num * b.den, a.den * b.num)


def pair_via_solve(A, x, y):
    """Fresh linear solve of (A - t A^T) z = conj(y), then (t - 1) * x^T z.

    Gaussian elimination over the fraction field, no adjugate and no cached
    gram.
    """
    n = len(A)
    B = -seifert_pencil(A).transpose()
    rows = [[RationalFn(e) for e in B.row(i)] for i in range(n)]
    rhs = [RationalFn(c.conjugate()) for c in y]
    for k in range(n):
        piv = next((i for i in range(k, n) if not rows[i][k].is_zero()), None)
        if piv is None:
            raise SingularMatrixError("singular system")
        rows[k], rows[piv] = rows[piv], rows[k]
        rhs[k], rhs[piv] = rhs[piv], rhs[k]
        for i in range(k + 1, n):
            if rows[i][k].is_zero():
                continue
            f = quotient(rows[i][k], rows[k][k])
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
            rhs[i] = rhs[i] - f * rhs[k]
    z = [RationalFn(ZERO)] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc = acc - rows[i][j] * z[j]
        z[i] = quotient(acc, rows[i][i])
    tm1 = RationalFn(LaurentPoly({1: 1, 0: -1}))
    total = RationalFn(ZERO)
    for xi, zi in zip(x, z):
        total = total + RationalFn(xi) * zi
    return TorsionClass(tm1 * total)


def symmetrised_grid(B, xs, ys):
    """(pair(x_k, y_l) + pair(x_l, y_k))/2, per term, for equally long xs, ys.

    With ys the involution images of xs, this is the grid tau_quadratic
    averaged before it required pair(x_k, y_l) itself to be symmetric.
    """
    return [
        [
            (pair_per_term(B, xs[k], ys[l]) + pair_per_term(B, xs[l], ys[k])).scale(Fraction(1, 2))
            for l in range(len(ys))
        ]
        for k in range(len(xs))
    ]


def swap_by_block_smith_forms(M):
    """The swap matrix on a two-block sum, checked block by block.

    Each block's conjugated relation columns must lie in the other block's
    span, tested against a Smith form of each block.  Raises ValueError with
    the library's messages.
    """
    n = M.generators
    if n % 2:
        raise ValueError("module is not an even-split direct sum")
    h = n // 2
    R = M.relations
    split = None
    for m1 in range(R.cols + 1):
        top_right_zero = all(R.entry(i, j).is_zero() for i in range(h) for j in range(m1, R.cols))
        bottom_left_zero = all(R.entry(i, j).is_zero() for i in range(h, n) for j in range(m1))
        if top_right_zero and bottom_left_zero:
            split = m1
            break
    if split is None:
        raise ValueError("relation matrix is not a two-block sum")
    R1 = LambdaMatrix([[R.entry(i, j) for j in range(split)] for i in range(h)])
    R2 = LambdaMatrix([[R.entry(i, j) for j in range(split, R.cols)] for i in range(h, n)])
    for block, other in ((R1, R2), (R2, R1)):
        s = snf(other)
        for col in range(block.cols):
            c = [block.entry(i, col).conjugate() for i in range(h)]
            if in_span(c, other, s) is None:
                raise ValueError("blocks are not conjugate presentations; swap is not well defined")
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(h):
        entries[i][h + i] = ONE
        entries[h + i][i] = ONE
    return LambdaMatrix(entries)
