"""Independent and per-term evaluations of the pairing, kept as test oracles.

The library sums pairing values over the gram's common denominator; these
follow the definitions term by term instead.
"""
from eqslice.laurent import TORSION_ZERO, ZERO, LaurentPoly, RationalFn, TorsionClass
from eqslice.matrices import SingularMatrixError, seifert_pencil


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
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
            rhs[i] = rhs[i] - f * rhs[k]
    z = [RationalFn(ZERO)] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc = acc - rows[i][j] * z[j]
        z[i] = acc / rows[i][i]
    tm1 = RationalFn(LaurentPoly({1: 1, 0: -1}))
    total = RationalFn(ZERO)
    for xi, zi in zip(x, z):
        total = total + RationalFn(xi) * zi
    return TorsionClass(tm1 * total)
