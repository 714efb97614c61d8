"""The generic fraction-free elimination and the definiteness loop that
eqslice.matrices._steps replaced, kept as differential oracles.

This is not a test file.  oracle_eliminate runs over any integral domain
given its zero, one, exact division and an entry size, and pivots on an
entry of least size in the remaining block, swapping rows and columns;
over LaurentPoly it is the ring-level determinant that `det` now
interpolates from integers.  oracle_definiteness is the Bareiss loop that
_definiteness ran on its own, with no pivoting.
"""
from operator import floordiv

from eqslice.laurent import ONE, ZERO, divexact


def oracle_eliminate(rows, zero, one, divide, size, adjugate=False):
    """(det, adj) by fraction-free elimination with full pivoting; adj is
    None unless asked for, and also None when det is zero.  The right
    block of [M | I] ends as +-adj(M) with its rows permuted as the
    columns were, which is undone."""
    n = len(rows)
    a = [list(r) + ([one if i == j else zero for j in range(n)] if adjugate else []) for i, r in enumerate(rows)]
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


def oracle_integer_eliminate(rows, adjugate=False):
    return oracle_eliminate(rows, 0, 1, floordiv, abs, adjugate)


def oracle_det(M):
    """det of a LambdaMatrix by elimination over the Laurent ring itself,
    pivoting on the entry of least span, then fewest terms."""
    return oracle_eliminate(M.to_lists(), ZERO, ONE, divexact, lambda e: (e.span(), len(e.items())))[0]


def oracle_definiteness(Q):
    """(sign, leading principal minors) when the integer symmetric Q is
    definite, else None, by Bareiss in order with no pivoting."""
    n = len(Q)
    if n == 0:
        return None
    A = [list(row) for row in Q]
    sign, prev = 0, 1
    minors = []
    for k in range(n):
        piv = A[k][k]
        if piv == 0:
            return None
        s = 1 if (piv > 0) == (prev > 0) else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return None
        minors.append(piv)
        row_k = A[k]
        for i in range(k + 1, n):
            row, f = A[i], A[i][k]
            for j in range(k + 1, n):
                row[j] = (piv * row[j] - f * row_k[j]) // prev
        prev = piv
    return sign, minors
