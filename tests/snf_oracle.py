"""The Smith normal form over LaurentPoly entries, as the differential
oracle for eqslice.matrices.snf, which makes the same decisions on integer
coefficient lists.

This is not a test file.  oracle_snf is the ring-level elimination: every
entry a LaurentPoly, every update a ring operation, each quotient by
laurent_quo and each divisibility test by the Fraction divides of
laurent_oracle.
"""
from eqslice.laurent import ONE, LaurentPoly, integer_lists
from eqslice.matrices import DEFAULT_DEGREE_CAP, DegreeCapError, LambdaMatrix, SnfResult, _entry
from cases import identity
from laurent_oracle import oracle_divides, poly_divmod


def laurent_quo(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Quotient q such that a - q*b has smaller ordinary degree than b."""
    if b.is_unit():
        (k, c), = b.items()
        return a._termmul(-k, 1 / c)
    va, vb = a.valuation(), b.valuation()
    q, _ = poly_divmod(a.shift(-va), b.shift(-vb))
    return q.shift(va - vb)


def oracle_snf(M: LambdaMatrix) -> SnfResult:
    """Smith normal form over the Laurent ring.

    Pivots are chosen with minimal ordinary degree, ties broken by lowest
    row then column index, so the output is deterministic.  Diagonal entries
    are monic ordinary polynomials in a divisibility chain; the non-unit
    ones are the invariant factors.
    """
    r, c = M.rows, M.cols
    D = M.to_lists()
    U = identity(r).to_lists()
    V = identity(c).to_lists()

    def check_cap():
        for row in D:
            for e in row:
                if not e.is_zero() and e.span() > DEFAULT_DEGREE_CAP:
                    raise DegreeCapError(
                        f"intermediate degree {e.span()} exceeds cap {DEFAULT_DEGREE_CAP}"
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
                    if not D[i][j].is_zero() and not oracle_divides(piv, D[i][j]):
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is not None:
                addmul_row(k, bad, -ONE)
                continue
            break
        k += 1

    return SnfResult(*(entries(X) for X in (U, D, V)))


def entries(X):
    """The grid of snf's canonical integer entries of LaurentPoly rows X,
    the form SnfResult holds: the oracle's result is compared entry by
    entry and read, integer column by column, like the library's."""
    out = []
    for row in X:
        cleared = []
        for e in row:
            (c,), m, v = integer_lists([e])
            cleared.append(_entry(v, c, m))
        out.append(cleared)
    return out
