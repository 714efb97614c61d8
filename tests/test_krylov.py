"""The integer Krylov layer of modules, against Fraction arithmetic.

_combine and _reduce are the integer arithmetic of the rational model of a
Seifert module.  Each is checked here on its own: every result is an
integer vector that stands for its Q-span, so it must equal the exact
Fraction answer up to a positive factor.
"""
import random
from fractions import Fraction

import pytest

from eqslice.laurent import LaurentPoly
from eqslice.modules import _combine, _reduce, from_seifert

from cases import dense_seifert


def positive_multiple(x, y):
    """Whether the integer vector x is a positive multiple of the vector y."""
    i = next((i for i, e in enumerate(y) if e), None)
    if i is None:
        return not any(x)
    ratio = Fraction(x[i]) / y[i]
    return ratio > 0 and all(a == ratio * b for a, b in zip(x, y))


def random_poly(rng, low, high):
    return LaurentPoly(
        {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in range(low, high + 1)}
    )


class TestReduce:
    def test_trailing_entries_are_never_pivots(self):
        # the head vanishes, so the entries from width on must not be
        # reduced against the basis vector pivoted at 2
        basis = {2: [0, 0, 1, 0]}
        assert _reduce(basis, [0, 0, 3, 1], 2) == ([0, 0, 3, 1], None)
        assert _reduce({}, [0, 0, 3, 1], 2) == ([0, 0, 3, 1], None)

    def test_trailing_entries_ride_along(self):
        basis = {0: [1, 2, 1, 0]}
        assert _reduce(basis, [2, 4, 0, 1], 2) == ([0, 0, -2, 1], None)
        assert _reduce(basis, [2, 5, 0, 1], 2) == ([0, 1, -2, 1], 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_trailing_entries_record_the_combination(self, seed):
        # each vector carries the unit vector of its index, so after the
        # reduction the trailing entries c satisfy head = sum_k c_k * vectors[k]
        rng = random.Random(seed)
        width, count = 4, 6
        vectors = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(count)]
        basis = {}
        for k, w in enumerate(vectors):
            v, p = _reduce(basis, w + [int(i == k) for i in range(count)], width)
            combo = v[width:]
            assert any(combo)
            assert v[:width] == [sum(c * u[i] for c, u in zip(combo, vectors)) for i in range(width)]
            if p is None:
                assert not any(v[:width])
            else:
                assert v[p] and not any(v[:p]) and p not in basis
                basis[p] = v
        assert len(basis) <= width


def fraction_inverse(M):
    n = len(M)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def mat_mul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


@pytest.mark.parametrize("seed", range(6))
def test_combine_over_the_model(seed):
    # sum_k C^(k - m) v_k with C = A^T A^-1, m the least exponent
    rng = random.Random(seed)
    A = dense_seifert(rng.choice([1, 2]), rng)
    model = from_seifert(A).model
    if model is None:
        pytest.skip("singular draw")
    n = len(A)
    C = mat_mul([list(col) for col in zip(*A)], fraction_inverse(A))
    coeffs = [random_poly(rng, rng.randint(-3, 0), rng.randint(0, 2)) for _ in range(n)]
    m = min(c.valuation() for c in coeffs if not c.is_zero())
    expected = [Fraction(0)] * n
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]  # C^(k - m)
    for k in range(m, max(c.degree() for c in coeffs) + 1):
        v = [c.coefficient(k) for c in coeffs]
        expected = [e + sum(a * b for a, b in zip(row, v)) for e, row in zip(expected, power)]
        power = mat_mul(C, power)
    assert any(expected)
    (out,), _, _ = _combine(model, [coeffs])
    assert positive_multiple(out, expected)


@pytest.mark.parametrize("seed", range(4))
def test_combine_batch_over_vectors(seed):
    # out[k] = c * C^-v * sum_j columns[k][j](C) * vectors[j] exactly, with
    # one c > 0 and one v, the least exponent, for every column
    rng = random.Random(100 + seed)
    model = None
    while model is None:
        A = dense_seifert(rng.choice([1, 2]), rng)
        model = from_seifert(A).model
    n = len(A)
    C = mat_mul([list(col) for col in zip(*A)], fraction_inverse(A))
    vectors = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 1)]
    columns = [
        [random_poly(rng, rng.randint(-3, 1), rng.randint(1, 3)) if rng.random() < 0.7 else LaurentPoly() for _ in vectors]
        for _ in range(3)
    ]
    for given in (vectors, None):
        width = len(given) if given else n
        cols = [column[:width] for column in columns]
        out, c, v = _combine(model, cols, given)
        assert c > 0 and v == min(e.valuation() for column in cols for e in column if not e.is_zero())
        for column, got in zip(cols, out):
            expected = [Fraction(0)] * n
            for j, e in enumerate(column):
                u = given[j] if given else [int(i == j) for i in range(n)]
                for k, a in e.items():
                    # a * C^(k - v) * u
                    w = [Fraction(x) for x in u]
                    for _ in range(k - v):
                        w = [sum(x * y for x, y in zip(row, w)) for row in C]
                    expected = [x + a * y for x, y in zip(expected, w)]
            assert got == [c * x for x in expected]
