"""The integer Krylov layer of modules, against Fraction arithmetic.

_combine and _reduce are shared by the rational model of a Seifert module
and by check_nonsingular's quotient (Lambda/den)^k.  Each is checked here
on its own: every result is an integer vector that stands for its Q-span,
so it must equal the exact Fraction answer up to a positive factor.
"""
import random
from fractions import Fraction

import pytest

from eqslice.laurent import ZERO, LaurentPoly, _reduce_mod, parse_poly
from eqslice.modules import _combine, _Quotient, _reduce, from_seifert

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
    assert positive_multiple(_combine(model, model.units, coeffs), expected)


@pytest.mark.parametrize("seed", range(6))
def test_combine_over_the_quotient(seed):
    # sum_j r_j * vectors[j] mod den, times t^-v for v the least exponent in
    # r; den has scale 2, so the Horner must carry it
    rng = random.Random(seed)
    den = parse_poly("t^2 - 5/2*t + 1") * parse_poly("t + 3")
    space = _Quotient(den)
    assert space.scale == 2
    k = 3
    vectors = [[random_poly(rng, -1, 3) for _ in range(2)] for _ in range(k)]
    r = [random_poly(rng, rng.randint(-3, 0), rng.randint(0, 3)) for _ in range(k)]
    shift = LaurentPoly({-min(e.valuation() for e in r if not e.is_zero()): 1})
    total = [sum((shift * r[j] * vectors[j][i] for j in range(k)), ZERO) for i in range(2)]
    expected = [_reduce_mod(e, den).coefficient(d) for e in total for d in range(space.D)]
    assert positive_multiple(_combine(space, space.coordinates(vectors), r), expected)


@pytest.mark.parametrize("seed", range(4))
def test_coordinates_read_reduced_and_unreduced_entries_alike(seed):
    # entries already ordinary of degree below D are read as they stand;
    # adding a multiple of den, or a unit shift, sends them through the
    # reduction, and the coordinates must not change
    rng = random.Random(seed)
    den = parse_poly("t^2 - 5/2*t + 1") * parse_poly("t + 3")
    space = _Quotient(den)
    reduced = [[random_poly(rng, 0, space.D - 1) for _ in range(3)] for _ in range(4)]
    reduced[0][0] = ZERO
    unreduced = [
        [e + den * random_poly(rng, -2, 2) for e in reduced[0]],
        [e + den for e in reduced[1]],
        [_reduce_mod(e, den) for e in reduced[2]],
        [LaurentPoly({-1: 1}) * _reduce_mod(e * LaurentPoly({1: 1}), den) for e in reduced[3]],
    ]
    assert all(e.is_zero() or 0 <= e.valuation() <= e.degree() < space.D for row in reduced for e in row)
    assert any(e.valuation() < 0 or e.degree() >= space.D for row in unreduced for e in row if not e.is_zero())
    assert space.coordinates(unreduced) == space.coordinates(reduced)
