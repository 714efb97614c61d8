"""Differential tests of the one integer elimination, matrices._steps, and
of what reads it: _eliminate's determinant and adjugate, det interpolated
from integers, and obstruction._definiteness, each against the generic
ring elimination or the definiteness loop it replaced."""
import random
from fractions import Fraction

import pytest

from eqslice import obstruction
from eqslice.laurent import LaurentPoly
from eqslice.matrices import (
    DEFAULT_DEGREE_CAP,
    DegreeCapError,
    LambdaMatrix,
    _eliminate,
    _steps,
    block_diag,
    det,
    seifert_form_det,
)
from eqslice.obstruction import _definiteness
from cases import dense_seifert
from elimination_oracle import oracle_definiteness, oracle_det, oracle_integer_eliminate


def square(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def integer_draws():
    """(label, rows): dense, block-diagonal, a zero diagonal entry that
    forces a row swap, singular with a zero column, and 0 x 0."""
    rng = random.Random(30)
    yield "empty", []
    for n in range(1, 8):
        for _ in range(6):
            yield f"dense {n}", square(rng, n)
    for _ in range(10):
        blocks = [square(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
        yield "block diagonal", [list(r) for r in block_diag(blocks, 0)]
    for n in range(2, 7):
        for _ in range(4):
            A = square(rng, n)
            k = rng.randrange(n - 1)
            A[k][k] = 0
            if not any(A[i][k] for i in range(k + 1, n)):
                A[n - 1][k] = 1
            yield "zero diagonal", A
    for n in range(1, 6):
        for _ in range(3):
            A = square(rng, n)
            j = rng.randrange(n)
            for row in A:
                row[j] = 0
            yield "zero column", A
    for g in (2, 3, 4):
        A = dense_seifert(g, rng)
        yield "dense Seifert", A
        yield "dense Seifert form", [[A[i][j] - A[j][i] for j in range(2 * g)] for i in range(2 * g)]


class TestEliminate:
    def test_det_and_adjugate_match_the_ring_elimination(self):
        draws = list(integer_draws())
        labels = {label.split()[0] for label, _ in draws}
        assert {"empty", "dense", "block", "zero"} <= labels
        swapped = [label for label, rows in draws if any(s for _, s in _steps([list(r) for r in rows]))]
        assert swapped.count("zero diagonal") >= 10
        for label, rows in draws:
            assert _eliminate(rows, adjugate=True) == oracle_integer_eliminate(rows, adjugate=True), (label, rows)
            assert _eliminate(rows) == oracle_integer_eliminate(rows), (label, rows)

    def test_edge_cases(self):
        assert _eliminate([], adjugate=True) == (1, [])
        assert _eliminate([[0, 1], [1, 0]], adjugate=True) == (-1, [[0, -1], [-1, 0]])
        assert _eliminate([[0, 0], [1, 2]], adjugate=True) == (0, None)
        assert _eliminate([[2, 0], [3, 0]]) == (0, None)

    def test_the_input_is_not_changed(self):
        rows = [[0, 2, 1], [3, 1, 0], [1, 1, 1]]
        copy = [list(r) for r in rows]
        _eliminate(rows, adjugate=True)
        assert rows == copy

    def test_seifert_form_det(self):
        rng = random.Random(31)
        for g in range(1, 6):
            A = dense_seifert(g, rng)
            rows = [[A[i][j] - A[j][i] for j in range(2 * g)] for i in range(2 * g)]
            assert seifert_form_det(A) == oracle_integer_eliminate(rows)[0] == 1


def laurent_draw(rng, n, zero_chance=0.2):
    """An n x n Laurent matrix: rational coefficients, exponents -2 .. 2."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < zero_chance:
                row.append(LaurentPoly())
                continue
            lo = rng.randint(-2, 1)
            row.append(LaurentPoly({k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in range(lo, lo + rng.randint(0, 2) + 1)}))
        rows.append(row)
    return LambdaMatrix(rows)


class TestLaurentDet:
    def test_det_matches_the_ring_elimination(self):
        rng = random.Random(32)
        nonzero = 0
        for n in range(0, 5):
            for _ in range(12):
                M = laurent_draw(rng, n)
                d = det(M)
                assert d == oracle_det(M), M
                nonzero += not d.is_zero()
        assert nonzero >= 40

    def test_singular_matrices_give_zero(self):
        t = LaurentPoly({1: 1})
        half = LaurentPoly({-1: Fraction(1, 2)})
        rows = [[t, half], [t * t, t * half]]
        assert oracle_det(LambdaMatrix(rows)).is_zero()
        assert det(LambdaMatrix(rows)).is_zero()
        assert det(LambdaMatrix([[t, half], [LaurentPoly(), LaurentPoly()]])).is_zero()

    def test_degree_cap_bounds_the_sum_of_row_degrees(self):
        # Each entry of [[t^600, 1], [1, 1]] spans one exponent, but row 0
        # has degree 600 once cleared, and its determinant is t^600 - 1.
        one = LaurentPoly({0: 1})
        with pytest.raises(DegreeCapError):
            det(LambdaMatrix([[LaurentPoly({600: 1}), one], [one, one]]))
        # D = DEFAULT_DEGREE_CAP is allowed, one more is not
        at_cap = LambdaMatrix([[LaurentPoly({DEFAULT_DEGREE_CAP: 1}), one], [one, one]])
        assert det(at_cap) == LaurentPoly({DEFAULT_DEGREE_CAP: 1, 0: -1})
        with pytest.raises(DegreeCapError):
            det(LambdaMatrix([[LaurentPoly({DEFAULT_DEGREE_CAP + 1: 1}), one], [one, one]]))
        # the degree of a row is counted from its lowest exponent
        low = LaurentPoly({-DEFAULT_DEGREE_CAP: 1})
        with pytest.raises(DegreeCapError):
            det(LambdaMatrix([[low, LaurentPoly({1: 1})], [one, one]]))


def symmetric(rng, n, lo=-4, hi=4):
    Q = square(rng, n, lo, hi)
    return [[Q[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def definiteness_draws():
    """(label, Q): definite, negative definite, indefinite, singular and
    zero-leading integer symmetric forms."""
    rng = random.Random(33)
    for n in range(1, 9):
        for _ in range(5):
            X = square(rng, n, -3, 3)
            # X^T X + I is positive definite
            Q = [[sum(X[k][i] * X[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
            yield "definite", Q
            yield "negative definite", [[-e for e in row] for row in Q]
            if n > 1:
                # Q's leading block plus minus its trailing one, rows and
                # columns shuffled alike
                k = rng.randint(1, n - 1)
                B = block_diag([[row[:k] for row in Q[:k]], [[-e for e in row[k:]] for row in Q[k:]]], 0)
                perm = rng.sample(range(n), n)
                yield "indefinite", [[B[i][j] for j in perm] for i in perm]
            Y = X[: n - 1] if n > 1 else [[0]]
            yield "singular", [[sum(Y[k][i] * Y[k][j] for k in range(len(Y))) for j in range(n)] for i in range(n)]
            Z = symmetric(rng, n)
            Z[0][0] = 0
            yield "zero-leading", Z
            yield "random", symmetric(rng, n)


def leading_minors(Q):
    return [oracle_integer_eliminate([row[:k] for row in Q[:k]])[0] for k in range(1, len(Q) + 1)]


def expected_steps(Q):
    """The steps _definiteness reads: through the first vanishing minor or
    sign change of D_k / D_(k-1), else all of them."""
    prev, sign = 1, 0
    for k, D in enumerate(leading_minors(Q), 1):
        if not D:
            return k
        s = 1 if (D > 0) == (prev > 0) else -1
        if sign and s != sign:
            return k
        sign, prev = s, D
    return len(Q)


class TestDefiniteness:
    def test_matches_the_loop_it_replaced(self):
        draws = list(definiteness_draws())
        for label, Q in draws:
            assert _definiteness(Q) == oracle_definiteness(Q), (label, Q)
        verdicts = {label: set() for label, _ in draws}
        for label, Q in draws:
            d = _definiteness(Q)
            verdicts[label].add(None if d is None else d[0])
        assert verdicts["definite"] == {1} and verdicts["negative definite"] == {-1}
        assert verdicts["singular"] == verdicts["zero-leading"] == {None}
        assert verdicts["indefinite"] == {None}

    def test_stops_at_the_first_bad_minor(self, monkeypatch):
        taken = []

        def counted(a, adjugate=False):
            for step in steps(a, adjugate):
                taken.append(step)
                yield step

        steps = obstruction._steps
        monkeypatch.setattr(obstruction, "_steps", counted)
        for label, Q in definiteness_draws():
            taken.clear()
            _definiteness(Q)
            assert len(taken) == expected_steps(Q), (label, Q)
        # a negative first minor, then a positive second one: two steps of 8
        Q = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
        Q[0][0] = -1
        taken.clear()
        assert _definiteness(Q) is None and len(taken) == 2

    def test_the_form_is_not_changed(self):
        Q = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        copy = [list(r) for r in Q]
        assert _definiteness(Q) == (1, [2, 5, 18])
        assert Q == copy
