import random

import pytest

from eqslice.laurent import ONE, ZERO, LaurentPoly, parse_poly, unit_equal
from eqslice.matrices import (
    DegreeCapError,
    LambdaMatrix,
    SingularMatrixError,
    _product,
    det,
    in_span,
    inverse_qt,
    kernel,
    mat_vec,
    seifert_pencil,
    snf,
)
from eqslice.modules import from_seifert
from cases import dense_seifert, identity
from test_exact_linear_algebra import as_polys, assert_inverse


def P(s):
    return parse_poly(s)


def rand_matrix(rng, max_dim=5, max_deg=3):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    entries = []
    for _ in range(r):
        row = []
        for _ in range(c):
            if rng.random() < 0.25:
                row.append(ZERO)
            else:
                lo = rng.randint(-1, 0)
                row.append(
                    LaurentPoly(
                        {k: rng.randint(-3, 3) for k in range(lo, lo + rng.randint(0, max_deg) + 1)}
                    )
                )
        entries.append(row)
    return LambdaMatrix(entries)


class TestDet:
    def test_nine46_relation_determinant(self):
        M = seifert_pencil([[0, 2], [1, 0]])
        # 2x2 cofactor by hand: -(2t-1)(t-2)
        assert det(M) == -(P("2*t - 1") * P("t - 2"))

    def test_identity(self):
        assert det(identity(3)) == ONE

    def test_genus_one_closed_form(self):
        m, l = 1, 1
        M = seifert_pencil([[0, m + 1], [m, l]])
        expected = P("t - 2") * P("2*t - 1")
        assert unit_equal(det(M), expected)

    def test_multiplicative(self):
        rng = random.Random(10)
        for _ in range(25):
            n = rng.randint(1, 3)
            A = rand_matrix(rng, max_dim=n, max_deg=2)
            while not A.is_square() or A.rows != n:
                A = rand_matrix(rng, max_dim=n, max_deg=2)
            B = rand_matrix(rng, max_dim=n, max_deg=2)
            while not B.is_square() or B.rows != n:
                B = rand_matrix(rng, max_dim=n, max_deg=2)
            assert det(A * B) == det(A) * det(B)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(LambdaMatrix.zeros(2, 3))


class TestInverse:
    def test_genus_one_inverse_matches_closed_form(self):
        # (A - t A^T)^{-1} = (-1/det) [[l(1-t), mt-(m+1)], [(m+1)t-m, 0]]
        m, l = 1, 1
        A = [[0, m + 1], [m, l]]
        B = LambdaMatrix(
            [
                [LaurentPoly({0: A[i][j], 1: -A[j][i]}) for j in range(2)]
                for i in range(2)
            ]
        )
        den, F = as_polys(inverse_qt(B))
        delta = P("t - 2") * P("2*t - 1")
        adj = [
            [LaurentPoly({0: l, 1: -l}), P("t - 2")],
            [P("2*t - 1"), ZERO],
        ]
        for i in range(2):
            for j in range(2):
                assert F.entry(i, j) * delta == -adj[i][j] * den

    def test_identity_inverse(self):
        den, F = as_polys(inverse_qt(identity(2)))
        assert den == ONE and F == identity(2)

    def test_product_is_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            M = rand_matrix(rng, max_dim=n, max_deg=2)
            while not (M.is_square() and M.rows == n) or det(M).is_zero():
                M = rand_matrix(rng, max_dim=n, max_deg=2)
            assert_inverse(M, inverse_qt(M))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse_qt(LambdaMatrix([[ONE, ONE], [ONE, ONE]]))


class TestSnf:
    def assert_snf_contract(self, M, s):
        assert s.U * M * s.V == s.D
        assert det(s.U).is_unit()
        assert det(s.V).is_unit()
        diag = s.diagonal
        for i in range(len(diag)):
            for j in range(M.cols):
                if i != j and j < M.cols and i < M.rows:
                    assert s.D.entry(i, j).is_zero() or i == j
        from eqslice.laurent import divides

        for a, b in zip(diag, diag[1:]):
            if not a.is_zero():
                assert divides(a, b)
            else:
                assert b.is_zero()
        for d in diag:
            if not d.is_zero():
                assert d == d.monic_ordinary()

    def test_already_diagonal(self):
        f = P("t - 2") * P("2*t - 1")
        M = LambdaMatrix([[ONE, ZERO], [ZERO, f]])
        s = snf(M)
        self.assert_snf_contract(M, s)
        assert s.invariant_factors == (f.monic_ordinary(),)

    def test_nine46_invariant_factor(self):
        M = seifert_pencil([[0, 2], [1, 0]])
        s = snf(M)
        self.assert_snf_contract(M, s)
        assert len(s.invariant_factors) == 1
        assert unit_equal(s.invariant_factors[0], P("t - 2") * P("2*t - 1"))

    def test_zero_matrix(self):
        M = LambdaMatrix.zeros(2, 3)
        s = snf(M)
        assert s.rank == 0
        assert s.invariant_factors == ()
        assert s.D.is_zero()

    def test_random_contract(self):
        rng = random.Random(12)
        for _ in range(60):
            M = rand_matrix(rng)
            s = snf(M)
            self.assert_snf_contract(M, s)

    def test_deterministic(self):
        rng = random.Random(13)
        M = rand_matrix(rng)
        s1, s2 = snf(M), snf(M)
        assert s1.D == s2.D and s1.U == s2.U and s1.V == s2.V

    def test_degree_cap(self):
        M = LambdaMatrix([[P("t^600") + ONE]])
        with pytest.raises(DegreeCapError):
            snf(M)


class TestKernel:
    def test_equal_columns(self):
        M = LambdaMatrix([[P("t - 2"), P("t - 2")]])
        K = kernel(M)
        assert K.cols == 1
        assert all(e.is_zero() for e in mat_vec(M, K.col(0)))

    def test_identity_kernel_trivial(self):
        assert kernel(identity(3)).cols == 0

    def test_random_kernels_annihilate(self):
        rng = random.Random(14)
        for _ in range(40):
            M = rand_matrix(rng)
            K = kernel(M)
            for j in range(K.cols):
                assert all(e.is_zero() for e in mat_vec(M, K.col(j)))
            # combinations of kernel columns stay in the kernel
            if K.cols:
                combo = [ZERO] * M.cols
                for j in range(K.cols):
                    q = LaurentPoly({rng.randint(-1, 1): rng.randint(-2, 2)})
                    combo = [a + q * b for a, b in zip(combo, K.col(j))]
                assert all(e.is_zero() for e in mat_vec(M, combo))


class TestInSpan:
    def test_first_column(self):
        M = seifert_pencil([[0, 2], [1, 0]])
        w = in_span(M.col(0), M)
        assert w is not None
        assert mat_vec(M, w) == M.col(0)

    def test_divisibility_obstruction(self):
        f = P("t - 2") * P("2*t - 1")
        M = LambdaMatrix([[f]])
        assert in_span([P("t - 2")], M) is None

    def test_zero_vector(self):
        M = seifert_pencil([[0, 2], [1, 0]])
        w = in_span([ZERO, ZERO], M)
        assert w is not None
        assert all(e.is_zero() for e in mat_vec(M, w))

    def test_consistency_with_snf_solve(self):
        rng = random.Random(15)
        for _ in range(40):
            M = rand_matrix(rng)
            coeffs = [LaurentPoly({rng.randint(-1, 1): rng.randint(-2, 2)}) for _ in range(M.cols)]
            v = mat_vec(M, coeffs)
            w = in_span(v, M)
            assert w is not None
            assert mat_vec(M, w) == v


def naive_product(X, Y, width):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(width)] for i in range(len(X))]


class TestProduct:
    def test_seeded_against_triple_loop(self):
        # zero entries, zero rows and zero columns, rectangular shapes and
        # entries past 64 bits
        rng = random.Random(90)
        for _ in range(200):
            r, m, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            density = rng.choice([0.0, 0.3, 0.7, 1.0])
            X, Y = (
                [[rng.randint(-2**70, 2**70) if rng.random() < density else 0 for _ in range(w)] for _ in range(h)]
                for h, w in ((r, m), (m, c))
            )
            X[rng.randrange(r)] = [0] * m
            for row in Y:
                row[rng.randrange(c)] = 0
            assert _product(X, Y) == naive_product(X, Y, c)

    @pytest.mark.parametrize("n", [2, 5, 8, 9])
    def test_rows_at_the_density_switch(self, n):
        # a row with more than n/2 nonzero entries takes dot products with
        # Y's columns, any other the zero-skipping row combination: rows with
        # n/2 - 1, n/2 and n/2 + 1 nonzero entries, past 64 bits, on both sides
        rng = random.Random(n)
        Y = [[rng.randint(-2**80, 2**80) for _ in range(n + 1)] for _ in range(n)]
        X = []
        for count in (n // 2 - 1, n // 2, n // 2 + 1):
            for _ in range(3):
                row = [0] * n
                for j in rng.sample(range(n), count):
                    row[j] = rng.choice([-1, 1]) * rng.randint(1, 2**70)
                X.append(row)
        assert _product(X, Y) == naive_product(X, Y, n + 1)

    def test_times_t_against_a_plain_loop(self):
        # times_t switches on the density of v as _product does on a row
        rng = random.Random(91)
        for genus in (1, 2, 3, 4):
            model = from_seifert(dense_seifert(genus, rng)).model
            n = model.n
            for density in (0.0, 0.2, 0.5, 0.7, 1.0):
                for _ in range(10):
                    v = [rng.randint(-2**70, 2**70) if rng.random() < density else 0 for _ in range(n)]
                    assert model.times_t(v) == [sum(model.num[i][j] * v[j] for j in range(n)) for i in range(n)]

    def test_empty(self):
        # the n = 0 model multiplies 0 x 0 matrices
        assert _product([], []) == []
        assert _product([], [[1, 2]]) == []
        assert _product([[], []], []) == [[], []]
