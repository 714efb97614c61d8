import random
from fractions import Fraction

import pytest

from eqslice.laurent import ONE, ZERO, LaurentPoly, parse_poly, unit_equal
from eqslice.matrices import (
    DegreeCapError,
    LambdaMatrix,
    SingularMatrixError,
    det,
    in_span,
    inverse_qt,
    kernel,
    mat_vec,
    seifert_pencil,
    snf,
)


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
        assert det(LambdaMatrix.identity(3)) == ONE

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
        inv = inverse_qt(B)
        delta = P("t - 2") * P("2*t - 1")
        adj = [
            [LaurentPoly({0: l, 1: -l}), P("t - 2")],
            [P("2*t - 1"), ZERO],
        ]
        from eqslice.laurent import RationalFn

        for i in range(2):
            for j in range(2):
                assert inv[i][j] == RationalFn(-adj[i][j], delta)

    def test_identity_inverse(self):
        inv = inverse_qt(LambdaMatrix.identity(2))
        assert inv[0][0].num == ONE and inv[0][1].is_zero()

    def test_product_is_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            M = rand_matrix(rng, max_dim=n, max_deg=2)
            while not (M.is_square() and M.rows == n) or det(M).is_zero():
                M = rand_matrix(rng, max_dim=n, max_deg=2)
            inv = inverse_qt(M)
            from eqslice.laurent import RationalFn

            for i in range(n):
                for j in range(n):
                    acc = RationalFn(ZERO)
                    for k in range(n):
                        acc = acc + RationalFn(M.entry(i, k)) * inv[k][j]
                    expected = RationalFn(ONE if i == j else ZERO)
                    assert acc == expected

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
            snf(M, degree_cap=100)


class TestKernel:
    def test_equal_columns(self):
        M = LambdaMatrix([[P("t - 2"), P("t - 2")]])
        K = kernel(M)
        assert K.cols == 1
        assert all(e.is_zero() for e in mat_vec(M, K.col(0)))

    def test_identity_kernel_trivial(self):
        assert kernel(LambdaMatrix.identity(3)).cols == 0

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
