"""Differential tests of the fraction-free determinant, the interpolated
inverse and the rational basis' U^-1 against two independent oracles: the
subset-expansion determinant below (exponential, small n only) and sympy.
"""
import random
from fractions import Fraction
from math import lcm

import pytest

from eqslice.catalog import builtin, sum_specs
from eqslice.laurent import ONE, ZERO, LaurentPoly, divexact, parse_poly
from eqslice.matrices import (
    DEFAULT_DEGREE_CAP,
    DegreeCapError,
    LambdaMatrix,
    SingularMatrixError,
    det,
    inverse_qt,
    mat_vec,
    seifert_pencil,
)
from eqslice.modules import PresentedModule, RationalBasis, from_seifert
from cases import dense_seifert, identity
from laurent_oracle import poly_pow


def subset_det(M):
    """Determinant by Laplace expansion along rows, memoised on column subsets."""
    n = M.rows
    memo = {0: ONE}

    def expand(mask):
        if mask in memo:
            return memo[mask]
        row = n - bin(mask).count("1")
        acc, sign = ZERO, 1
        for j in range(n):
            if mask & (1 << j):
                e = M.entry(row, j)
                if not e.is_zero():
                    term = e * expand(mask & ~(1 << j))
                    acc = acc + (term if sign > 0 else -term)
                sign = -sign
        memo[mask] = acc
        return acc

    return expand((1 << n) - 1)


def random_laurent(rng):
    if rng.random() < 0.2:
        return ZERO
    lo = rng.randint(-2, 1)
    return LaurentPoly(
        {
            k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for k in range(lo, lo + rng.randint(0, 2) + 1)
        }
    )


def random_matrix(rng, n):
    return LambdaMatrix([[random_laurent(rng) for _ in range(n)] for _ in range(n)])


def pencil_inverse(A):
    return inverse_qt(-seifert_pencil(A).transpose())


def as_polys(inverse):
    """(den, F) of inverse_qt as a LaurentPoly and a LambdaMatrix."""
    den, F = inverse
    return LaurentPoly(enumerate(den)), LambdaMatrix([[LaurentPoly(enumerate(f)) for f in row] for row in F])


def assert_inverse(M, inverse):
    """M * F == den * I exactly over the ring, with den nonzero."""
    den, F = as_polys(inverse)
    assert not den.is_zero()
    assert M * F == LambdaMatrix([[den if i == j else ZERO for j in range(M.rows)] for i in range(M.rows)])


# The pencil A - t*B with A, B below has det 2t^3 - 2t, which vanishes at
# the first three sample points 0, 1, -1.
VANISHING_A = [[-2, -2, 2], [1, 1, 0], [2, 2, -2]]
VANISHING_B = [[-2, -1, 0], [-2, -1, -1], [2, 2, -2]]
VANISHING = LambdaMatrix(
    [
        [LaurentPoly({0: VANISHING_A[i][j], 1: -VANISHING_B[i][j]}) for j in range(3)]
        for i in range(3)
    ]
)


class TestAgainstSubsetExpansion:
    def test_random_laurent_matrices(self):
        rng = random.Random(30)
        for _ in range(60):
            M = random_matrix(rng, rng.randint(1, 5))
            assert det(M) == subset_det(M)

    def test_dense_seifert_pencils(self):
        rng = random.Random(31)
        for genus in range(1, 6):
            M = seifert_pencil(dense_seifert(genus, rng))
            assert det(M) == subset_det(M)

    def test_edge_cases(self):
        P = parse_poly
        zero_row = LambdaMatrix([[P("t - 2"), P("t^-1")], [ZERO, ZERO]])
        singular = LambdaMatrix([[P("t - 2"), P("2*t^2")], [P("1/2*t^2 - t"), P("t^3")]])
        for M in (LambdaMatrix([]), zero_row, singular, VANISHING):
            assert det(M) == subset_det(M)
        assert det(LambdaMatrix([])) == ONE
        assert det(zero_row).is_zero() and det(singular).is_zero()
        assert det(VANISHING) == P("2*t^3 - 2*t")


class TestInverse:
    def test_empty_matrix(self):
        assert inverse_qt(LambdaMatrix([])) == ([1], [])

    @pytest.mark.parametrize(
        "rows",
        [
            [[ONE, ONE], [ZERO, ZERO]],
            [
                [parse_poly("t - 2"), parse_poly("2*t^2")],
                [parse_poly("1/2*t^2 - t"), parse_poly("t^3")],
            ],
        ],
    )
    def test_singular(self, rows):
        with pytest.raises(SingularMatrixError):
            inverse_qt(LambdaMatrix(rows))

    def test_det_vanishing_at_first_samples(self):
        assert_inverse(VANISHING, inverse_qt(VANISHING))

    def test_random_laurent_matrices(self):
        rng = random.Random(32)
        done = 0
        while done < 12:
            M = random_matrix(rng, rng.randint(1, 4))
            if det(M).is_zero():
                continue
            assert_inverse(M, inverse_qt(M))
            done += 1

    def test_degree_cap(self):
        # Beyond the cap by one entry's span, as the old determinant guard saw
        # it, and by the row degrees of a matrix of monomials.
        t = LaurentPoly({DEFAULT_DEGREE_CAP + 1: 1})
        with pytest.raises(DegreeCapError):
            inverse_qt(LambdaMatrix([[t + ONE]]))
        with pytest.raises(DegreeCapError):
            inverse_qt(LambdaMatrix([[ONE, t], [ONE, ONE]]))


def from_sympy(p, scale=ONE):
    """LaurentPoly of a sympy ZZ[t] element, times scale."""
    return LaurentPoly({k: int(c) for (k,), c in p.to_dict().items()}) * scale


def sympy_matrix(sp, M):
    """S = c*t^s*M over sympy's ZZ[t], with the unit c*t^s."""
    from sympy.polys.matrices import DomainMatrix

    t = sp.Symbol("t")
    entries = [e for r in M.to_lists() for e in r if not e.is_zero()]
    shift = -min((e.valuation() for e in entries), default=0)
    unit = LaurentPoly({shift: lcm(*(c.denominator for e in entries for _, c in e.items()))})
    rows = [[sum(int(c) * t**k for k, c in (unit * e).items()) for e in r] for r in M.to_lists()]
    return DomainMatrix.from_Matrix(sp.Matrix(rows)).convert_to(sp.ZZ[t]), unit


class TestAgainstSympy:
    @pytest.fixture
    def sp(self):
        return pytest.importorskip("sympy")

    def assert_inverse_matches(self, sp, M, inverse):
        # S^-1 = N / d, so M^-1 = unit * N / d.
        S, unit = sympy_matrix(sp, M)
        N, d = S.inv_den()
        d = from_sympy(d)
        den, F = as_polys(inverse)
        for i in range(M.rows):
            for j in range(M.cols):
                assert F.entry(i, j) * d == from_sympy(N[i, j].element, unit) * den

    def assert_det_matches(self, sp, M):
        S, unit = sympy_matrix(sp, M)
        assert det(M) * poly_pow(unit, M.rows) == from_sympy(S.det())

    def test_dense_seifert_pencils(self, sp):
        rng = random.Random(33)
        for genus in range(1, 6):
            A = dense_seifert(genus, rng)
            self.assert_inverse_matches(sp, -seifert_pencil(A).transpose(), pencil_inverse(A))
            self.assert_det_matches(sp, seifert_pencil(A))

    def test_genus_eight_pencil(self, sp):
        A = dense_seifert(8, random.Random(34))
        self.assert_inverse_matches(sp, -seifert_pencil(A).transpose(), pencil_inverse(A))

    def test_random_laurent_matrices(self, sp):
        rng = random.Random(35)
        done = 0
        while done < 10:
            M = random_matrix(rng, rng.randint(1, 4))
            self.assert_det_matches(sp, M)
            if det(M).is_zero():
                continue
            self.assert_inverse_matches(sp, M, inverse_qt(M))
            done += 1

    def test_det_vanishing_at_first_samples(self, sp):
        self.assert_det_matches(sp, VANISHING)
        self.assert_inverse_matches(sp, VANISHING, inverse_qt(VANISHING))


class TestRationalBasisInverse:
    def assert_unimodular_inverse(self, module):
        # each kept generator u_i is column i of U^-1: U * u_i = e_i
        B = RationalBasis(module)
        s, n = module.snf, module.generators
        kept = [i for i in range(n) if not s.diagonal[i].is_unit()]
        assert B.factors == tuple(s.diagonal[i] for i in kept)
        for i, (u, d) in zip(kept, B.blocks):
            assert mat_vec(s.U, list(u.coeffs)) == tuple(ONE if r == i else ZERO for r in range(n))
        # the full U^-1, columns (R V e_j) / d_j, against from_coords
        Uinv = LambdaMatrix(
            zip(*[[divexact(e, s.diagonal[j]) for e in mat_vec(module.relations, s.V.col(j))] for j in range(n)])
        )
        assert s.U * Uinv == identity(n)
        rng = random.Random(37)
        for _ in range(3):
            coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(B.dimension)]
            y, off = [ZERO] * n, 0
            for i, d in zip(kept, B.factors):
                y[i] = LaurentPoly({j: coords[off + j] for j in range(d.degree())})
                off += d.degree()
            assert B.from_coords(coords).coeffs == mat_vec(Uinv, y)

    @pytest.mark.parametrize("ref", [("nine46", {}), ("genus_one_slice", {"m": 3, "l": 5})])
    def test_nfold_sums(self, ref):
        name, params = ref
        for n in (1, 2, 4):
            spec = sum_specs([builtin(name, **params)] * n)
            self.assert_unimodular_inverse(from_seifert(spec.seifert))

    def test_random_torsion_modules(self):
        rng = random.Random(36)
        done = 0
        while done < 20:
            n = rng.randint(1, 4)
            m = n + rng.randint(0, 1)
            entry = lambda: LaurentPoly({k: rng.randint(-2, 2) for k in range(rng.randint(0, 2))})
            R = LambdaMatrix([[entry() for _ in range(m)] for _ in range(n)])
            module = PresentedModule(n, R)
            if not module.is_torsion:
                continue
            self.assert_unimodular_inverse(module)
            done += 1
