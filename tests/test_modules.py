import random
from fractions import Fraction

import pytest

from eqslice.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    divexact,
    laurent_gcd,
    parse_poly,
    unit_equal,
)
from eqslice.matrices import LambdaMatrix, block_diag, mat_vec
from eqslice.modules import (
    PresentedModule,
    RationalBasis,
    direct_sum,
    from_seifert,
    submodule_presentation,
)
from cases import dense_seifert
from laurent_oracle import poly_mod


def P(s):
    return parse_poly(s)


def cyclic(poly):
    return PresentedModule(1, LambdaMatrix([[poly]]))


NINE46 = [[0, 2], [1, 0]]


def to_coords(B, x):
    """The coordinates of x in the rational basis B: the inverse of
    B.from_coords, read off U * x with U from the module's Smith form; the
    blocks are its non-unit diagonal entries, in order."""
    s = B.module.snf
    y = mat_vec(s.U, list(x.coeffs))
    blocks = [(i, d) for i, d in enumerate(s.diagonal[: B.module.generators]) if not d.is_unit()]
    return tuple(reduced(y[i], d).coefficient(j) for i, d in blocks for j in range(d.degree()))


def reduced(y, d):
    """y mod d, of degree below deg d, for d ordinary with d(0) != 0: a
    negative power of t is cleared one t^-1 = -(d_1 + d_2 t + ...) / d_0
    at a time."""
    if y.is_zero():
        return ZERO
    v = min(y.valuation(), 0)
    c = d.dense()
    tinv = LaurentPoly(enumerate(-a / c[0] for a in c[1:]))
    r = poly_mod(y.shift(-v), d)
    for _ in range(-v):
        r = poly_mod(r * tinv, d)
    return r


def t_matrix(B):
    """Multiplication by t in the basis B: column k is the coordinates of t * b_k."""
    columns = [to_coords(B, B.basis_element(k).scale(P("t"))) for k in range(B.dimension)]
    return [list(row) for row in zip(*columns)]


class TestFromSeifert:
    def test_nine46_module(self):
        M = from_seifert(NINE46)
        assert M.grk == 1
        assert len(M.invariant_factors) == 1
        assert unit_equal(M.invariant_factors[0], P("t - 2") * P("2*t - 1"))
        assert unit_equal(M.order, P("2*t^2 - 5*t + 2"))

    def test_unknot(self):
        M = from_seifert([])
        assert M.grk == 0
        assert M.order == ONE

    def test_genus_one_cyclic(self):
        M = from_seifert([[0, 2], [1, 2]])  # (m, l) = (1, 2)
        assert M.grk == 1
        assert unit_equal(M.order, P("2*t - 1") * P("t - 2"))

    def test_rejects_non_seifert(self):
        with pytest.raises(ValueError):
            from_seifert([[0, 1], [1, 0]])

    def test_order_at_one_nonzero(self):
        # order is defined up to units; the determinant representative has
        # |det(1)| = 1, so the order cannot vanish at t = 1
        M = from_seifert(NINE46)
        assert M.order.evaluate(1) != 0
        from eqslice.matrices import det

        assert unit_equal(M.order, det(M.relations))
        assert abs(det(M.relations).evaluate(1)) == 1


class TestDirectSum:
    def test_sum_with_trivial(self):
        M = from_seifert(NINE46)
        S = direct_sum(M, from_seifert([]))
        assert S.invariant_factors == M.invariant_factors

    def test_three_copies_grk(self):
        M = from_seifert(NINE46)
        S = direct_sum(direct_sum(M, M), M)
        assert S.grk == 3

    def test_coprime_cyclics_merge(self):
        S = direct_sum(cyclic(P("t - 2")), cyclic(P("2*t - 1")))
        assert S.grk == 1
        assert len(S.invariant_factors) == 1
        assert unit_equal(S.invariant_factors[0], P("t - 2") * P("2*t - 1"))

    def test_two_models_sum_to_a_model(self):
        # the module of the block-sum Seifert matrix: equal, with the same
        # hash, to the module of the block relations, and with their Smith
        # form's invariant factors
        M1, M2 = from_seifert(dense_seifert(3, random.Random(91))), from_seifert(NINE46)
        S = direct_sum(M1, M2)
        eager = PresentedModule(
            S.generators, LambdaMatrix(block_diag([M1.relations.to_lists(), M2.relations.to_lists()], ZERO))
        )
        assert S.model is not None and eager.model is None
        assert S == eager and hash(S) == hash(eager)
        assert S.invariant_factors == eager.snf.invariant_factors

    def test_a_sum_without_two_models_takes_the_smith_form(self):
        S = direct_sum(from_seifert(NINE46), cyclic(P("t^2 - 3*t + 1")))
        assert S.model is None
        assert S.invariant_factors == S.snf.invariant_factors

    def test_order_multiplies(self):
        rng = random.Random(20)
        for _ in range(20):
            p = LaurentPoly({0: rng.randint(1, 3), 1: rng.randint(1, 3)})
            q = LaurentPoly({0: rng.randint(1, 3), 1: rng.randint(1, 3), 2: rng.randint(1, 2)})
            M1, M2 = cyclic(p), cyclic(q)
            S = direct_sum(M1, M2)
            assert unit_equal(S.order, M1.order * M2.order)


class TestGeneratingRank:
    def test_coprime_powers_max(self):
        # a1 copies of one cyclic, a2 of a coprime one: grk = max
        p, q = P("t - 2"), P("t - 3")
        for a1, a2 in [(1, 3), (2, 2), (4, 1)]:
            M = PresentedModule(0)
            for _ in range(a1):
                M = direct_sum(M, cyclic(p))
            for _ in range(a2):
                M = direct_sum(M, cyclic(q))
            assert M.grk == max(a1, a2)

    def test_trivial(self):
        assert PresentedModule(0).grk == 0

    def test_non_coprime_cannot_merge(self):
        p = P("t - 2")
        assert direct_sum(cyclic(p), cyclic(p)).grk == 2


class TestElements:
    def test_reflexive(self):
        M = from_seifert(NINE46)
        x = M.element([P("t"), ONE])
        assert x == M.element([P("t"), ONE])

    def test_relation_collapse_in_cyclic(self):
        M = cyclic(P("t - 2"))
        assert M.element([P("t")]) == M.element([P("2")])

    def test_nine46_annihilators(self):
        M = from_seifert(NINE46)
        b1 = M.generator(0)
        # b1 is annihilated by 2t-1 (its summand's order), not by t-2
        assert b1.scale(P("2*t - 1")).is_zero()
        assert not b1.scale(P("t - 2")).is_zero()
        assert not b1.is_zero()


class TestSubmodule:
    def test_full_generators_reproduce_module(self):
        M = from_seifert(NINE46)
        S = submodule_presentation(M, [M.generator(0), M.generator(1)])
        assert S.invariant_factors == M.invariant_factors

    def test_empty_generators(self):
        M = from_seifert(NINE46)
        S = submodule_presentation(M, [])
        assert S.order == ONE and S.grk == 0

    def test_cyclic_subquotient_order(self):
        M = cyclic(P("t - 2") * P("2*t - 1"))
        S = submodule_presentation(M, [M.element([P("2*t - 1")])])
        assert unit_equal(S.order, P("t - 2"))

    def test_submodule_grk_bounded(self):
        rng = random.Random(21)
        for _ in range(20):
            M = from_seifert(NINE46)
            M = direct_sum(M, M)
            gens = [
                M.element([LaurentPoly({0: rng.randint(-2, 2)}) for _ in range(M.generators)])
                for _ in range(rng.randint(1, 3))
            ]
            S = submodule_presentation(M, gens)
            assert S.grk <= M.grk


class TestQBasis:
    def test_figure_eight_like_cyclic(self):
        M = cyclic(P("t^2 - 3*t + 1"))
        B = RationalBasis(M)
        assert B.dimension == 2
        # companion matrix of t^2 - 3t + 1
        assert t_matrix(B) == [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(3)]]

    def test_trivial_module(self):
        B = RationalBasis(PresentedModule(0))
        assert B.dimension == 0

    def test_nine46_t_action_eigenvalues(self):
        M = from_seifert(NINE46)
        B = RationalBasis(M)
        assert B.dimension == 2
        T = t_matrix(B)
        trace = T[0][0] + T[1][1]
        det2 = T[0][0] * T[1][1] - T[0][1] * T[1][0]
        # char poly (t-2)(t-1/2) = t^2 - 5/2 t + 1
        assert trace == Fraction(5, 2)
        assert det2 == 1

    def test_dimension_is_order_degree(self):
        M = direct_sum(from_seifert(NINE46), cyclic(P("t^2 - 3*t + 1")))
        B = RationalBasis(M)
        assert B.dimension == M.order.span()

    def test_t_matrix_invertible(self):
        # t is a unit, so multiplication by t has nonzero determinant
        M = direct_sum(from_seifert(NINE46), cyclic(P("t^2 - 3*t + 1")))
        B = RationalBasis(M)
        T = LambdaMatrix([[LaurentPoly({0: c}) for c in row] for row in t_matrix(B)])
        from eqslice.matrices import det

        assert not det(T).is_zero()

    def test_round_trips(self):
        rng = random.Random(22)
        M = direct_sum(from_seifert(NINE46), cyclic(P("t^2 - 3*t + 1")))
        B = RationalBasis(M)
        for _ in range(20):
            v = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(B.dimension))
            assert to_coords(B, B.from_coords(v)) == v
        for _ in range(10):
            x = M.element(
                [LaurentPoly({k: rng.randint(-2, 2) for k in range(-1, 2)}) for _ in range(M.generators)]
            )
            y = B.from_coords(to_coords(B, x))
            assert x == y

    def test_t_matrix_matches_module_action(self):
        # the columns fix T; t acting on any other element must agree with it
        rng = random.Random(24)
        M = direct_sum(from_seifert(NINE46), cyclic(P("t^2 - 3*t + 1")))
        B = RationalBasis(M)
        T = t_matrix(B)
        for _ in range(10):
            v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(B.dimension)]
            coords = to_coords(B, B.from_coords(v).scale(P("t")))
            expected = tuple(sum(T[i][k] * v[k] for k in range(B.dimension)) for i in range(B.dimension))
            assert coords == expected

    def test_non_torsion_rejected(self):
        with pytest.raises(ValueError):
            RationalBasis(PresentedModule(1))


class TestGeneringRankInequalities:
    def test_map_rank_inequalities(self):
        # grk Im(f) <= grk(domain) <= grk Im(f) + grk ker(f) on random maps
        rng = random.Random(23)
        lin = [P("t - 2"), P("t - 3"), P("2*t - 1"), P("t + 1")]
        for _ in range(30):
            d1 = [rng.choice(lin) for _ in range(rng.randint(1, 2))]
            d2 = [rng.choice(lin) for _ in range(rng.randint(1, 2))]
            M1 = PresentedModule(len(d1), LambdaMatrix([[d1[i] if i == j else ZERO for j in range(len(d1))] for i in range(len(d1))]))
            M2 = PresentedModule(len(d2), LambdaMatrix([[d2[i] if i == j else ZERO for j in range(len(d2))] for i in range(len(d2))]))
            F = []
            for j in range(len(d2)):
                row = []
                for i in range(len(d1)):
                    g = laurent_gcd(d2[j], d1[i])
                    mult = divexact(d2[j].monic_ordinary(), g)
                    row.append(mult * LaurentPoly({0: rng.randint(-2, 2)}))
                F.append(row)
            Fm = LambdaMatrix(F)
            image = submodule_presentation(M2, [M2.element(Fm.col(i)) for i in range(len(d1))])
            from eqslice.matrices import kernel as mkernel

            K = mkernel(Fm.hstack(-M2.relations))
            ker_gens = [M1.element(K.col(j)[: len(d1)]) for j in range(K.cols)]
            ker = submodule_presentation(M1, ker_gens)
            assert image.grk <= M1.grk <= image.grk + ker.grk
