import random
from fractions import Fraction

import pytest

from eqslice.involution import (
    SemilinearMap,
    direct_sum_involution,
    is_involutive,
    is_well_defined,
    swap_involution,
    verify_anti_isometry,
)
from eqslice.laurent import ONE, ZERO, LaurentPoly, parse_poly
from eqslice.matrices import LambdaMatrix
from eqslice.modules import PresentedModule, direct_sum, from_seifert
from eqslice.pairing import direct_sum_pairing, gram_from_seifert, negate_pairing
from pairing_oracles import swap_by_block_smith_forms
from cases import check_cases, identity


def P(s):
    return parse_poly(s)


NINE46 = [[0, 2], [1, 0]]


def nine46_swap():
    M = from_seifert(NINE46)
    return SemilinearMap(module=M, matrix=LambdaMatrix([[ZERO, ONE], [ONE, ZERO]]))


def figure_eight_map():
    M = from_seifert([[1, 1], [0, -1]])
    return SemilinearMap(module=M, matrix=LambdaMatrix([[ONE, P("t^-1 - 1")], [ZERO, ZERO]]))


def stevedore_map():
    # m = 1, l = 1: cyclic generator b1 with tau(b1) = -b1;
    # b2 = -(2t-1) b1, so tau(b2) = (2t^-1 - 1) b1
    M = from_seifert([[0, 2], [1, 1]])
    return SemilinearMap(
        module=M, matrix=LambdaMatrix([[-ONE, P("2*t^-1 - 1")], [ZERO, ZERO]])
    )


def genus_one_map(m, l, c):
    # tau(b1) = u(t) b1 interpolated so that tau(y1) = c y2, tau(y2) = y1/c;
    # b2 = -(m/l)((m+1)t - m) b1 fixes the second column
    M = from_seifert([[0, m + 1], [m, l]])
    tp = Fraction(m + 1, m)
    tq = Fraction(m, m + 1)
    up = -1 / Fraction(c) * tp
    uq = -Fraction(c) * tq
    beta = (up - uq) / (tp - tq)
    alpha = up - beta * tp
    u = LaurentPoly({0: alpha, 1: beta})
    q = LaurentPoly({1: m + 1, 0: -m})
    col2 = (q.conjugate() * u).scale(Fraction(-m, l))
    T = LambdaMatrix([[u, col2], [ZERO, ZERO]])
    return SemilinearMap(module=M, matrix=T)


class TestApply:
    def test_nine46_swap_formula(self):
        T = nine46_swap()
        M = T.module
        p1, p2 = P("t^2 - 1"), P("3*t^-1")
        x = M.element([p1, p2])
        out = T.apply(x)
        assert out.coeffs == (p2.conjugate(), p1.conjugate())

    def test_figure_eight_conjugation(self):
        T = figure_eight_map()
        M = T.module
        # q(t) * b1 -> q(t^-1) * b1
        q = P("2*t - 7")
        out = T.apply(M.element([q, ZERO]))
        assert out.coeffs[0] == q.conjugate()
        assert out.coeffs[1].is_zero()

    def test_stevedore_negated_conjugation(self):
        T = stevedore_map()
        M = T.module
        q = P("t + 5")
        out = T.apply(M.element([q, ZERO]))
        assert out.coeffs[0] == -q.conjugate()

    def test_semilinear(self):
        T = nine46_swap()
        M = T.module
        rng = random.Random(40)
        for _ in range(20):
            p = LaurentPoly({k: rng.randint(-3, 3) for k in range(-1, 2)})
            x = M.element(
                [LaurentPoly({k: rng.randint(-2, 2) for k in range(0, 2)}) for _ in range(2)]
            )
            assert T.apply(x.scale(p)) == T.apply(x).scale(p.conjugate())


class TestVerifyInvolution:
    def test_catalog_maps(self):
        for T in [nine46_swap(), figure_eight_map(), stevedore_map(), genus_one_map(1, 1, 1)]:
            assert is_well_defined(T) and is_involutive(T)

    def test_scaled_identity_fails(self):
        M = from_seifert(NINE46)
        T = SemilinearMap(module=M, matrix=LambdaMatrix([[P("2"), ZERO], [ZERO, P("2")]]))
        assert not is_involutive(T)

    def test_plain_conjugation_not_well_defined_on_nine46(self):
        M = from_seifert(NINE46)
        T = SemilinearMap(module=M, matrix=identity(2))
        assert not is_well_defined(T)

    def test_trivial_module(self):
        M = PresentedModule(0)
        T = SemilinearMap(module=M, matrix=LambdaMatrix([]))
        assert is_well_defined(T) and is_involutive(T)

    def test_involution_squares_to_identity_on_elements(self):
        rng = random.Random(41)
        for T in [nine46_swap(), figure_eight_map(), genus_one_map(2, 3, 2)]:
            M = T.module
            for _ in range(10):
                x = M.element(
                    [LaurentPoly({k: rng.randint(-2, 2) for k in range(0, 2)}) for _ in range(M.generators)]
                )
                assert T.apply(T.apply(x)) == x


class TestAntiIsometry:
    def test_nine46(self):
        T = nine46_swap()
        B = gram_from_seifert(NINE46, T.module)
        assert verify_anti_isometry(T, B)

    def test_genus_one_scale_samples(self):
        for c in [Fraction(1), Fraction(2), Fraction(-1, 3)]:
            T = genus_one_map(1, 1, c)
            B = gram_from_seifert([[0, 2], [1, 1]], T.module)
            assert verify_anti_isometry(T, B)
            # tau sends y1 to c*y2 and y2 to y1/c
            M = T.module
            p, q = P("t - 2"), P("2*t - 1")
            y1 = M.element([q, ZERO])
            y2 = M.element([p, ZERO])
            assert T.apply(y1) == y2.scale(LaurentPoly({0: c}))
            assert T.apply(y2) == y1.scale(LaurentPoly({0: 1 / c}))

    def test_negated_gram_still_anti_isometric(self):
        T = nine46_swap()
        B = negate_pairing(gram_from_seifert(NINE46, T.module))
        assert verify_anti_isometry(T, B)

    def test_broken_map_detected(self):
        # doubling the conjugation on the figure-eight module scales the
        # pairing by 4; well defined, but no longer an anti-isometry
        M = from_seifert([[1, 1], [0, -1]])
        B = gram_from_seifert([[1, 1], [0, -1]], M)
        bad = SemilinearMap(
            module=M, matrix=LambdaMatrix([[P("2"), P("2*t^-1 - 2")], [ZERO, ZERO]])
        )
        assert is_well_defined(bad)
        assert not verify_anti_isometry(bad, B)


class TestSwapInvolution:
    def test_reversed_double(self):
        A = [[1, 1], [0, -1]]
        At = [list(r) for r in zip(*A)]
        M = direct_sum(from_seifert(A), from_seifert(At))
        T = swap_involution(M)
        assert is_well_defined(T) and is_involutive(T)

    def test_symmetric_cyclic_double(self):
        rel = P("t^2 - 3*t + 1")
        M1 = PresentedModule(1, LambdaMatrix([[rel]]))
        M = direct_sum(M1, M1)
        T = swap_involution(M)
        assert is_well_defined(T) and is_involutive(T)
        x = M.element([P("t"), P("1 - t^-2")])
        out = T.apply(x)
        assert out.coeffs == (P("1 - t^2"), P("t^-1"))

    def test_square_is_identity(self):
        rel = P("t^2 - 3*t + 1")
        M1 = PresentedModule(1, LambdaMatrix([[rel]]))
        M = direct_sum(M1, M1)
        T = swap_involution(M)
        assert is_involutive(T)

    def test_rejects_non_conjugate_split(self):
        M1 = PresentedModule(1, LambdaMatrix([[P("t - 2")]]))
        M = direct_sum(M1, M1)
        with pytest.raises(ValueError):
            swap_involution(M)

    def test_matches_block_smith_form_check(self):
        def outcome(swap, M):
            try:
                return swap(M)
            except ValueError as e:
                return str(e)

        M1 = PresentedModule(1, LambdaMatrix([[P("t - 2")]]))
        modules = [T.module for _, T in check_cases()] + [direct_sum(M1, M1)]
        verdicts = []
        for M in modules:
            old = outcome(swap_by_block_smith_forms, M)
            new = outcome(swap_involution, M)
            assert (new if isinstance(new, str) else new.matrix) == old
            verdicts.append(old if isinstance(old, str) else "accepted")
        assert "accepted" in verdicts
        assert "blocks are not conjugate presentations; swap is not well defined" in verdicts

    def test_rejects_odd_rank(self):
        with pytest.raises(ValueError):
            swap_involution(PresentedModule(3))

    def test_anti_isometry_for_reversed_double(self):
        A = [[1, 1], [0, -1]]
        At = [list(r) for r in zip(*A)]
        M = direct_sum(from_seifert(A), from_seifert(At))
        B1 = gram_from_seifert(A)
        B2 = gram_from_seifert(At)
        B = direct_sum_pairing(B1, B2, M)
        T = swap_involution(M)
        assert verify_anti_isometry(T, B)


class TestDirectSumInvolution:
    def test_two_nine46_swaps(self):
        T1, T2 = nine46_swap(), nine46_swap()
        T = direct_sum_involution(T1, T2, direct_sum(T1.module, T2.module))
        assert T.module.generators == 4
        assert is_well_defined(T) and is_involutive(T)
        B = direct_sum_pairing(
            gram_from_seifert(NINE46, T1.module),
            gram_from_seifert(NINE46, T2.module),
            T.module,
        )
        assert verify_anti_isometry(T, B)

    def test_sum_with_trivial(self):
        T1 = nine46_swap()
        trivial = SemilinearMap(module=PresentedModule(0), matrix=LambdaMatrix([]))
        T = direct_sum_involution(T1, trivial, direct_sum(T1.module, trivial.module))
        assert T.matrix == T1.matrix
