import random
from fractions import Fraction

import pytest

from eqslice.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    PolyParseError,
    RationalFn,
    TorsionClass,
    coprime_split,
    divexact,
    divides,
    extended_gcd,
    format_poly,
    gcd_free_basis,
    in_lambda,
    laurent_gcd,
    normalize_alexander,
    parse_poly,
    symmetric_quadratic_tests,
    unit_equal,
)


def P(s):
    return parse_poly(s)


def brute_mul(a, b):
    # independent convolution oracle on exponent dicts
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def rand_poly(rng, max_deg=4, allow_zero=True, laurent=False):
    while True:
        lo = -2 if laurent else 0
        p = LaurentPoly(
            {k: Fraction(rng.randint(-4, 4)) for k in range(lo, lo + rng.randint(0, max_deg) + 1)}
        )
        if allow_zero or not p.is_zero():
            return p


class TestArithmetic:
    def test_product_matches_convolution_oracle(self):
        a = P("t - 2")
        b = P("2*t - 1")
        expected = brute_mul({1: Fraction(1), 0: Fraction(-2)}, {1: Fraction(2), 0: Fraction(-1)})
        assert dict((a * b).items()) == expected
        assert a * b == P("2*t^2 - 5*t + 2")

    def test_additive_identity(self):
        p = P("3*t^2 - 1/2*t^-1")
        assert p + ZERO == p

    def test_square_of_binomial(self):
        p = P("1 - t")
        assert p * p == P("1 - 2*t + t^2")

    def test_random_products_match_oracle(self):
        rng = random.Random(1)
        for _ in range(100):
            a, b = rand_poly(rng, laurent=True), rand_poly(rng, laurent=True)
            assert dict((a * b).items()) == brute_mul(dict(a.items()), dict(b.items()))

    def test_pow(self):
        p = P("t - 1")
        assert p ** 3 == p * p * p
        assert p ** 0 == ONE


class TestConjugation:
    def test_monomial(self):
        assert P("t").conjugate() == P("t^-1")

    def test_symmetric_fixed(self):
        p = P("2*t - 5 + 2*t^-1")
        assert p.conjugate() == p

    def test_twist_value_up_to_unit(self):
        # a = 2: a^2 t^2 - (2a^2-1) t + a^2, conjugated
        p = P("4*t^2 - 7*t + 4")
        assert p.conjugate() == P("4*t^-2 - 7*t^-1 + 4")
        assert unit_equal(p.conjugate(), p)

    def test_multiplicative_additive_involutive(self):
        rng = random.Random(2)
        for _ in range(50):
            p, q = rand_poly(rng, laurent=True), rand_poly(rng, laurent=True)
            assert (p * q).conjugate() == p.conjugate() * q.conjugate()
            assert (p + q).conjugate() == p.conjugate() + q.conjugate()
            assert p.conjugate().conjugate() == p


class TestGcd:
    def test_coprime_pair(self):
        assert laurent_gcd(P("t - 2"), P("2*t - 1")) == ONE

    def test_gcd_with_self(self):
        p = P("2*t^2 - 5*t + 2")
        assert laurent_gcd(p, p) == p.monic_ordinary()

    def test_common_factor(self):
        assert laurent_gcd(P("2*t^2 - 5*t + 2"), P("t - 2")) == P("t - 2")

    def test_extended_gcd_identity(self):
        rng = random.Random(3)
        for _ in range(100):
            p = rand_poly(rng, allow_zero=False, laurent=True)
            q = rand_poly(rng, allow_zero=False, laurent=True)
            g, s, u = extended_gcd(p, q)
            assert s * p + u * q == g
            assert g == laurent_gcd(p, q)

    def test_inputs_that_defeat_the_modular_coprimality_test(self):
        # laurent_gcd first tries to certify coprimality modulo the prime
        # 2^61 - 1.  Here the images share a factor, or a leading coefficient
        # or denominator vanishes modulo it, so Euclid over Q must decide.
        p = (1 << 61) - 1
        t, c = P("t"), LaurentPoly.const
        cases = [
            (t + c(1), t + c(1 + p), ONE),
            (c(p) * t + c(1), t + c(2), ONE),
            (t.scale(Fraction(1, p)) + c(1), t + c(2), ONE),
            (t.scale(Fraction(1, p)) + c(1), t + c(p), t + c(p)),
            ((t + c(1 + p)) * (t - c(3)), (t + c(1)) * (t - c(3)), t - c(3)),
        ]
        for a, b, g in cases:
            assert laurent_gcd(a, b) == g == extended_gcd(a, b)[0]

    def test_divides_and_divexact(self):
        p, d = P("2*t^2 - 5*t + 2"), P("t - 2")
        assert divides(d, p)
        assert divexact(p, d) * d == p
        assert not divides(P("t - 3"), p)
        with pytest.raises(ValueError):
            divexact(p, P("t - 3"))


class TestRationalFn:
    def test_exact_division_is_polynomial(self):
        f = RationalFn(P("t^2 - 4"), P("t - 2"))
        assert f.is_polynomial()
        assert f.num == P("t + 2")

    def test_coprime_sum_not_polynomial(self):
        f = RationalFn(ONE, P("2*t - 1")) + RationalFn(ONE, P("t - 2"))
        assert not in_lambda(f)

    def test_zero_is_polynomial(self):
        assert in_lambda(RationalFn(ZERO, P("t - 2")))

    def test_canonical_denominator(self):
        f = RationalFn(P("t"), P("2*t^3 - 2*t^2"))
        assert f.den.leading_coefficient() == 1
        assert f.den.trailing_coefficient() != 0
        assert f.den.valuation() == 0

    def test_field_ops(self):
        a = RationalFn(ONE, P("t - 2"))
        b = RationalFn(ONE, P("2*t - 1"))
        s = a + b
        assert s - b == a
        assert (a * b) / b == a


class TestTorsionClass:
    def test_zero_detection(self):
        assert TorsionClass(RationalFn(P("t^2 - 4"), P("t - 2"))).is_zero()
        assert not TorsionClass(RationalFn(ONE, P("t - 2"))).is_zero()

    def test_equality_via_difference(self):
        x = TorsionClass(RationalFn(P("t"), P("t - 2")))
        y = TorsionClass(RationalFn(P("t - 2") * P("t") + P("2"), P("t - 2")))
        assert (x - y).is_zero() == (x == y)

    def test_reduction_degree(self):
        x = TorsionClass(RationalFn(P("t^5 + 1"), P("2*t^2 - 5*t + 2")))
        assert x.rep.num.degree() < x.rep.den.degree()
        assert x.rep.num.valuation() >= 0

    def test_negative_exponent_numerators(self):
        # t^-1/(t-2) and (2t)^-1... the class of t^-1 equals that of 1/2 + (t-2)-multiples
        x = TorsionClass(RationalFn(P("t^-1"), P("t - 2")))
        y = TorsionClass(RationalFn(P("1/2"), P("t - 2")))
        assert x == y

    def test_scale_annihilates(self):
        x = TorsionClass(RationalFn(ONE, P("t - 2")))
        assert x.scale(P("t - 2")).is_zero()
        assert not x.scale(P("2*t - 1")).is_zero()

    def test_class_zero_iff_in_ring(self):
        rng = random.Random(8)
        for _ in range(50):
            num = rand_poly(rng, laurent=True)
            den = rand_poly(rng, allow_zero=False)
            f = RationalFn(num, den)
            assert in_lambda(f) == TorsionClass(f).is_zero()


class TestCoprimeSplit:
    def test_displayed_split(self):
        # -(t-1) * (c1^2/(2t-1) + c2^2/(t-2)) for c1 = c2 = 1
        c1sq, c2sq = 1, 1
        total = TorsionClass(RationalFn(P("-1").scale(c1sq) * P("t - 1"), P("2*t - 1"))) + TorsionClass(
            RationalFn(P("-1").scale(c2sq) * P("t - 1"), P("t - 2"))
        )
        parts = coprime_split(total, [P("2*t - 1"), P("t - 2")])
        assert parts[0] == TorsionClass(RationalFn(-P("t - 1"), P("2*t - 1")))
        assert parts[1] == TorsionClass(RationalFn(-P("t - 1"), P("t - 2")))

    def test_zero_splits_to_zeros(self):
        parts = coprime_split(TorsionClass(), [P("t - 2"), P("2*t - 1")])
        assert all(p.is_zero() for p in parts)

    def test_parts_recombine(self):
        x = TorsionClass(RationalFn(P("3*t + 1"), P("t - 2") * P("2*t - 1")))
        parts = coprime_split(x, [P("t - 2"), P("2*t - 1")])
        total = TorsionClass()
        for p in parts:
            total = total + p
        assert total == x
        assert parts[0].scale(P("t - 2")).is_zero()
        assert parts[1].scale(P("2*t - 1")).is_zero()

    def test_errors(self):
        x = TorsionClass(RationalFn(ONE, P("t - 2")))
        with pytest.raises(ValueError):
            coprime_split(x, [P("t - 2"), P("2*t - 4")])
        with pytest.raises(ValueError):
            coprime_split(x, [P("2*t - 1")])

    def test_random_splits_recombine(self):
        rng = random.Random(4)
        for _ in range(50):
            f1, f2 = P("t - 2"), P("2*t - 1")
            num = rand_poly(rng, allow_zero=False, laurent=True)
            x = TorsionClass(RationalFn(num, f1 * f2))
            parts = coprime_split(x, [f1, f2])
            assert parts[0] + parts[1] == x


class TestGcdFreeBasis:
    def test_refinement(self):
        basis = gcd_free_basis([P("2*t^2 - 5*t + 2"), P("t - 2")])
        assert sorted(str(b) for b in basis) == ["t - 1/2", "t - 2"]

    def test_single_input(self):
        assert gcd_free_basis([P("3*t - 6")]) == [P("t - 2")]

    def test_powers_collapse(self):
        p = P("t - 2")
        assert gcd_free_basis([p, p * p]) == [p]

    def test_quadratic_split(self):
        basis = gcd_free_basis([P("2*t^2 - 5*t + 2")], split_quadratics=True)
        assert set(basis) == {P("t - 1/2"), P("t - 2")}
        # irreducible quadratics stay whole
        basis = gcd_free_basis([P("t^2 - t + 1")], split_quadratics=True)
        assert basis == [P("t^2 - t + 1")]

    def test_each_input_generated(self):
        rng = random.Random(5)
        lin = [P("t - 1"), P("t - 2"), P("t + 1"), P("2*t - 1")]
        for _ in range(20):
            inputs = []
            for _ in range(3):
                p = ONE
                for f in rng.sample(lin, rng.randint(1, 3)):
                    p = p * f ** rng.randint(1, 2)
                inputs.append(p)
            basis = gcd_free_basis(inputs)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    assert laurent_gcd(basis[i], basis[j]).is_one()
            for p in inputs:
                rem = p.monic_ordinary()
                changed = True
                while changed and not rem.is_one():
                    changed = False
                    for b in basis:
                        if divides(b, rem):
                            rem = divexact(rem, b).monic_ordinary()
                            changed = True
                assert rem.is_one()


class TestNormalizeAlexander:
    def test_det_output(self):
        p = -(P("2*t - 1") * P("t - 2"))
        assert normalize_alexander(p) == P("2*t - 5 + 2*t^-1")

    def test_already_symmetric(self):
        p = P("t - 3 + t^-1")
        assert normalize_alexander(p) == p

    def test_units_to_one(self):
        assert normalize_alexander(P("5")) == ONE
        assert normalize_alexander(P("-3*t^2")) == ONE

    def test_idempotent_and_unit_multiple(self):
        rng = random.Random(6)
        for _ in range(50):
            p = rand_poly(rng, allow_zero=False, laurent=True)
            n = normalize_alexander(p)
            assert normalize_alexander(n) == n
            q = divexact(p, n) if divides(n, p) else None
            assert q is not None and q.is_unit()


class TestSymmetricQuadraticTests:
    def test_twist_family_a3(self):
        rep = symmetric_quadratic_tests(P("9*t^2 - 17*t + 9"))
        assert rep.irreducible
        assert not rep.fox_milnor_possible
        assert rep.witness == 35

    def test_nine46_polynomial(self):
        rep = symmetric_quadratic_tests(P("2*t^2 - 5*t + 2"))
        assert rep.fox_milnor_possible
        assert rep.witness == 9
        assert not rep.irreducible

    def test_golden_ratio_like(self):
        rep = symmetric_quadratic_tests(P("t^2 - 3*t + 1"))
        assert rep.irreducible

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            symmetric_quadratic_tests(P("t - 2"))
        with pytest.raises(ValueError):
            symmetric_quadratic_tests(P("t^2 + 1"))  # |p(1)| = 2


class TestGrammar:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            p = rand_poly(rng, laurent=True)
            assert parse_poly(format_poly(p)) == p

    def test_grammar_example(self):
        assert parse_poly("2*t^-1 - 5 + 2*t") == LaurentPoly({-1: 2, 0: -5, 1: 2})

    def test_rational_coefficients(self):
        assert parse_poly("2/3*t^2 - 1/2") == LaurentPoly({2: Fraction(2, 3), 0: Fraction(-1, 2)})

    def test_bare_t_forms(self):
        assert parse_poly("t") == LaurentPoly({1: 1})
        assert parse_poly("-t^-3") == LaurentPoly({-3: -1})

    def test_parse_errors_carry_position(self):
        with pytest.raises(PolyParseError) as e:
            parse_poly("2*t^")
        assert e.value.position == 4
        with pytest.raises(PolyParseError):
            parse_poly("")
        with pytest.raises(PolyParseError):
            parse_poly("t 5")

    def test_non_ascii_digits_rejected_with_position(self):
        # "²" and "٣" pass str.isdigit, and "٣" even converts with int()
        for text, position in (("t^²", 2), ("²*t", 0), ("2*t + ٣", 6), ("1/٣", 0)):
            with pytest.raises(PolyParseError) as e:
                parse_poly(text)
            assert e.value.position == position, text
