import random
import sys
from fractions import Fraction

import pytest

from eqslice import laurent
from eqslice.laurent import (
    ONE,
    ZERO,
    DigitLimitError,
    LaurentPoly,
    PolyParseError,
    TorsionClass,
    coprime_split,
    divexact,
    divides,
    format_poly,
    integer_lists,
    gcd_free_basis,
    laurent_gcd,
    normalize_alexander,
    parse_poly,
    parse_rational,
    symmetric_quadratic_tests,
    unit_equal,
)
from laurent_oracle import coprime_split_class, extended_gcd, poly_divmod, poly_mod, poly_pow
from pairing_oracles import Frac, class_add, class_scale, class_sub
from snf_oracle import laurent_quo


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
        assert poly_pow(p, 3) == p * p * p
        assert poly_pow(p, 0) == ONE


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
        t, c = P("t"), lambda k: LaurentPoly({0: k})
        cases = [
            (t + c(1), t + c(1 + p), ONE),
            (c(p) * t + c(1), t + c(2), ONE),
            (t.scale(Fraction(1, p)) + c(1), t + c(2), ONE),
            (t.scale(Fraction(1, p)) + c(1), t + c(p), t + c(p)),
            ((t + c(1 + p)) * (t - c(3)), (t + c(1)) * (t - c(3)), t - c(3)),
        ]
        for a, b, g in cases:
            assert laurent_gcd(a, b) == g == extended_gcd(a, b)[0]

    def test_gcd_matches_sympy_where_the_prime_divides_a_coefficient(self):
        # the modular certificate reads integer multiples of both inputs,
        # so a leading coefficient or a Fraction denominator that is a
        # multiple of 2^61 - 1 must leave the decision to Euclid over Q
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        prime = (1 << 61) - 1
        rng = random.Random(61)

        def draw():
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            coeffs[0] = coeffs[0] or Fraction(1)
            if rng.random() < 0.5:
                coeffs[-1] = Fraction(rng.choice([1, -2, 3]) * prime, rng.randint(1, 3))
            else:
                k = rng.randrange(len(coeffs))
                coeffs[k] = Fraction(rng.randint(1, 5), rng.choice([1, 2]) * prime)
            return LaurentPoly(enumerate(coeffs))

        def to_sympy(p):
            return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in p.items()), t, domain="QQ")

        shared = 0
        for _ in range(150):
            common = draw() if rng.random() < 0.5 else ONE
            a, b = draw() * common, draw() * common
            g = to_sympy(a).gcd(to_sympy(b)).monic()
            expected = LaurentPoly({k: Fraction(int(c.p), int(c.q)) for (k,), c in g.terms()})
            assert laurent_gcd(a, b) == expected, (a, b)
            shared += not expected.is_one()
        assert shared >= 50

    def test_divides_and_divexact(self):
        p, d = P("2*t^2 - 5*t + 2"), P("t - 2")
        assert divides(d, p)
        assert divexact(p, d) * d == p
        assert not divides(P("t - 3"), p)
        with pytest.raises(ValueError):
            divexact(p, P("t - 3"))


class TestUnitShortcuts:
    """divides and laurent_quo answer a unit divisor c*t^k without a division."""

    UNITS = [ONE, P("-3/2*t^4"), P("t^-2"), LaurentPoly({5: Fraction(7, 3)}), LaurentPoly({-1: -5})]

    def test_a_unit_divides_zero_and_nonzero(self):
        for d in self.UNITS:
            assert divides(d, ZERO)
            for p in (P("t - 2"), P("1/3*t^-3 + 5*t^2"), ONE, P("-7/9*t^6")):
                assert divides(d, p)
                assert divexact(p, d) * d == p

    def test_quotient_by_a_unit_matches_the_division_route(self):
        rng = random.Random(19)
        for trial in range(300):
            a = rand_poly(rng, max_deg=6, allow_zero=False, laurent=True).scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            b = self.UNITS[trial % len(self.UNITS)] if trial < 20 else LaurentPoly(
                {rng.randint(-4, 4): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))}
            )
            va, vb = a.valuation(), b.valuation()
            q, r = poly_divmod(a.shift(-va), b.shift(-vb))
            got = laurent_quo(a, b)
            assert r.is_zero()
            assert got == q.shift(va - vb) and str(got) == str(q.shift(va - vb))
            assert got * b == a


class TestCanonicalForm:
    def test_exact_division_is_polynomial(self):
        f = TorsionClass(P("t^2 - 4"), P("t - 2"))
        assert f.is_zero()
        assert (f.num, f.den) == (ZERO, ONE)

    def test_coprime_sum_not_polynomial(self):
        f = class_add(TorsionClass(ONE, P("2*t - 1")), TorsionClass(ONE, P("t - 2")))
        assert not f.is_zero()

    def test_zero_is_polynomial(self):
        f = TorsionClass(ZERO, P("t - 2"))
        assert f.is_zero() and f.den == ONE

    def test_canonical_denominator(self):
        f = TorsionClass(P("t"), P("2*t^3 - 2*t^2"))
        assert f.den.leading_coefficient() == 1
        assert f.den.coefficient(0) != 0
        assert f.den.valuation() == 0

    def test_field_ops(self):
        a = TorsionClass(ONE, P("t - 2"))
        b = TorsionClass(ONE, P("2*t - 1"))
        assert class_sub(class_add(a, b), b) == a


class TestTorsionClass:
    def test_zero_detection(self):
        assert TorsionClass(P("t^2 - 4"), P("t - 2")).is_zero()
        assert not TorsionClass(ONE, P("t - 2")).is_zero()

    def test_equality_via_difference(self):
        x = TorsionClass(P("t"), P("t - 2"))
        y = TorsionClass(P("t - 2") * P("t") + P("2"), P("t - 2"))
        assert class_sub(x, y).is_zero() == (x == y)

    def test_reduction_degree(self):
        x = TorsionClass(P("t^5 + 1"), P("2*t^2 - 5*t + 2"))
        assert x.num.degree() < x.den.degree()
        assert x.num.valuation() >= 0

    def test_negative_exponent_numerators(self):
        # t^-1/(t-2) and (2t)^-1... the class of t^-1 equals that of 1/2 + (t-2)-multiples
        x = TorsionClass(P("t^-1"), P("t - 2"))
        y = TorsionClass(P("1/2"), P("t - 2"))
        assert x == y

    def test_scale_annihilates(self):
        x = TorsionClass(ONE, P("t - 2"))
        assert class_scale(x, P("t - 2")).is_zero()
        assert not class_scale(x, P("2*t - 1")).is_zero()

    def test_large_negative_exponent_reduces_fast(self, monkeypatch):
        # t^-1 = 1/2 mod t - 2, and t^-100000 takes O(log) products
        calls = []
        remainder = laurent._pseudo_remainder
        monkeypatch.setattr(laurent, "_pseudo_remainder", lambda f, den: calls.append(1) or remainder(f, den))
        x = TorsionClass(P("t^-100000"), P("t - 2"))
        assert (x.num, x.den) == (LaurentPoly({0: Fraction(1, 2**100000)}), P("t - 2"))
        assert 0 < len(calls) <= 2 * (100000).bit_length()

    def test_constructor_passes_only_the_denominators_own_terms(self, monkeypatch):
        # each polynomial is cleared to integers over its own t-power, so a
        # far-off numerator exponent does not widen the denominator's list
        dens = []
        over = laurent.classes_over
        monkeypatch.setattr(laurent, "classes_over", lambda nums, den, e=0: dens.append(den) or over(nums, den, e))
        for num, den in (("t^-100000", "t - 2"), ("t^9 - 1", "2*t^2 - 5*t + 2"), ("3/2*t^-7 + t^5", "t^4 - 1/3*t^3")):
            dens.clear()
            x = TorsionClass(P(num), P(den))
            assert [len(d) for d in dens] == [P(den).span() + 1], (num, den)
            assert x == TorsionClass(P(num).shift(7), P(den).shift(7)), (num, den)

    def test_negative_power_matches_repeated_inverse(self):
        # t^-1 = -(a_1 + a_2 t) / a_0 modulo den = a_0 + a_1 t + a_2 t^2,
        # applied one step at a time
        den = P("t^2 - 3*t + 1")
        c = den.dense()
        tinv = LaurentPoly(enumerate(-a / c[0] for a in c[1:]))
        r = ONE
        for _ in range(20000):
            r = poly_mod(r * tinv, den)
        x = TorsionClass(P("t^-20000"), den)
        assert (x.num, x.den) == (r, den)
        for v in range(-40, 0):
            num = P(f"2/3*t^{v} + 5*t^3 - t")
            expected = poly_mod(num.shift(-v), den)
            for _ in range(-v):
                expected = poly_mod(expected * tinv, den)
            x = TorsionClass(num, den)
            assert (x.num, x.den) == (expected, den)

    def test_large_positive_exponent_matches_repeated_steps(self):
        # a long numerator: each pseudo-remainder step touches only the
        # terms within deg den of the top
        den = P("t^2 - 3*t + 1")
        r = ONE
        for _ in range(20000):
            r = poly_mod(r * P("t"), den)
        x = TorsionClass(P("t^20000"), den)
        assert (x.num, x.den) == (r, den)

    @pytest.mark.parametrize(
        "e, den",
        [(600, "2*t^3 - t + 3"), (600, "t^2 - 5*t + 2"), (5000, "t^2 - 5*t + 2"), (5000, "3*t - 1"), (50000, "t^2 - t + 1")],
    )
    def test_large_positive_exponent_by_squaring(self, monkeypatch, e, den):
        # t^e modulo den is made by square-and-multiply: O(log e)
        # pseudo-remainders, each of a product of two reduced lists, and
        # never one of the shifted numerator, which has e + 1 terms
        lengths = []
        remainder = laurent._pseudo_remainder
        monkeypatch.setattr(laurent, "_pseudo_remainder", lambda f, d: lengths.append(len(f)) or remainder(f, d))
        x = TorsionClass(P(f"t^{e}"), P(den))
        assert 0 < len(lengths) <= 2 * e.bit_length() + 1
        assert max(lengths) <= 2 * P(den).degree() + 1
        assert (x.num, x.den) == Frac(P(f"t^{e}"), P(den)).torsion()

    def test_class_zero_iff_in_ring(self):
        rng = random.Random(8)
        for _ in range(50):
            num = rand_poly(rng, laurent=True)
            den = rand_poly(rng, allow_zero=False)
            assert Frac(num, den).is_polynomial() == TorsionClass(num, den).is_zero()


class TestCoprimeSplit:
    def test_displayed_split(self):
        # -(t-1) * (c1^2/(2t-1) + c2^2/(t-2)) for c1 = c2 = 1
        c1sq, c2sq = 1, 1
        total = class_add(
            TorsionClass(P("-1").scale(c1sq) * P("t - 1"), P("2*t - 1")),
            TorsionClass(P("-1").scale(c2sq) * P("t - 1"), P("t - 2")),
        )
        parts = coprime_split_class(total, [P("2*t - 1"), P("t - 2")])
        assert parts[0] == TorsionClass(-P("t - 1"), P("2*t - 1"))
        assert parts[1] == TorsionClass(-P("t - 1"), P("t - 2"))

    def test_zero_splits_to_zeros(self):
        parts = coprime_split_class(TorsionClass(), [P("t - 2"), P("2*t - 1")])
        assert all(p.is_zero() for p in parts)

    def test_parts_recombine(self):
        x = TorsionClass(P("3*t + 1"), P("t - 2") * P("2*t - 1"))
        parts = coprime_split_class(x, [P("t - 2"), P("2*t - 1")])
        total = TorsionClass()
        for p in parts:
            total = class_add(total, p)
        assert total == x
        assert class_scale(parts[0], P("t - 2")).is_zero()
        assert class_scale(parts[1], P("2*t - 1")).is_zero()

    def test_errors(self):
        x = TorsionClass(ONE, P("t - 2"))
        with pytest.raises(ValueError):
            coprime_split_class(x, [P("t - 2"), P("2*t - 4")])
        with pytest.raises(ValueError):
            coprime_split_class(x, [P("2*t - 1")])

    def test_random_splits_recombine(self):
        rng = random.Random(4)
        for _ in range(50):
            f1, f2 = P("t - 2"), P("2*t - 1")
            num = rand_poly(rng, allow_zero=False, laurent=True)
            x = TorsionClass(num, f1 * f2)
            parts = coprime_split_class(x, [f1, f2])
            assert class_add(parts[0], parts[1]) == x


class TestBatchCoprimeSplit:
    """coprime_split on integer lists, one call for many values over one
    denominator, against the per-class split it replaced
    (laurent_oracle.coprime_split_class)."""

    FACTORS = [P("t - 2"), P("2*t - 1"), P("t^2 - t + 1"), P("3*t + 1")]

    def test_parts_equal_the_per_class_split(self):
        rng = random.Random(25)
        kinds = set()
        for _ in range(80):
            chosen = rng.sample(self.FACTORS, rng.randint(1, 3))
            mults = [rng.randint(1, 3) for _ in chosen]
            # H divides the product of the factor powers; a factor kept to
            # power 0 is coprime to H
            keep = [rng.randint(0, m) for m in mults]
            H = LaurentPoly({0: rng.choice([1, -2, 3])})
            for f, k in zip(chosen, keep):
                H = H * poly_pow(f, k)
            powers = [poly_pow(f, m) for f, m in zip(chosen, mults)]
            e = rng.randint(-3, 4)
            nums = [[] if rng.random() < 0.2 else [rng.randint(-5, 5) for _ in range(rng.randint(1, 7))] for _ in range(4)]
            (den,), _, _ = integer_lists([H])
            factors = [integer_lists([F])[0][0] for F in powers]
            split = coprime_split(nums, den, e, factors)
            assert len(split) == len(factors) and all(len(part) == len(nums) for part in split)
            for i, f in enumerate(nums):
                x = TorsionClass(LaurentPoly(enumerate(f)).shift(e), H)
                expected = coprime_split_class(x, powers)
                for p, F in enumerate(factors):
                    h, scale = split[p][i]
                    assert len(h) < len(F)
                    assert TorsionClass(LaurentPoly(enumerate(h)), LaurentPoly(enumerate(F)).scale(scale)) == expected[p]
                kinds.add("zero entry" if not f else "negative e" if e < 0 else "value")
            kinds.update("coprime part" if not k else "multiplicity" if k > 1 else "simple" for k in keep)
        assert kinds == {"zero entry", "negative e", "value", "coprime part", "multiplicity", "simple"}

    def test_errors(self):
        t2, t3 = [-2, 1], [-3, 1]
        # H = (t - 2)^2 does not divide (t - 2)(t - 3)
        with pytest.raises(ValueError, match="does not annihilate"):
            coprime_split([[1]], [4, -4, 1], 0, [t2, t3])
        # t - 2 and 2t - 4 share a factor
        with pytest.raises(ValueError, match="not coprime"):
            coprime_split([[1]], t2, 0, [t2, [-4, 2]])


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
        basis = gcd_free_basis([P("2*t^2 - 5*t + 2")])
        assert set(basis) == {P("t - 1/2"), P("t - 2")}
        # irreducible quadratics stay whole
        basis = gcd_free_basis([P("t^2 - t + 1")])
        assert basis == [P("t^2 - t + 1")]

    def test_each_input_generated(self):
        rng = random.Random(5)
        lin = [P("t - 1"), P("t - 2"), P("t + 1"), P("2*t - 1")]
        for _ in range(20):
            inputs = []
            for _ in range(3):
                p = ONE
                for f in rng.sample(lin, rng.randint(1, 3)):
                    p = p * poly_pow(f, rng.randint(1, 2))
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

    def test_dangling_star_rejected_with_position(self):
        # a '*' joins a coefficient to t; `2*` and `2*+t` used to read as 2 and t + 2
        for text in ("2*", "2*+t"):
            with pytest.raises(PolyParseError, match="expected 't' after '\\*'") as e:
                parse_poly(text)
            assert e.value.position == 1, text

    def test_numerals_over_the_digit_limit_refused(self):
        limit = sys.get_int_max_str_digits()
        big = "1" + "0" * limit
        assert parse_rational(big[:-1]) == 10 ** (limit - 1)
        for text in (big, "-" + big, "1/" + big, big + "/3"):
            with pytest.raises(DigitLimitError) as e:
                parse_rational(text)
            assert str(limit) in str(e.value) and big not in str(e.value)
        with pytest.raises(PolyParseError) as e:
            parse_poly("t + " + big + "*t^2")
        assert e.value.position == 4 and str(limit) in str(e.value) and len(str(e.value)) < 200

    def test_exponent_over_the_digit_limit_refused(self):
        limit = sys.get_int_max_str_digits()
        big = "1" + "0" * limit
        assert parse_poly("t^" + big[:-1]) == LaurentPoly({10 ** (limit - 1): 1})
        for text, position in (("t^" + big, 2), ("1 + 2*t^-" + big, 8)):
            with pytest.raises(PolyParseError) as e:
                parse_poly(text)
            message = str(e.value)
            assert e.value.position == position and "exponent" in message
            assert str(limit) in message and len(message) < 200

    def test_non_ascii_digits_rejected_with_position(self):
        # "²" and "٣" pass str.isdigit, and "٣" even converts with int()
        for text, position in (("t^²", 2), ("²*t", 0), ("2*t + ٣", 6), ("1/٣", 0)):
            with pytest.raises(PolyParseError) as e:
                parse_poly(text)
            assert e.value.position == position, text
