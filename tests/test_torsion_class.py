"""Differential test of the TorsionClass constructor and of the class
arithmetic the oracles build on it.

The constructor is laurent.classes_over's one-element case, which decides
the canonical form in one pass: monic ordinary denominator, numerator
reduced mod it, gcd cancelled.  The reference is the two-step path through
the naive fraction field of pairing_oracles: the canonical fraction
num/den first, then its numerator reduced mod its denominator.  Seeded draws, no hypothesis, so this runs
wherever pytest does.
"""
import copy
import pickle
import random
from fractions import Fraction

import pytest

from eqslice.laurent import ONE, TORSION_ZERO, ZERO, LaurentPoly, TorsionClass, format_poly, parse_poly
from pairing_oracles import Frac, class_add, class_conjugate, class_scale, class_sub

# pairwise coprime irreducibles over Q
FACTORS = [
    parse_poly(s) for s in ("t - 2", "2*t - 1", "t + 1", "t^2 - 3*t + 1", "3*t^2 + t + 2", "t^2 + 1")
]
KINDS = ("generic", "shared", "multiple", "unit", "zero")
DRAWS = 600


def rand_poly(rng, lo, hi):
    """A Laurent polynomial of up to four terms, valuation in [lo, hi]; may be zero."""
    v = rng.randint(lo, hi)
    return LaurentPoly(
        {v + i: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for i in range(rng.randint(1, 4))}
    )


def rand_unit(rng):
    return LaurentPoly({rng.randint(-2, 2): rng.choice([Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)])})


def draw(rng, kind):
    """(num, den) of the given kind.

    generic: a numerator with valuation down to -4 over a non-monic
    denominator carrying a t-power; shared: the numerator shares factors of
    the denominator; multiple: the numerator is a ring multiple of den;
    unit: den is c*t^k; zero: num is 0.
    """
    factors = [rng.randrange(len(FACTORS)) for _ in range(rng.randint(1, 3))]
    den = rand_unit(rng)
    for i in factors:
        den = den * FACTORS[i]
    num = rand_poly(rng, -4, 3)
    if kind == "shared":
        for i in factors[: rng.randint(1, max(1, len(factors) - 1))]:
            num = num * FACTORS[i]
    elif kind == "multiple":
        num = num * den
    elif kind == "unit":
        den = rand_unit(rng)
    elif kind == "zero":
        num = ZERO
    return num, den


def old_string(num, den):
    return "0" if num.is_zero() else f"({format_poly(num)})/({format_poly(den)})"


def assert_class(cls, frac):
    """cls is the canonical class of the fraction frac."""
    num, den = frac.torsion()
    assert (cls.num, cls.den) == (num, den)
    assert cls.is_zero() == num.is_zero()
    assert str(cls) == old_string(num, den)


@pytest.fixture(scope="module")
def draws():
    rng = random.Random(13)
    return [draw(rng, KINDS[i % len(KINDS)]) for i in range(DRAWS)]


def test_constructor_matches_the_two_step_path(draws):
    for num, den in draws:
        assert_class(TorsionClass(num, den), Frac(num, den))


def test_draws_cover_every_case(draws):
    classes = [TorsionClass(num, den) for num, den in draws]
    fracs = [Frac(num, den) for num, den in draws]
    assert sum(num.is_zero() for num, _ in draws) >= DRAWS // len(KINDS)
    assert sum(not num.is_zero() and num.valuation() < 0 for num, _ in draws) >= 100
    assert sum(den.is_unit() for _, den in draws) >= DRAWS // len(KINDS)
    assert sum(den.valuation() != 0 and den.leading_coefficient() != 1 for _, den in draws) >= 100
    # a shared factor cancels: the class's denominator is a proper divisor
    cancelled = [not c.is_zero() and c.den.degree() < den.ordinary().degree() for c, (_, den) in zip(classes, draws)]
    assert sum(cancelled) >= 50
    # a nonzero numerator that is a ring multiple gives the zero class
    assert sum(f.is_polynomial() and not f.is_zero() for f in fracs) >= DRAWS // len(KINDS)
    assert sum(not c.is_zero() for c in classes) >= DRAWS // 4


def test_arithmetic_matches_the_fraction_field(draws):
    rng = random.Random(14)
    for (n1, d1), (n2, d2) in zip(draws, draws[1:] + draws[:1]):
        x, y = TorsionClass(n1, d1), TorsionClass(n2, d2)
        X, Y = Frac(n1, d1), Frac(n2, d2)
        assert_class(class_add(x, y), X + Y)
        assert_class(class_sub(x, y), X - Y)
        assert_class(-x, -X)
        p = rand_poly(rng, -3, 2)
        assert_class(class_scale(x, p), X * Frac(p))
        assert_class(class_conjugate(x), Frac(X.num.conjugate(), X.den.conjugate()))


def test_equal_and_shared_denominators(draws):
    # sums over one denominator, and over denominators sharing a factor, are
    # where a common factor of the cross-multiplied fraction cancels
    for num, den in draws[:200]:
        g = FACTORS[0] * FACTORS[3]
        x, y = TorsionClass(num, den * g), TorsionClass(ONE - num, den * g)
        assert_class(class_add(x, y), Frac(num, den * g) + Frac(ONE - num, den * g))
        z = TorsionClass(num, g * FACTORS[1])
        assert_class(class_add(x, z), Frac(num, den * g) + Frac(num, g * FACTORS[1]))


def test_copies_rebuild_the_class_and_keep_the_shared_zero():
    # TorsionClass() returns the shared zero, so a copy must not be made by
    # calling __new__ without arguments and filling in the result
    x = TorsionClass(parse_poly("t + 3"), parse_poly("2*t^2 - 5*t + 2"))
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert (y.num, y.den, str(y)) == (x.num, x.den, str(x))
    assert TorsionClass() is TORSION_ZERO and (TORSION_ZERO.num, TORSION_ZERO.den) == (ZERO, ONE)
