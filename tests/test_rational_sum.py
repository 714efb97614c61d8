"""Property test: sums and differences of torsion classes, the TorsionClass
constructor on the cross-multiplied fraction, equal the class of the sum in
the naive fraction field of pairing_oracles, whose fractions
cancel one full gcd before the numerator is reduced mod the denominator."""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from eqslice.laurent import ONE, LaurentPoly, TorsionClass, parse_poly
from pairing_oracles import Frac, class_add, class_sub

# pairwise coprime irreducibles over Q (t - 1/2 is an associate of 2t - 1)
FACTORS = [parse_poly(s) for s in ("t - 2", "2*t - 1", "t + 1", "t^2 - 3*t + 1", "3*t^2 + t + 2", "t")]

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys = st.builds(
    lambda valuation, coeffs: LaurentPoly({valuation + i: c for i, c in enumerate(coeffs)}),
    st.integers(-2, 2),
    st.lists(coefficients, max_size=4),
)
factor_lists = st.lists(st.sampled_from(range(len(FACTORS))), max_size=3)


def product(indices, unit):
    p = LaurentPoly({unit[1]: unit[0]})
    for i in indices:
        p = p * FACTORS[i]
    return p


units = st.tuples(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]), st.integers(-1, 1))


@st.composite
def pairs(draw):
    """Two classes whose denominators are equal, coprime or share factors."""
    shared = draw(factor_lists)
    mode = draw(st.sampled_from(["equal", "coprime", "shared"]))
    own1, own2 = draw(factor_lists), draw(factor_lists)
    if mode == "equal":
        own2 = own1
    elif mode == "coprime":
        shared = []
        own2 = [i for i in own2 if i not in own1]
    d1 = product(shared + own1, draw(units))
    d2 = product(shared + own2, draw(units))
    x = TorsionClass(draw(polys), d1)
    y = TorsionClass(draw(polys), d2)
    if mode == "equal" and draw(st.booleans()):
        # x + y is the class of the polynomial p: the whole denominator cancels
        y = TorsionClass(draw(polys) * x.den - x.num, x.den)
    return x, y


def naive(x, y, sign):
    X, Y = Frac(x.num, x.den), Frac(y.num, y.den)
    return (X + Y if sign > 0 else X - Y).torsion()


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_sum_and_difference_match_the_naive_canonical_form(xy):
    x, y = xy
    s, d = class_add(x, y), class_sub(x, y)
    assert (s.num, s.den) == naive(x, y, 1)
    assert (d.num, d.den) == naive(x, y, -1)
    assert class_add(y, x) == s


@settings(max_examples=100, deadline=None)
@given(pairs())
def test_sums_that_cancel(xy):
    x, _ = xy
    assert class_add(x, -x).is_zero() and class_sub(x, x).is_zero()
    assert class_add(x, -x).den == ONE
    # x + (q - x) is q, whatever the denominators share
    q = TorsionClass(FACTORS[1], FACTORS[0] * FACTORS[2])
    assert class_add(x, class_sub(q, x)) == q
