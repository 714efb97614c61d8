"""Division and gcd in Q[t] over Fraction coefficients, as the differential
oracles for eqslice.laurent's laurent_gcd, divides and divexact, which run
on integer coefficient lists.

This is not a test file.  Each function is the body the library had before
its integer rewrite: Euclidean division with a rational quotient at every
step (poly_divmod), and the gcd's fallback Euclid on monic remainders.
"""
from eqslice.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    _coprime_images,
    _image,
    integer_lists,
    poly_divmod,
)


def poly_mod(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The remainder of the Euclidean division of ordinary polynomials."""
    return poly_divmod(a, b)[1]


def oracle_laurent_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Monic ordinary-polynomial gcd: the coprimality certificate modulo a
    prime, then Euclid over Q with each remainder made monic."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic_ordinary()
    if q.is_zero():
        return p.monic_ordinary()
    a, b = p.ordinary(), q.ordinary()
    (x, y), _, _ = integer_lists([a, b])
    ix, iy = _image(x), _image(y)
    if len(ix) == len(x) and len(iy) == len(y) and _coprime_images(ix, iy):
        return ONE
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
        if not b.is_zero():
            b = b.scale(1 / b.leading_coefficient())
    return a.monic_ordinary()


def oracle_divides(d: LaurentPoly, p: LaurentPoly) -> bool:
    """d | p in the Laurent ring (up to units)."""
    if d.is_zero():
        return p.is_zero()
    if p.is_zero() or d.is_unit():
        return True
    return poly_mod(p.ordinary(), d.ordinary()).is_zero()


def oracle_divexact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact quotient p/d; raises if the division leaves a remainder."""
    if p.is_zero():
        return ZERO
    if d.is_unit():
        (k, c), = d.items()
        return p if d.is_one() else p._termmul(-k, 1 / c)
    vp, vd = p.valuation(), d.valuation()
    q, r = poly_divmod(p.shift(-vp), d.shift(-vd))
    if not r.is_zero():
        raise ValueError(f"{d} does not divide {p}")
    return q.shift(vp - vd)
