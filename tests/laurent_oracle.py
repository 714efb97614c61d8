"""Division and gcd in Q[t] over Fraction coefficients, as the differential
oracles for eqslice.laurent's laurent_gcd, divides, divexact and
coprime_split, which run on integer coefficient lists.

This is not a test file.  Each function is the body the library had before
its integer rewrite: Euclidean division with a rational quotient at every
step (poly_divmod), the gcd's fallback Euclid on monic remainders, the
Bezout data of extended_gcd, powers by squaring (poly_pow), and the split
of one torsion class over coprime factors (coprime_split_class).
"""
from fractions import Fraction

from eqslice.laurent import (
    ONE,
    TORSION_ZERO,
    ZERO,
    LaurentPoly,
    TorsionClass,
    _coprime_images,
    _image,
    divides,
    integer_lists,
    laurent_gcd,
)


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division of ordinary polynomials (valuations >= 0)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    da = a.dense()
    db = b.dense()
    nb = len(db) - 1
    lb = db[-1]
    if len(da) - 1 < nb:
        return ZERO, a
    q = [Fraction(0)] * (len(da) - nb)
    r = da[:]
    for i in range(len(da) - 1, nb - 1, -1):
        c = r[i]
        if c:
            f = c / lb
            q[i - nb] = f
            for j in range(nb + 1):
                r[i - nb + j] -= f * db[j]
    return LaurentPoly(enumerate(q)), LaurentPoly(enumerate(r))


def poly_pow(p: LaurentPoly, n: int) -> LaurentPoly:
    """p^n for n >= 0, by squaring."""
    if n < 0:
        raise ValueError("negative powers only exist for units; shift instead")
    result, base = ONE, p
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def extended_gcd(p: LaurentPoly, q: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Bezout data (g, s, u) with s*p + u*q = g, the monic ordinary gcd."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        g = q.monic_ordinary()
        return g, ZERO, oracle_divexact(g, q)
    if q.is_zero():
        g = p.monic_ordinary()
        return g, oracle_divexact(g, p), ZERO
    va, vb = p.valuation(), q.valuation()
    r0, r1 = p.shift(-va), q.shift(-vb)
    s0, s1 = ONE, ZERO
    u0, u1 = ZERO, ONE
    while not r1.is_zero():
        qq, rr = poly_divmod(r0, r1)
        r0, r1 = r1, rr
        s0, s1 = s1, s0 - qq * s1
        u0, u1 = u1, u0 - qq * u1
    lc = r0.leading_coefficient()
    inv = 1 / lc
    return r0.scale(inv), s0.scale(inv).shift(-va), u0.scale(inv).shift(-vb)


def coprime_split_class(x: TorsionClass, factors: list[LaurentPoly]) -> list[TorsionClass]:
    """Split x into classes with denominators dividing the given factors:
    the per-class split the library made for every generator pair before
    its batch coprime_split.

    The factors must be pairwise coprime and their product must annihilate x.
    The parts re-sum to x, and x = 0 iff every part is zero.
    """
    fs = [f.monic_ordinary() if not f.is_zero() else f for f in factors]
    if any(f.is_zero() for f in fs):
        raise ValueError("zero factor")
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if not laurent_gcd(fs[i], fs[j]).is_one():
                raise ValueError(f"factors {fs[i]} and {fs[j]} are not coprime")
    if x.is_zero():
        return [TORSION_ZERO] * len(fs)
    den = x.den
    product = ONE
    for f in fs:
        product = product * f
    if not divides(den, product):
        raise ValueError("product of the factors does not annihilate the class")
    parts: list[TorsionClass] = []
    rem_num = x.num
    gs = [laurent_gcd(den, f) for f in fs]
    for i in range(len(fs)):
        gi = gs[i]
        if i == len(fs) - 1:
            parts.append(TorsionClass(rem_num, gi))
            break
        rest = ONE
        for gj in gs[i + 1:]:
            rest = rest * gj
        _, s, u = extended_gcd(gi, rest)
        # 1/(gi*rest) = u/gi + s/rest
        parts.append(TorsionClass(rem_num * u, gi))
        rem_num = rem_num * s
    return parts


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
