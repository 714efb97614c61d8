"""Exact arithmetic in the rational Laurent polynomial ring, its fraction
field, and the torsion quotient where linking-form values live.

Everything here is immutable and uses arbitrary-precision rationals, so
equality questions (membership in the ring, vanishing of a torsion class)
are decided exactly.  Units of the ring are the monomials c*t^k with c a
nonzero rational; canonical forms below fix that ambiguity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterable, Mapping, Union

Coeffable = Union[int, Fraction, str]


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LaurentPoly:
    """Laurent polynomial with exact rational coefficients.

    Stored sparsely as an exponent -> coefficient map; zero coefficients are
    never kept, and the zero polynomial is the empty map.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Mapping[int, Coeffable] | Iterable[tuple[int, Coeffable]] = ()):
        data: dict[int, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for k, v in items:
            v = Fraction(v)
            if v:
                acc = data.get(k)
                if acc is None:
                    data[k] = v
                else:
                    acc = acc + v
                    if acc:
                        data[k] = acc
                    else:
                        del data[k]
        self._c = data
        self._hash = None

    @classmethod
    def const(cls, c: Coeffable) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def term(cls, c: Coeffable, k: int) -> "LaurentPoly":
        return cls({k: c})

    @classmethod
    def from_dense(cls, coeffs: Iterable[Coeffable], valuation: int = 0) -> "LaurentPoly":
        return cls({valuation + i: c for i, c in enumerate(coeffs)})

    def items(self):
        return self._c.items()

    def coefficient(self, k: int) -> Fraction:
        return self._c.get(k, Fraction(0))

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: Fraction(1)}

    def is_constant(self) -> bool:
        return not self._c or set(self._c) == {0}

    def is_unit(self) -> bool:
        """Units of the Laurent ring: a single term c*t^k, c != 0."""
        return len(self._c) == 1

    def degree(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def valuation(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    def span(self) -> int:
        return self.degree() - self.valuation()

    def leading_coefficient(self) -> Fraction:
        return self._c[self.degree()]

    def trailing_coefficient(self) -> Fraction:
        return self._c[self.valuation()]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data = dict(self._c)
        for k, v in other._c.items():
            acc = data.get(k)
            if acc is None:
                data[k] = v
            else:
                acc = acc + v
                if acc:
                    data[k] = acc
                else:
                    del data[k]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = data
        out._hash = None
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {k: -v for k, v in self._c.items()}
        out._hash = None
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._c or not other._c:
            return ZERO
        if len(other._c) == 1:
            (k, v), = other._c.items()
            return self._termmul(k, v)
        if len(self._c) == 1:
            (k, v), = self._c.items()
            return other._termmul(k, v)
        data: dict[int, Fraction] = {}
        for ka, va in self._c.items():
            for kb, vb in other._c.items():
                k = ka + kb
                acc = data.get(k)
                if acc is None:
                    data[k] = va * vb
                else:
                    data[k] = acc + va * vb
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {k: v for k, v in data.items() if v}
        out._hash = None
        return out

    def _termmul(self, k: int, v: Fraction) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {k + kk: v * vv for kk, vv in self._c.items()}
        out._hash = None
        return out

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers only exist for units; shift instead")
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit t^k."""
        if k == 0:
            return self
        return self._termmul(k, Fraction(1))

    def scale(self, c: Coeffable) -> "LaurentPoly":
        c = Fraction(c)
        if c == 1:
            return self
        if not c:
            return ZERO
        return self._termmul(0, c)

    def conjugate(self) -> "LaurentPoly":
        """The ring involution t^k -> t^-k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-k: v for k, v in self._c.items()}
        out._hash = None
        return out

    def evaluate(self, x: Coeffable) -> Fraction:
        x = Fraction(x)
        if not self._c:
            return Fraction(0)
        if x == 0 and self.valuation() < 0:
            raise ZeroDivisionError("negative exponents at t=0")
        return sum((c * x ** k for k, c in self._c.items()), Fraction(0))

    def ordinary(self) -> "LaurentPoly":
        """The associate with valuation 0 (an ordinary polynomial)."""
        if not self._c:
            return self
        return self.shift(-self.valuation())

    def monic_ordinary(self) -> "LaurentPoly":
        """Canonical associate: monic ordinary polynomial, nonzero constant term."""
        if not self._c:
            raise ValueError("zero polynomial has no monic associate")
        p = self.ordinary()
        return p.scale(1 / p.leading_coefficient())

    def dense(self) -> list[Fraction]:
        """Coefficient list c_0..c_deg; requires valuation >= 0."""
        if not self._c:
            return []
        if self.valuation() < 0:
            raise ValueError("dense form needs nonnegative exponents")
        out = [Fraction(0)] * (self.degree() + 1)
        for k, v in self._c.items():
            out[k] = v
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
T = LaurentPoly({1: 1})


def as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    if isinstance(x, str):
        return parse_poly(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")


# ---------------------------------------------------------------------------
# Text grammar: terms `c`, `c*t`, `c*t^k` joined by +/-, rational c like -5
# or 2/3; bare `t` / `t^k` accepted on input, 1-coefficients elided on output.

def format_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for k in sorted(p._c, reverse=True):
        c = p._c[k]
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            tpart = "t" if k == 1 else f"t^{k}"
            body = tpart if mag == 1 else f"{mag}*{tpart}"
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces)


# ASCII only: str.isdigit also accepts superscripts, which int() rejects,
# and the digits of other scripts, which int() converts.
_DIGITS = "0123456789"


def parse_poly(text: str) -> LaurentPoly:
    coeffs: list[tuple[int, Fraction]] = []
    i, n = 0, len(text)
    first = True
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        sign = 1
        if text[i] in "+-":
            if text[i] == "-":
                sign = -1
            i += 1
            while i < n and text[i].isspace():
                i += 1
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", i)
        start = i
        num = ""
        while i < n and (text[i] in _DIGITS or text[i] == "/"):
            num += text[i]
            i += 1
        coeff = None
        if num:
            try:
                coeff = Fraction(num)
            except (ValueError, ZeroDivisionError):
                raise PolyParseError(f"bad rational {num!r}", start) from None
            if i < n and text[i] == "*":
                i += 1
        exp = None
        if i < n and text[i] == "t":
            i += 1
            exp = 1
            if i < n and text[i] == "^":
                i += 1
                j = i
                if i < n and text[i] == "-":
                    i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
                if i == j or text[j:i] in ("-",):
                    raise PolyParseError("expected integer exponent after '^'", j)
                exp = int(text[j:i])
        if coeff is None and exp is None:
            raise PolyParseError("expected a term", start)
        if coeff is None:
            coeff = Fraction(1)
        if exp is None:
            exp = 0
        coeffs.append((exp, sign * coeff))
        first = False
    if first:
        raise PolyParseError("empty polynomial", 0)
    return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# Division, gcd, and friends.

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
    return LaurentPoly.from_dense(q), LaurentPoly.from_dense(r)


def poly_mod(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    return poly_divmod(a, b)[1]


def laurent_quo(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Quotient q such that a - q*b has smaller ordinary degree than b."""
    va, vb = a.valuation(), b.valuation()
    q, _ = poly_divmod(a.shift(-va), b.shift(-vb))
    return q.shift(va - vb)


# A Mersenne prime.  Reduction modulo it maps the coefficients of almost
# every input to a field of small integers, where Euclid has no swell.
_PRIME = (1 << 61) - 1


def _dense_mod_prime(p: LaurentPoly) -> list[int] | None:
    """Coefficients of the ordinary polynomial p modulo _PRIME, lowest first;
    None if a denominator or the leading coefficient vanishes modulo it."""
    out = [0] * (p.degree() + 1)
    for k, c in p.items():
        v, d = c.numerator % _PRIME, c.denominator
        if d != 1:
            if not d % _PRIME:
                return None
            v = v * pow(d, -1, _PRIME) % _PRIME
        out[k] = v
    return out if out[-1] else None


def _coprime_mod_prime(a: LaurentPoly, b: LaurentPoly) -> bool:
    """True only if the ordinary polynomials a and b are coprime over Q.

    If the leading coefficient of a survives reduction, the rational gcd
    reduces to a factor of the same degree of the gcd of the images, so
    images with a constant gcd certify that a and b are coprime.  False
    means undecided.
    """
    x, y = _dense_mod_prime(a), _dense_mod_prime(b)
    if x is None or y is None:
        return False
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        inv = pow(y[-1], -1, _PRIME)
        ny = len(y) - 1
        for i in range(len(x) - 1, ny - 1, -1):
            f = x[i] * inv % _PRIME
            if f:
                for j in range(ny):
                    x[i - ny + j] = (x[i - ny + j] - f * y[j]) % _PRIME
        x = x[:ny]
        while x and not x[-1]:
            x.pop()
        if not x:
            return False
        x, y = y, x
    return True


@lru_cache(maxsize=8192)
def laurent_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Monic ordinary-polynomial gcd in the Laurent ring (units stripped)."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic_ordinary()
    if q.is_zero():
        return p.monic_ordinary()
    a, b = p.ordinary(), q.ordinary()
    if _coprime_mod_prime(a, b):
        return ONE
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
        if not b.is_zero():
            b = b.scale(1 / b.leading_coefficient())
    return a.monic_ordinary()


def extended_gcd(p: LaurentPoly, q: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Bezout data (g, s, u) with s*p + u*q = g, the monic ordinary gcd."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        g = q.monic_ordinary()
        return g, ZERO, divexact(g, q)
    if q.is_zero():
        g = p.monic_ordinary()
        return g, divexact(g, p), ZERO
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


def divides(d: LaurentPoly, p: LaurentPoly) -> bool:
    """d | p in the Laurent ring (up to units)."""
    if d.is_zero():
        return p.is_zero()
    if p.is_zero():
        return True
    return poly_mod(p.ordinary(), d.ordinary()).is_zero()


def divexact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
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


def laurent_lcm(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    if p.is_zero() or q.is_zero():
        return ZERO
    return divexact(p * q, laurent_gcd(p, q)).monic_ordinary()


def unit_equal(p: LaurentPoly, q: LaurentPoly) -> bool:
    """Equality up to units c*t^k."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return p.monic_ordinary() == q.monic_ordinary()


@lru_cache(maxsize=1024)
def _t_inverse_mod(den: LaurentPoly) -> LaurentPoly:
    # den ordinary with constant term a_0 != 0, so t is invertible:
    # t^-1 = -(a_1 + a_2 t + ... + a_d t^(d-1)) / a_0  (mod den)
    c = den.dense()
    if not c or not c[0]:
        raise ValueError("t is not invertible modulo the denominator")
    return LaurentPoly.from_dense([-v / c[0] for v in c[1:]])


def _reduce_mod(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Ordinary representative of num mod den with degree < deg den.

    den must be an ordinary polynomial with nonzero constant term, so that t
    is invertible in the quotient and every class has such a representative.
    """
    if num.is_zero():
        return ZERO
    v = num.valuation()
    if v >= 0:
        return poly_mod(num, den)
    r = poly_mod(num.shift(-v), den)
    tinv = _t_inverse_mod(den)
    for _ in range(-v):
        r = poly_mod(r * tinv, den)
    return r


# ---------------------------------------------------------------------------
# Fraction field elements in canonical form.

class RationalFn:
    """Element of the fraction field, kept in canonical form.

    The denominator is a monic ordinary polynomial with nonzero constant term
    and shares no non-unit factor with the numerator; the t-power unit slack
    lives in the numerator.  This makes equality and ring membership
    syntactic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = as_poly(num)
        den = as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = ZERO
            self.den = ONE
            return
        vd = den.valuation()
        lc = den.leading_coefficient()
        den0 = den.shift(-vd).scale(1 / lc)
        num0 = num.shift(-vd).scale(1 / lc)
        g = laurent_gcd(num0, den0)
        if not g.is_one():
            num0 = divexact(num0, g)
            den0 = divexact(den0, g)
        self.num = num0
        self.den = den0

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        """Membership in the Laurent ring inside the fraction field."""
        return self.den.is_one()

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalFn":
        out = RationalFn.__new__(RationalFn)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def conjugate(self) -> "RationalFn":
        return RationalFn(self.num.conjugate(), self.den.conjugate())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return format_poly(self.num)
        return f"({format_poly(self.num)})/({format_poly(self.den)})"

    def __repr__(self) -> str:
        return f"RationalFn({str(self)!r})"


def in_lambda(f: RationalFn) -> bool:
    """True iff f lies in the Laurent ring, i.e. its torsion class is zero."""
    return f.is_polynomial()


# ---------------------------------------------------------------------------
# The torsion quotient.

class TorsionClass:
    """Class in (fraction field)/(Laurent ring), in canonical reduced form.

    The stored representative has an ordinary numerator of degree strictly
    less than the denominator's degree; the class is zero iff the
    representative is zero, so equality is syntactic.
    """

    __slots__ = ("rep",)

    def __init__(self, rep=None):
        if rep is None:
            rep = RationalFn(ZERO)
        if not isinstance(rep, RationalFn):
            rep = RationalFn(as_poly(rep))
        if rep.is_polynomial():
            self.rep = RationalFn(ZERO)
            return
        r = _reduce_mod(rep.num, rep.den)
        out = RationalFn.__new__(RationalFn)
        out.num = r
        out.den = rep.den
        self.rep = out

    @classmethod
    def of(cls, num, den) -> "TorsionClass":
        return cls(RationalFn(num, den))

    def is_zero(self) -> bool:
        return self.rep.num.is_zero()

    def __add__(self, other: "TorsionClass") -> "TorsionClass":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return TorsionClass(self.rep + other.rep)

    def __sub__(self, other: "TorsionClass") -> "TorsionClass":
        return self + (-other)

    def __neg__(self) -> "TorsionClass":
        out = TorsionClass.__new__(TorsionClass)
        out.rep = -self.rep
        return out

    def scale(self, p) -> "TorsionClass":
        """Multiply by a ring element (or rational scalar)."""
        p = as_poly(p)
        if p.is_zero() or self.is_zero():
            return TORSION_ZERO
        if p.is_one():
            return self
        return TorsionClass(RationalFn(self.rep.num * p, self.rep.den))

    def __rmul__(self, p) -> "TorsionClass":
        return self.scale(p)

    def conjugate(self) -> "TorsionClass":
        return TorsionClass(self.rep.conjugate())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorsionClass):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __str__(self) -> str:
        return "0" if self.is_zero() else str(self.rep)

    def __repr__(self) -> str:
        return f"TorsionClass({str(self)!r})"


TORSION_ZERO = TorsionClass()


def coprime_split(x: TorsionClass, factors: list[LaurentPoly]) -> list[TorsionClass]:
    """Split x into classes with denominators dividing the given factors.

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
    den = x.rep.den
    product = ONE
    for f in fs:
        product = product * f
    if not divides(den, product):
        raise ValueError("product of the factors does not annihilate the class")
    parts: list[TorsionClass] = []
    rem_num = x.rep.num
    gs = [laurent_gcd(den, f) for f in fs]
    for i in range(len(fs)):
        gi = gs[i]
        if i == len(fs) - 1:
            parts.append(TorsionClass(RationalFn(rem_num, gi)))
            break
        rest = ONE
        for gj in gs[i + 1:]:
            rest = rest * gj
        _, s, u = extended_gcd(gi, rest)
        # 1/(gi*rest) = u/gi + s/rest
        parts.append(TorsionClass(RationalFn(rem_num * u, gi)))
        rem_num = rem_num * s
    return parts


def gcd_free_basis(polys: list[LaurentPoly], split_quadratics: bool = False) -> list[LaurentPoly]:
    """Pairwise-coprime polynomials generating the inputs multiplicatively.

    Each input is, up to a unit, a product of powers of the outputs; computed
    by repeated gcd refinement.  With split_quadratics, basis elements of
    degree two whose discriminant is a rational square are split into their
    linear factors (no general factorization is attempted).
    """
    queue = []
    for p in polys:
        if p.is_zero():
            raise ValueError("zero polynomial in gcd-free basis input")
        m = p.monic_ordinary()
        if not m.is_one():
            queue.append(m)
    basis: list[LaurentPoly] = []
    while queue:
        p = queue.pop()
        if p.is_one():
            continue
        for i, b in enumerate(basis):
            g = laurent_gcd(p, b)
            if not g.is_one():
                del basis[i]
                queue.extend([g, divexact(b, g), divexact(p, g)])
                break
        else:
            basis.append(p)
    if split_quadratics:
        split: list[LaurentPoly] = []
        for b in basis:
            split.extend(_quadratic_linear_factors(b))
        basis = sorted(set(split), key=_poly_sort_key)
    else:
        basis = sorted(basis, key=_poly_sort_key)
    return basis


def _quadratic_linear_factors(p: LaurentPoly) -> list[LaurentPoly]:
    if p.degree() != 2:
        return [p]
    c = p.dense()
    disc = c[1] * c[1] - 4 * c[0] * c[2]
    root = _rational_sqrt(disc)
    if root is None:
        return [p]
    r1 = (-c[1] + root) / (2 * c[2])
    r2 = (-c[1] - root) / (2 * c[2])
    lin1 = LaurentPoly({1: 1, 0: -r1})
    if r1 == r2:
        return [lin1]
    return [lin1, LaurentPoly({1: 1, 0: -r2})]


def _poly_sort_key(p: LaurentPoly):
    return (p.degree(), tuple(p.dense()))


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def is_rational_square(x: Fraction) -> bool:
    return _rational_sqrt(Fraction(x)) is not None


def normalize_alexander(p: LaurentPoly) -> LaurentPoly:
    """Preferred unit-multiple of an order polynomial.

    Units normalize to 1; when a conjugation-symmetric associate exists it is
    returned with positive leading coefficient; otherwise the monic ordinary
    associate.  Idempotent.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no normalization")
    if p.is_unit():
        return ONE
    d, v = p.degree(), p.valuation()
    if (d + v) % 2 == 0:
        q = p.shift(-(d + v) // 2)
        if q.conjugate() == q:
            if q.leading_coefficient() < 0:
                q = -q
            return q
    return p.monic_ordinary()


@dataclass(frozen=True)
class QuadraticSymmetryReport:
    irreducible: bool
    fox_milnor_possible: bool
    witness: Fraction


def symmetric_quadratic_tests(p: LaurentPoly) -> QuadraticSymmetryReport:
    """Irreducibility and Fox-Milnor feasibility for a symmetric quadratic.

    Requires p to be, up to a unit, conjugation-symmetric of exponent span 2
    with |p(1)| = 1.  Irreducibility is decided by the discriminant not being
    a rational square; the Fox-Milnor condition needs |p(-1)| to be a perfect
    square, and that evaluation is reported as the witness.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    q = normalize_alexander(p)
    if q.conjugate() != q or q.span() != 2:
        raise ValueError("not a symmetric polynomial of exponent span 2")
    if abs(q.evaluate(1)) != 1:
        raise ValueError("|p(1)| must be 1")
    ordinary = q.ordinary()
    c = ordinary.dense()
    disc = c[1] * c[1] - 4 * c[0] * c[2]
    witness = abs(ordinary.evaluate(-1))
    return QuadraticSymmetryReport(
        irreducible=not is_rational_square(disc),
        fox_milnor_possible=is_rational_square(witness),
        witness=witness,
    )
