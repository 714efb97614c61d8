"""Exact arithmetic in the rational Laurent polynomial ring and in the
torsion quotient Q(t)/Lambda where linking-form values live.

Everything here is immutable and uses arbitrary-precision rationals, so
equality questions (divisibility, vanishing of a torsion class) are decided
exactly.  Units of the ring are the monomials c*t^k with c a nonzero
rational; canonical forms below fix that ambiguity.  The fraction field
itself is never formed: a value num/den is kept as a TorsionClass in one
canonical form, which classes_over alone decides, in integers, for t^e
times many numerators over one integer denominator; its first half,
reduce_over, gives the same values as integer lists with no class made.
The constructor is its one-element case.  A value that is only compared makes no class:
same_class decides equality of two fractions by one integer divisibility.
classes_over, same_class, the exact gcd, divides and divexact, the batch
coprime_split, and the pairing's and the certificates' guards work on
integer coefficient lists (integer_lists, list_dot, _pseudo_remainder,
_pseudo_divide).
"""
from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Union

Coeffable = Union[int, Fraction, str]


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DigitLimitError(ValueError):
    """A numeral longer than the interpreter's int string conversion limit."""


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
            if not isinstance(v, Fraction):
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

    def items(self):
        return self._c.items()

    def coefficient(self, k: int) -> Fraction:
        return self._c.get(k, Fraction(0))

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: Fraction(1)}

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


def as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly({0: x})
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
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _digit_limit() -> int:
    """sys.get_int_max_str_digits(), 0 for no limit.  The limit exists
    from Python 3.10.7 on; before that int() has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def parse_rational(text: str) -> Fraction:
    """A rational number written as an optional sign, ASCII digits and an
    optional /digits, the grammar of a coefficient in parse_poly.  Raises
    ValueError on anything else (exponents, decimals, underscores),
    DigitLimitError on a numerator or denominator with more digits than
    sys.get_int_max_str_digits() allows (0 is no limit) and
    ZeroDivisionError on a zero denominator."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"bad rational {text!r}")
    limit = _digit_limit()
    if limit and any(len(part.lstrip("+-")) > limit for part in text.split("/")):
        raise DigitLimitError(f"a numerator or denominator has more than {limit} digits")
    return Fraction(text)


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
                coeff = parse_rational(num)
            except DigitLimitError as e:
                raise PolyParseError(str(e), start) from None
            except (ValueError, ZeroDivisionError):
                raise PolyParseError(f"bad rational {num!r}", start) from None
            if i < n and text[i] == "*":
                if text[i + 1 : i + 2] != "t":
                    raise PolyParseError("expected 't' after '*'", i)
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
                limit = _digit_limit()
                if limit and len(text[j:i].lstrip("-")) > limit:
                    raise PolyParseError(f"an exponent has more than {limit} digits", j)
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

# A Mersenne prime.  Reduction modulo it maps the coefficients of almost
# every input to a field of small integers, where Euclid has no swell.
_PRIME = (1 << 61) - 1


def _image(f: Sequence[int]) -> list[int]:
    """The integer coefficient list f modulo _PRIME, zero top terms dropped."""
    x = [c % _PRIME for c in f]
    while x and not x[-1]:
        x.pop()
    return x


def _coprime_images(x: list[int], y: list[int]) -> bool:
    """True only if polynomials a and b over Q, whose images modulo _PRIME
    are x and y (lowest first, nonzero leading coefficients), are coprime.

    If the leading coefficient of a survives reduction, the rational gcd
    reduces to a factor of the same degree of the gcd of the images, so
    images with a constant gcd certify that a and b are coprime.  False
    means undecided.  x and y are left as they are.
    """
    if len(x) < len(y):
        x, y = y, x
    x, y = x[:], y[:]
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
    # integer multiples of a and b, whose images certify coprimality when
    # their leading coefficients survive
    (x, y), _, _ = integer_lists([a, b])
    ix, iy = _image(x), _image(y)
    if len(ix) == len(x) and len(iy) == len(y) and _coprime_images(ix, iy):
        return ONE
    # Euclid on integer lists, each remainder made primitive
    while y:
        r, _ = _pseudo_remainder(x, y)
        while r and not r[-1]:
            r.pop()
        if r:
            g = gcd(*r)
            r = [c // g for c in r]
        x, y = y, r
    return LaurentPoly((j, Fraction(c, x[-1])) for j, c in enumerate(x))


def divides(d: LaurentPoly, p: LaurentPoly) -> bool:
    """d | p in the Laurent ring (up to units)."""
    if d.is_zero():
        return p.is_zero()
    if p.is_zero() or d.is_unit():
        return True
    # each cleared over its own t-power, so an ordinary polynomial
    (f,), _, _ = integer_lists([p])
    (g,), _, _ = integer_lists([d])
    return not any(_pseudo_remainder(f, g)[0])


def divexact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact quotient p/d; raises if the division leaves a remainder."""
    if p.is_zero():
        return ZERO
    if d.is_unit():
        (k, c), = d.items()
        return p if d.is_one() else p._termmul(-k, 1 / c)
    # p = t^a f / m and d = t^b g / n, so p / d = t^(a-b) n q / (m L^k)
    (f,), m, a = integer_lists([p])
    (g,), n, b = integer_lists([d])
    q, r, k = _pseudo_divide(f, g)
    if any(r):
        raise ValueError(f"{d} does not divide {p}")
    scale = m * g[-1] ** k
    return LaurentPoly((a - b + j, Fraction(n * c, scale)) for j, c in enumerate(q))


def laurent_lcm(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    if p.is_zero() or q.is_zero():
        return ZERO
    return divexact(p * q, laurent_gcd(p, q)).monic_ordinary()


def unit_equal(p: LaurentPoly, q: LaurentPoly) -> bool:
    """Equality up to units c*t^k."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return p.monic_ordinary() == q.monic_ordinary()


# ---------------------------------------------------------------------------
# The torsion quotient.

class TorsionClass:
    """The class of num/den in (fraction field)/(Laurent ring).

    The canonical form: den monic and ordinary (nonzero constant term), num
    reduced mod den to an ordinary polynomial of degree below deg den, and
    gcd(num, den) cancelled; the zero class is 0/1.  Equality is therefore
    syntactic, and a class is zero iff num is.  classes_over decides that
    form and makes every instance; the constructor is its one-element case.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num=ZERO, den=ONE):
        # num = t^a f / m and den = t^b d / n, each over its own scale and t-power
        (f,), m, a = integer_lists([as_poly(num)])
        (d,), n, b = integer_lists([as_poly(den)])
        return classes_over([[n * c for c in f]], [m * c for c in d], a - b)[0]

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by filling
        # in the instance __new__ returns for no arguments, the shared zero
        return TorsionClass, (self.num, self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __neg__(self) -> "TorsionClass":
        return TorsionClass(-self.num, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorsionClass):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return f"({format_poly(self.num)})/({format_poly(self.den)})"

    def __repr__(self) -> str:
        return f"TorsionClass({str(self)!r})"


TORSION_ZERO = object.__new__(TorsionClass)
TORSION_ZERO.num, TORSION_ZERO.den = ZERO, ONE


def reduce_over(nums: Sequence[Sequence[int]], den: Sequence[int], e: int = 0) -> tuple[list[int], list[tuple[list[int], int]]]:
    """(p, reduced): t^e * f / den = r / (s * p) in Q(t)/Lambda for each f
    in nums and (r, s) in reduced, on integer coefficient lists, lowest
    first, with p primitive with positive leading and nonzero constant
    coefficient, len(r) <= deg p and s a nonzero integer; the first half of
    classes_over, which makes each r / (s * p) canonical.

    With den = g * t^v * p, g its content (signed so that p leads
    positive), the t^v moves into e.  For 0 <= e < deg p each f is only
    shifted; any other e is made once, as t^e = w / s modulo p, in
    O(log |e|) products (_power_mod), and each f takes one product by w.  An
    integer pseudo-remainder r = L^k * f - q * p then reduces f to degree
    below deg p, and s is g * L^k times the scale of w.  A den of one term
    gives p = [1] and every r empty.
    """
    support = [i for i, c in enumerate(den) if c]
    if not support:
        raise ZeroDivisionError("zero denominator")
    v, top = support[0], support[-1]
    if v == top:
        return [1], [([], 1)] * len(nums)
    content = gcd(*den) if den[top] > 0 else -gcd(*den)
    p = [c // content for c in den[v : top + 1]]
    e -= v
    shift = 0 <= e < len(p) - 1
    w, s = ([1], 1) if shift else _inverse_t_power(p, -e) if e < 0 else _power_mod(p, [0, 1], 1, e)
    L = p[-1]
    reduced = []
    for f in nums:
        if not shift:
            f = list_dot([w], [f])
        elif e and f:
            f = [0] * e + list(f)
        r, k = _pseudo_remainder(f, p)
        reduced.append((r, content * s * L**k))
    return p, reduced


def classes_over(nums: Sequence[Sequence[int]], den: Sequence[int], e: int = 0) -> list[TorsionClass]:
    """The canonical classes of t^e * f / den for f in nums, on integer
    coefficient lists, lowest first: the one place a class's canonical form
    is decided (see TorsionClass).

    reduce_over gives each as r / (s * p), deg r < deg p = D; the monic
    p / L is built once, for all the classes, and the class's numerator is
    r / (s * L).  It is canonical once r and p are coprime, which their
    images modulo _PRIME certify; where they cannot (a factor shared over
    Q, an unlucky prime, or L vanishing modulo it), laurent_gcd cancels the
    gcd exactly.
    """
    p, reduced = reduce_over(nums, den, e)
    L = p[-1]
    monic = LaurentPoly((j, Fraction(c, L)) for j, c in enumerate(p))
    image = _image(p)
    certifies = len(image) == len(p)
    out = []
    for r, s in reduced:
        if not any(r):
            out.append(TORSION_ZERO)
            continue
        scale = s * L
        num, over = LaurentPoly((j, Fraction(c, scale)) for j, c in enumerate(r)), monic
        x = _image(r) if certifies else None
        if not x or not _coprime_images(image, x):
            g = laurent_gcd(num, monic)
            if not g.is_one():
                num, over = divexact(num, g), divexact(monic, g)
        cls = object.__new__(TorsionClass)
        cls.num, cls.den = num, over
        out.append(cls)
    return out


def _inverse_t_power(p: Sequence[int], n: int) -> tuple[list[int], int]:
    """(w, s) with t^-n = w / s modulo p, from
    t^-1 = -(p_1 + p_2 t + ... + p_D t^(D-1)) / p_0 (see _power_mod)."""
    return _power_mod(p, [-c for c in p[1:]], p[0], n)


def _power_mod(p: Sequence[int], base: list[int], b: int, n: int) -> tuple[list[int], int]:
    """(w, s) with (base / b)^n = w / s modulo p, for n >= 1 an integer
    coefficient list (lowest first) with len(w) <= deg p: by
    square-and-multiply, each product cut back by _pseudo_remainder,
    O(log n) products in all."""
    L = p[-1]
    w, s = [1], 1
    while True:
        if n & 1:
            w, k = _pseudo_remainder(list_dot([w], [base]), p)
            s *= b * L**k
        n >>= 1
        if not n:
            return w, s
        base, k = _pseudo_remainder(list_dot([base], [base]), p)
        b *= b * L**k


def _pseudo_remainder(f: Sequence[int], den: Sequence[int]) -> tuple[list[int], int]:
    """(r, k) with r = L^k * f - q * den, of length at most D = len(den) - 1,
    for integer coefficient lists, lowest first, L = den[D] nonzero: each
    of the k steps cancels a nonzero top term.  den divides f over Q iff r
    is zero.  A step multiplies only the D terms below the top by L; a term
    further down takes the factor L^k of the steps before it once, when it
    comes within D of the top, so a step costs O(D) however long f is."""
    D = len(den) - 1
    L = den[D]
    r, k, power = list(f), 0, 1
    for s in range(len(r) - 1 - D, -1, -1):
        c = r.pop()
        if c:
            # L * r - c * t^s * den cancels the popped top term L * c; r[s:]
            # is the D terms below it
            r[s:] = [L * x - c * d for x, d in zip(r[s:], den)]
            k += 1
            power *= L
        if s:
            # the term that comes within D of the top next
            r[s - 1] *= power
    return r, k


def _pseudo_divide(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, k) with L^k * f = q * g + r and len(r) < len(g), for integer
    coefficient lists, lowest first, L = g[-1] != 0 and k the number of
    quotient terms, len(f) - len(g) + 1 or 0.  Scaling f by L^k first makes
    every step's division by L exact."""
    m = len(g) - 1
    L, k = g[-1], len(f) - m
    if k <= 0:
        return [], list(f), 0
    scale = L**k
    r = [x * scale for x in f]
    q = [0] * k
    for s in range(k - 1, -1, -1):
        top = r.pop()
        if top:
            top //= L
            q[s] = top
            for j in range(m):
                r[s + j] -= top * g[j]
    return q, r, k


def same_class(f: Sequence[int], d: Sequence[int], e: int, g: Sequence[int], h: Sequence[int], k: int) -> bool:
    """Whether t^e * f / d = t^k * g / h in Q(t)/Lambda, for integer
    coefficient lists, lowest first, d and h with nonzero constant and top
    terms; no gcd is taken and no canonical class made.

    With m = min(e, k) the difference is t^m * x / (d * h), for
    x = t^(e-m) * f * h - t^(k-m) * g * d, and it lies in Lambda iff d * h
    divides t^m * x there.  t^m is a unit, and as d(0) * h(0) != 0, d * h
    has no factor t, so that holds iff d * h divides x in Q[t]: one
    _pseudo_remainder decides it.
    """
    return same_classes([(f, g)], d, e, h, k)


def same_classes(pairs: Iterable[tuple[Sequence[int], Sequence[int]]], d: Sequence[int], e: int, h: Sequence[int], k: int) -> bool:
    """same_class(f, d, e, g, h, k) for every (f, g) in pairs."""
    return first_difference(pairs, d, e, h, k) is None


def first_difference(pairs: Iterable[tuple[Sequence[int], Sequence[int]]], d: Sequence[int], e: int, h: Sequence[int], k: int) -> int | None:
    """The index of the first (f, g) in pairs with
    t^e * f / d != t^k * g / h in Q(t)/Lambda (see same_class), None if
    there is none, with d * h formed once; a pair of zero lists costs no
    product."""
    dh, minus_d = list_dot([d], [h]), [-c for c in d]
    m = min(e, k)
    low_f, low_g = [0] * (e - m), [0] * (k - m)
    for index, (f, g) in enumerate(pairs):
        if any(f) or any(g):
            x = list_dot([low_f + list(f), low_g + list(g)], [h, minus_d])
            if any(_pseudo_remainder(x, dh)[0]):
                return index
    return None


def integer_lists(polys: Sequence[LaurentPoly]) -> tuple[list[list[int]], int, int]:
    """(lists, m, v) with polys[i] = t^v * LaurentPoly(enumerate(lists[i])) / m
    for every i: one positive integer m and one exponent v, the least in
    polys, for all of them; a zero polynomial gives []."""
    nonzero = [p._c for p in polys if p._c]
    if not nonzero:
        return [[] for _ in polys], 1, 0
    v = min(min(c) for c in nonzero)
    m = lcm(*(x.denominator for c in nonzero for x in c.values()))
    out = []
    for p in polys:
        f = [0] * (max(p._c) - v + 1) if p._c else []
        for k, x in p._c.items():
            f[k - v] = x.numerator * (m // x.denominator)
        out.append(f)
    return out, m, v


def list_dot(us: Sequence[Sequence[int]], vs: Sequence[Sequence[int]]) -> list[int]:
    """The sum of u * v over the pairs (u, v), on integer coefficient lists."""
    acc: list[int] = []
    for a, b in zip(us, vs):
        if a and b:
            acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        acc[i + j] += x * y
    return acc


def _products(factors: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """(P, cofactors) on integer coefficient lists: P the product of the
    factors and cofactors[i] the product of all but factors[i]."""
    P = [1]
    for F in factors:
        P = list_dot([P], [F])
    cofactors = []
    for i in range(len(factors)):
        others = [1]
        for G in factors[:i] + factors[i + 1 :]:
            others = list_dot([others], [G])
        cofactors.append(others)
    return P, cofactors


def _inverse_mod(a: Sequence[int], p: Sequence[int]) -> tuple[list[int], int]:
    """(w, s) with a * w = s modulo p, s a nonzero integer, so a^-1 = w / s
    modulo p, for integer coefficient lists, lowest first, p of degree at
    least 1: the extended Euclidean algorithm by pseudo-division, each
    remainder made primitive together with its cofactor.  Raises
    ValueError when a and p are not coprime over Q."""
    # invariant: s_i * a = r_i modulo p
    r0, s0 = list(p), []
    r1, k = _pseudo_remainder(a, p)
    s1 = [p[-1] ** k]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            raise ValueError("the polynomials are not coprime")
        if len(r1) == 1:
            return s1, r1[0]
        q, r2, k = _pseudo_divide(r0, r1)
        # L^k * r0 = q * r1 + r2, so r2 = L^k * s0 * a - q * s1 * a
        s2 = list_dot([s0, q], [[r1[-1] ** k], [-c for c in s1]])
        g = gcd(*r2, *s2)
        if g > 1:
            r2, s2 = [c // g for c in r2], [c // g for c in s2]
        r0, s0, r1, s1 = r1, s1, r2, s2


def coprime_split(nums: Sequence[Sequence[int]], H: Sequence[int], e: int, factors: Sequence[Sequence[int]]) -> list[list[tuple[list[int], int]]]:
    """The parts of the values t^e * f / H, f in nums, over pairwise coprime
    factors, on integer coefficient lists, lowest first: split[p][i] is
    (h, s) with t^e * nums[i] / H the sum over p of h / (s * factors[p]) in
    Q(t)/Lambda, len(h) <= deg factors[p] and s a nonzero integer.

    H and the factors have nonzero constant terms, and H divides the
    product P of the factors over Q.  The part over each factor F is
    unique, as (1/P)Lambda/Lambda is the direct sum of the
    (1/F)Lambda/Lambda, so it is computed directly: with K = P / H,
    t^e * f / H = t^e * K * f / P, and 1/P is the sum over F of c_F / F
    for c_F the inverse of P/F modulo F, so the part over F is
    (t^e * K * c_F * f mod F) / F.  z = t^e * K * c_F mod F is made once
    per factor (_inverse_mod, _inverse_t_power), so each value costs one
    product f * z and one _pseudo_remainder per factor.  Raises ValueError
    when H does not divide P or the factors are not pairwise coprime.
    """
    P, cofactors = _products(factors)
    K, r, k = _pseudo_divide(P, H)
    if any(r):
        raise ValueError("the product of the factors does not annihilate the values")
    scale_H = H[-1] ** k
    split = []
    for F, others in zip(factors, cofactors):
        c, s = _inverse_mod(others, F)
        w, sw = _inverse_t_power(F, -e) if e < 0 else ([0] * e + [1], 1)
        z, kz = _pseudo_remainder(list_dot([list_dot([c], [w])], [K]), F)
        L = F[-1]
        scale = scale_H * s * sw * L**kz
        part = []
        for f in nums:
            h, kh = _pseudo_remainder(list_dot([f], [z]), F)
            part.append((h, scale * L**kh))
        split.append(part)
    return split


def gcd_free_basis(polys: list[LaurentPoly]) -> list[LaurentPoly]:
    """Pairwise-coprime polynomials generating the inputs multiplicatively.

    Each input is, up to a unit, a product of powers of the outputs; computed
    by repeated gcd refinement.  Basis elements of degree two with rational
    roots are always split into their linear factors (no general
    factorization is attempted).
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
    split = {f for b in basis for f in _quadratic_linear_factors(b)}
    return sorted(split, key=_poly_sort_key)


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
