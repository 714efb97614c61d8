"""Differential test of laurent.classes_over, the one place the canonical
form of a torsion class is decided, against the naive fraction field of
pairing_oracles: Frac(t^e * f, den).torsion() cancels a full gcd over Q
first and then reduces the numerator mod the denominator.

classes_over(nums, den, e) must return exactly those classes, entry by
entry (num, den and str).  Seeded integer draws, no hypothesis.  Each entry
takes one of three routes, and a coverage test counts them: the integer
route (a pseudo-remainder whose image modulo 2^61 - 1 is coprime to den's),
a zero remainder, and an exact gcd over Q, for an image that is not coprime
to den's (a shared factor, or an unlucky prime) or a leading coefficient
that vanishes modulo the prime.  A den with a t-power and an exponent
e < -deg den take the integer route too.
"""
import random
from collections import Counter

import pytest

from eqslice import laurent
from eqslice.laurent import LaurentPoly, TorsionClass, classes_over, parse_poly
from eqslice.matrices import inverse_qt, seifert_pencil
from eqslice.modules import from_seifert
from eqslice.pairing import gram_from_seifert, pair_grid
from cases import SINGULAR_DENSE, dense_seifert
from laurent_oracle import poly_mod
from pairing_oracles import Frac, conjugates

PRIME = (1 << 61) - 1
KINDS = ("generic", "tpower", "shared", "prime", "long", "zero", "unit", "unlucky", "negative")
DRAWS = 450


def mul(a, b):
    """Product of integer coefficient lists, lowest first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def add(a, b):
    n = max(len(a), len(b))
    return [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


def rand_list(rng, length):
    return [rng.randint(-6, 6) for _ in range(length)]


def rand_den(rng, degree):
    """A non-monic integer polynomial of the given degree, nonzero constant term."""
    return [rng.choice([-4, -1, 1, 3])] + rand_list(rng, degree - 1) + [rng.choice([-3, -2, 2, 3, 5])]


def draw(rng, kind):
    """(nums, den, e) of the given kind.

    generic: numerators of degree up to deg den over a non-monic den,
    sometimes written with a trailing zero, and e in 0..2; tpower: den
    times t^V; shared: numerators sharing a factor of den; prime: den's
    leading coefficient is a multiple of 2^61 - 1; long: numerators of
    degree deg den + 1 or more; zero: zero lists and ring multiples of den;
    unit: den is c*t^k; unlucky: numerators congruent mod 2^61 - 1 to a
    factor of den, or to den; negative: e below -deg den.
    """
    D = rng.randint(1, 4)
    den = rand_den(rng, D)
    nums = [rand_list(rng, rng.randint(0, D + 1)) for _ in range(rng.randint(1, 6))]
    e = 0
    if kind == "generic":
        e = rng.choice([0, 0, 1, 2])
        if rng.random() < 0.3:
            den = den + [0]
    elif kind == "tpower":
        den = [0] * rng.randint(1, 2) + den
    elif kind == "shared":
        a = rand_den(rng, 1)
        den = mul(a, rand_den(rng, rng.randint(1, 3)))
        nums = [mul(a, rand_list(rng, rng.randint(1, 3))) for _ in nums]
    elif kind == "prime":
        den[-1] = rng.choice([1, -1, 2]) * PRIME
    elif kind == "long":
        nums = [rand_list(rng, len(den) + rng.randint(1, 4)) for _ in nums]
    elif kind == "zero":
        nums = [[], [0, 0, 0]] + [mul(den, rand_list(rng, rng.randint(1, 3))) for _ in nums]
    elif kind == "unit":
        den = [0] * rng.randint(0, 2) + [rng.choice([-2, 1, 7])]
    elif kind == "unlucky":
        a = rand_den(rng, 1)
        den = mul(a, rand_den(rng, rng.randint(1, 3)))
        nums = [add(rng.choice([a, den]), [PRIME * c for c in rand_list(rng, 2)]) for _ in nums]
    elif kind == "negative":
        e = -rng.randint(D + 1, 3 * D + 20)
    return nums, den, e


def naive(nums, den, e=0):
    """The classes of t^e * f / den as (num, den, str) in the fraction field."""
    out = []
    for f in nums:
        num, over = Frac(LaurentPoly(enumerate(f)).shift(e), LaurentPoly(enumerate(den))).torsion()
        out.append((num, over, "0" if num.is_zero() else f"({num})/({over})"))
    return out


def assert_same(got, expected):
    """got: classes; expected: (num, den, str) triples, or classes."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if isinstance(e, TorsionClass):
            e = (e.num, e.den, str(e))
        assert (g.num, g.den, str(g)) == e


@pytest.fixture(scope="module")
def draws():
    rng = random.Random(29)
    return [(KINDS[i % len(KINDS)], *draw(rng, KINDS[i % len(KINDS)])) for i in range(DRAWS)]


def test_classes_over_matches_the_fraction_field(draws):
    for _, nums, den, e in draws:
        assert_same(classes_over(nums, den, e), naive(nums, den, e))


def test_the_constructor_is_the_one_element_case(draws):
    for _, nums, den, e in draws[:150]:
        got = [TorsionClass(LaurentPoly(enumerate(f)).shift(e), LaurentPoly(enumerate(den))) for f in nums]
        assert_same(got, classes_over(nums, den, e))


def gcd_calls(monkeypatch):
    """A list that grows by one per laurent_gcd call, cached or not."""
    calls = []
    gcd = laurent.laurent_gcd
    monkeypatch.setattr(laurent, "laurent_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    return calls


def routes_of(nums, den, e, calls):
    """The route each f takes: zero, integer (no gcd) or gcd."""
    out = []
    for f in nums:
        calls.clear()
        (c,) = classes_over([f], den, e)
        out.append("zero" if c.is_zero() else "gcd" if calls else "integer")
    return out


def test_draws_cover_every_route(draws, monkeypatch):
    calls = gcd_calls(monkeypatch)
    routes = Counter()
    steps = 0
    for kind, nums, den, e in draws:
        D = LaurentPoly(enumerate(den)).span() if any(den) else 0
        for f, route in zip(nums, routes_of(nums, den, e, calls)):
            routes[kind, route] += 1
            if route == "integer" and e >= 0:
                steps = max(steps, len(f) + e - D)
    # a leading coefficient that vanishes modulo the prime certifies
    # nothing; a t-power of den and a negative e still certify
    assert routes["prime", "gcd"] >= 50 and routes["prime", "integer"] == 0
    assert routes["tpower", "integer"] >= 100 and routes["tpower", "gcd"] == 0
    assert routes["negative", "integer"] >= 100
    assert set(route for k, route in routes if k == "unit") == {"zero"}
    assert routes["shared", "gcd"] >= 50 and routes["shared", "integer"] == 0
    assert routes["unlucky", "gcd"] >= 50
    assert routes["zero", "zero"] >= 100
    assert routes["generic", "integer"] >= 100
    assert routes["long", "integer"] >= 100 and steps >= 3
    assert sum(n for (_, route), n in routes.items() if route == "integer") >= 400


def test_pseudo_remainder_of_long_lists():
    # r = L^k * f - q * den of length at most D, for f far longer than den
    rng = random.Random(31)
    for _ in range(300):
        den = rand_den(rng, rng.randint(1, 4))
        f = [rng.choice([0, rng.randint(-6, 6)]) for _ in range(rng.randint(0, 40))]
        r, k = laurent._pseudo_remainder(f, den)
        D = len(den) - 1
        assert len(r) <= D and k <= max(len(f) - D, 0)
        rest = LaurentPoly(enumerate(f)).scale(den[-1] ** k) - LaurentPoly(enumerate(r))
        assert poly_mod(rest, LaurentPoly(enumerate(den))).is_zero()


def test_zero_denominator_raises_like_the_constructor():
    with pytest.raises(ZeroDivisionError):
        classes_over([[1]], [0, 0])
    with pytest.raises(ZeroDivisionError):
        TorsionClass(LaurentPoly({0: 1}), LaurentPoly())


def test_classes_share_one_monic_denominator():
    classes = classes_over([[1], [0, 1], [2, 0, 1]], [1, -3, 2])
    assert classes[0].den is classes[1].den is classes[2].den
    assert classes[0].den == parse_poly("t^2 - 3/2*t + 1/2")


@pytest.mark.parametrize("content", [2, 6, -4, 10**30 + 3])
def test_a_denominator_with_content_takes_the_integer_route(draws, content, monkeypatch):
    # den = content * p: the pseudo-remainder runs on the primitive p, and
    # the content goes into the numerator's scale
    calls = gcd_calls(monkeypatch)
    for kind, nums, den, e in draws:
        if kind not in ("generic", "long", "negative"):
            continue
        scaled = [content * c for c in den]
        assert_same(classes_over(nums, scaled, e), naive(nums, scaled, e))
        # the image test sees p, as it did for den
        assert routes_of(nums, scaled, e, calls) == routes_of(nums, den, e, calls)


def conjugate_naive(classes):
    """The conjugate of each class, by the fraction field."""
    out = []
    for c in classes:
        num, over = Frac(c.num.conjugate(), c.den.conjugate()).torsion()
        out.append((num, over, "0" if num.is_zero() else f"({num})/({over})"))
    return out


def test_conjugates_match_the_fraction_field(draws, monkeypatch):
    classes = [c for _, nums, den, e in draws for c in classes_over(nums, den, e)]
    classes += [g for row in gram_from_seifert(SINGULAR_DENSE).gram for g in row]
    calls = []
    batch = laurent.classes_over

    def counted(nums, den, e=0):
        calls.append(den)
        return batch(nums, den, e)

    monkeypatch.setattr("pairing_oracles.classes_over", counted)
    got = conjugates(classes)
    assert_same(got, conjugate_naive(classes))
    # one call per distinct denominator of a nonzero class, and many classes
    # share one
    nonzero = [c for c in classes if not c.is_zero()]
    assert 200 <= len(calls) == len({c.den for c in nonzero}) <= len(nonzero) // 2
    assert conjugates([]) == []


def test_conjugates_of_a_pairing_grid_match_the_fraction_field():
    rng = random.Random(71)
    B = gram_from_seifert(dense_seifert(3, rng))
    M = B.module
    xs = [M.element([LaurentPoly({k: rng.randint(-3, 3) for k in range(-2, 2)}) for _ in range(M.generators)]) for _ in range(4)]
    grid = [g for row in pair_grid(B, xs, xs) for g in row]
    assert_same(conjugates(grid), conjugate_naive(grid))
    assert_same(conjugates(conjugates(grid)), grid)


def per_entry_gram(A):
    """The gram by the fraction field, one entry at a time, from the
    inverse gram_from_seifert takes."""
    M = from_seifert(A)
    den, F = M.model.inverse_pencil() if M.model is not None else inverse_qt(-seifert_pencil(A).transpose())
    return [naive([[b - a for a, b in zip(f + [0], [0] + f)] for f in row], den) for row in F]


@pytest.mark.parametrize("genus", range(2, 7))
def test_gram_matches_the_fraction_field(genus):
    rng = random.Random(70 + genus)
    for _ in range(2):
        A = dense_seifert(genus, rng)
        for got, expected in zip(gram_from_seifert(A).gram, per_entry_gram(A)):
            assert_same(got, expected)


def test_gram_of_a_singular_seifert_matrix_matches_the_fraction_field():
    assert from_seifert(SINGULAR_DENSE).model is None
    for got, expected in zip(gram_from_seifert(SINGULAR_DENSE).gram, per_entry_gram(SINGULAR_DENSE)):
        assert_same(got, expected)
