"""Differential test of laurent.classes_over against the TorsionClass
constructor it batches.

classes_over(nums, den) must return exactly the constructor's classes of
f / den, entry by entry (num, den and str).  Seeded integer draws, no
hypothesis.  Each entry takes one of three routes, and a coverage test
counts them: the integer route (a pseudo-remainder whose image modulo
2^61 - 1 is coprime to den's), a zero remainder, and the constructor, for a
den with a t-power, a leading coefficient that vanishes modulo the prime,
or an image that is not coprime to den's (a shared factor, or an unlucky
prime).
"""
import random
from collections import Counter

import pytest

from eqslice import laurent
from eqslice.laurent import LaurentPoly, TorsionClass, classes_over, conjugates, parse_poly
from eqslice.matrices import inverse_qt, seifert_pencil
from eqslice.modules import from_seifert
from eqslice.pairing import gram_from_seifert, pair_grid
from cases import SINGULAR_DENSE, dense_seifert

PRIME = (1 << 61) - 1
KINDS = ("generic", "tpower", "shared", "prime", "long", "zero", "unit", "unlucky")
DRAWS = 400


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
    """(nums, den) of the given kind.

    generic: numerators of degree up to deg den over a non-monic den,
    sometimes written with a trailing zero; tpower: den times t^V; shared:
    numerators sharing a factor of den; prime: den's leading coefficient
    is a multiple of 2^61 - 1; long: numerators of degree deg den + 1 or
    more; zero: zero lists and ring multiples of den; unit: den is c*t^k;
    unlucky: numerators congruent mod 2^61 - 1 to a factor of den, or to den.
    """
    D = rng.randint(1, 4)
    den = rand_den(rng, D)
    nums = [rand_list(rng, rng.randint(0, D + 1)) for _ in range(rng.randint(1, 6))]
    if kind == "generic" and rng.random() < 0.3:
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
    return nums, den


def constructor(nums, den):
    return [TorsionClass(LaurentPoly(enumerate(f)), LaurentPoly(enumerate(den))) for f in nums]


def assert_same(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g.num, g.den, str(g)) == (e.num, e.den, str(e))


@pytest.fixture(scope="module")
def draws():
    rng = random.Random(29)
    return [(KINDS[i % len(KINDS)], *draw(rng, KINDS[i % len(KINDS)])) for i in range(DRAWS)]


def test_classes_over_matches_the_constructor(draws):
    for _, nums, den in draws:
        assert_same(classes_over(nums, den), constructor(nums, den))


def test_draws_cover_every_route(draws, monkeypatch):
    # the classes the constructor made during classes_over are its fallbacks
    made = []
    init = TorsionClass.__init__

    def recording(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(TorsionClass, "__init__", recording)
    routes = Counter()
    steps = 0
    for kind, nums, den in draws:
        made.clear()
        D = LaurentPoly(enumerate(den)).degree()
        for f, c in zip(nums, classes_over(nums, den)):
            if any(c is m for m in made):
                route = "constructor"
            elif c.is_zero():
                route = "zero"
            else:
                route = "integer"
                steps = max(steps, len(f) - D)
            routes[kind, route] += 1
    # the undecided inputs go to the constructor, and only they
    for kind in ("tpower", "prime"):
        assert set(route for k, route in routes if k == kind) == {"constructor"}
    assert set(route for k, route in routes if k == "unit") == {"zero"}
    assert routes["shared", "constructor"] >= 50 and routes["shared", "integer"] == 0
    assert routes["unlucky", "constructor"] >= 50
    assert routes["zero", "zero"] >= 100
    assert routes["generic", "integer"] >= 100
    assert routes["long", "integer"] >= 100 and steps >= 3
    assert sum(n for (_, route), n in routes.items() if route == "integer") >= 300


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
    made = []
    init = TorsionClass.__init__

    def recording(self, *args):
        made.append(self)
        init(self, *args)

    for kind, nums, den in draws:
        if kind not in ("generic", "long"):
            continue
        scaled = [content * c for c in den]
        expected = constructor(nums, scaled)
        with monkeypatch.context() as m:
            m.setattr(TorsionClass, "__init__", recording)
            made.clear()
            got = classes_over(nums, scaled)
            fallbacks = len(made)
        assert_same(got, expected)
        # the image test sees p, as it did for den
        assert fallbacks == sum(any(c is x for x in made) for c in classes_over(nums, den))


def test_conjugates_match_the_constructor(draws, monkeypatch):
    classes = [c for _, nums, den in draws for c in constructor(nums, den)]
    classes += [g for row in gram_from_seifert(SINGULAR_DENSE).gram for g in row]
    calls = []
    batch = laurent.classes_over

    def counted(nums, den):
        calls.append(den)
        return batch(nums, den)

    monkeypatch.setattr(laurent, "classes_over", counted)
    got = conjugates(classes)
    assert_same(got, [c.conjugate() for c in classes])
    # one call per distinct denominator of a nonzero class, and many classes
    # share one
    nonzero = [c for c in classes if not c.is_zero()]
    assert 200 <= len(calls) == len({c.den for c in nonzero}) <= len(nonzero) // 2
    assert conjugates([]) == []


def test_conjugates_of_a_pairing_grid_match_the_constructor():
    rng = random.Random(71)
    B = gram_from_seifert(dense_seifert(3, rng))
    M = B.module
    xs = [M.element([LaurentPoly({k: rng.randint(-3, 3) for k in range(-2, 2)}) for _ in range(M.generators)]) for _ in range(4)]
    grid = [g for row in pair_grid(B, xs, xs) for g in row]
    assert_same(conjugates(grid), [g.conjugate() for g in grid])
    assert_same(conjugates(conjugates(grid)), grid)


def per_entry_gram(A):
    """The gram as the constructor makes it, one entry at a time, from the
    inverse gram_from_seifert takes."""
    M = from_seifert(A)
    den, F = M.model.inverse_pencil() if M.model is not None else inverse_qt(-seifert_pencil(A).transpose())
    den = LaurentPoly(enumerate(den))
    return [[TorsionClass(parse_poly("t - 1") * LaurentPoly(enumerate(f)), den) for f in row] for row in F]


@pytest.mark.parametrize("genus", range(2, 7))
def test_gram_matches_the_per_entry_constructor(genus):
    rng = random.Random(70 + genus)
    for _ in range(2):
        A = dense_seifert(genus, rng)
        for got, expected in zip(gram_from_seifert(A).gram, per_entry_gram(A)):
            assert_same(got, expected)


def test_gram_of_a_singular_seifert_matrix_matches_the_per_entry_constructor():
    assert from_seifert(SINGULAR_DENSE).model is None
    for got, expected in zip(gram_from_seifert(SINGULAR_DENSE).gram, per_entry_gram(SINGULAR_DENSE)):
        assert_same(got, expected)
