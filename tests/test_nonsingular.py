"""Differential tests of check_nonsingular, the rank test by spinning,
against the Smith-form algorithm it replaced: solve N^T x = 0 mod den
through the kernel of [N^T | den*I], then ask whether each solution lies
in the relation span.

The cases mix knot pairings (nonsingular), their sums and negations,
perturbed grams and pairings on random torsion modules, so that both
verdicts occur often, also on grams that are not well defined.
"""
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from eqslice.catalog import assemble, builtin
from eqslice.laurent import ONE, ZERO, LaurentPoly, TorsionClass, divexact, laurent_lcm
from eqslice.matrices import LambdaMatrix, in_span, kernel
from eqslice.modules import PresentedModule, _Quotient, _spin_rank, direct_sum
from eqslice.pairing import (
    GramPairing,
    check_nonsingular,
    direct_sum_pairing,
    gram_from_seifert,
    negate_pairing,
)
from cases import CATALOG_GRID, dense_seifert


def kernel_oracle(B):
    """The Smith-form nonsingularity check, kept as an independent oracle."""
    if not B.module.is_torsion:
        return False
    n = B.module.generators
    if n == 0:
        return True
    den = ONE
    for row in B.gram:
        for g in row:
            if not g.is_zero():
                den = laurent_lcm(den, g.den)
    N = [
        [ZERO if g.is_zero() else g.num * divexact(den, g.den) for g in row]
        for row in B.gram
    ]
    # x^T * gram has entries in the ring iff N^T x = 0 mod den, i.e.
    # [N^T | den*I] (x; y) = 0 for some y
    Nt = LambdaMatrix(N).transpose()
    dI = LambdaMatrix([[den if i == j else ZERO for j in range(n)] for i in range(n)])
    K = kernel(Nt.hstack(dI))
    for jcol in range(K.cols):
        x = list(K.col(jcol))[:n]
        if in_span(x, B.module.relations, B.module.snf) is None:
            return False
    return True


def P(coeffs):
    return LaurentPoly(enumerate(coeffs))


def with_gram(B, gram):
    return GramPairing(module=B.module, gram=tuple(tuple(row) for row in gram))


def scaled(B, p):
    return with_gram(B, [[g.scale(p) for g in row] for row in B.gram])


def doubled(B):
    return direct_sum_pairing(B, B, direct_sum(B.module, B.module))


def random_class(rng, den):
    num = LaurentPoly({k: rng.randint(-3, 3) for k in range(-1, den.degree())})
    return TorsionClass(num, den)


def dense_cases():
    rng = random.Random(41)
    for genus, count in ((1, 3), (2, 3), (3, 2), (4, 1)):
        for i in range(count):
            yield f"dense g{genus} #{i}", gram_from_seifert(dense_seifert(genus, rng))


def catalog_cases():
    for name, params in CATALOG_GRID:
        B = assemble(builtin(name, **params)).pairing
        yield f"{name}{params}", B
        yield f"{name}{params} doubled", doubled(B)
        yield f"{name}{params} negated", negate_pairing(B)


def perturbed_cases():
    rng = random.Random(43)
    bases = [
        ("nine46", assemble(builtin("nine46")).pairing),
        ("trefoil+trefoil", doubled(assemble(builtin("trefoil")).pairing)),
        ("swap_double", assemble(builtin("swap_double", inner="trefoil")).pairing),
        ("dense g2", gram_from_seifert(dense_seifert(2, rng))),
    ]
    for label, B in bases:
        module = B.module
        n = module.generators
        for k, d in enumerate(module.invariant_factors):
            yield f"{label} * invariant factor {k}", scaled(B, d)
        for name, p in (("t - 1", P([-1, 1])), ("t + 1", P([1, 1])), ("t^2 - 1", P([-1, 0, 1]))):
            yield f"{label} * ({name})", scaled(B, p)
        for trial in range(2):
            gram = [list(row) for row in B.gram]
            i, j = rng.randrange(n), rng.randrange(n)
            gram[i][j] = gram[i][j] + random_class(rng, module.order.monic_ordinary())
            yield f"{label} entry ({i},{j}) shifted #{trial}", with_gram(B, gram)
        for trial in range(2):
            order = module.order.monic_ordinary()
            gram = [[random_class(rng, order) for _ in range(n)] for _ in range(n)]
            yield f"{label} random classes #{trial}", with_gram(B, gram)
        a = [random_class(rng, module.order.monic_ordinary()) for _ in range(n)]
        b = [LaurentPoly({0: rng.randint(1, 3), 1: rng.randint(-2, 2)}) for _ in range(n)]
        yield f"{label} random rank one", with_gram(B, [[ai.scale(bj) for bj in b] for ai in a])
        half = n // 2
        gram = [
            [g if i >= half or j >= half else TorsionClass() for j, g in enumerate(row)]
            for i, row in enumerate(B.gram)
        ]
        yield f"{label} first block zeroed", with_gram(B, gram)


def random_module_cases():
    """Random torsion modules with more relations than generators.

    With U*R*V = D the Smith form, the gram U^T diag(1/d_k) U is nonsingular:
    x^T U^T diag(1/d_k) U lies in the ring iff every d_k divides (U x)_k,
    i.e. iff x is a relation.  Perturbing a block or an entry breaks that.
    """
    rng = random.Random(47)
    made = 0
    while made < 12:
        n = rng.randint(1, 3)
        m = n + rng.randint(1, 2)
        R = LambdaMatrix(
            [
                [LaurentPoly({k: rng.randint(-2, 2) for k in range(rng.randint(0, 2))}) for _ in range(m)]
                for _ in range(n)
            ]
        )
        module = PresentedModule(n, R)
        if not module.is_torsion or not module.invariant_factors:
            continue
        U, diag = module.snf.U, module.snf.diagonal
        gram = [
            [
                sum(
                    (TorsionClass(U.entry(k, i) * U.entry(k, j), diag[k]) for k in range(n)),
                    TorsionClass(),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        B = GramPairing(module=module, gram=tuple(tuple(row) for row in gram))
        yield f"random module #{made}", B
        big = max(range(n), key=lambda k: diag[k].degree())
        yield f"random module #{made} * (t - 1)", scaled(B, P([-1, 1]))
        yield f"random module #{made} * factor", scaled(B, diag[big])
        gram[0][0] = gram[0][0] + random_class(rng, diag[big])
        yield f"random module #{made} entry shifted", with_gram(B, gram)
        made += 1


FAMILIES = {
    "dense": dense_cases,
    "catalog": catalog_cases,
    "perturbed": perturbed_cases,
    "random_modules": random_module_cases,
}


@lru_cache(maxsize=None)
def verdicts(family):
    """(label, verdict, oracle's verdict) for each case of the family, built
    once and inside the tests that ask, so a fault fails them by name."""
    return [(label, check_nonsingular(B), kernel_oracle(B)) for label, B in FAMILIES[family]()]


@pytest.mark.parametrize("family", FAMILIES)
def test_agrees_with_kernel_oracle(family):
    disagree = [(label, new, old) for label, new, old in verdicts(family) if new != old]
    assert not disagree


def test_cases_reach_both_verdicts():
    old = [o for family in FAMILIES for _, _, o in verdicts(family)]
    assert old.count(False) >= 10
    assert old.count(True) >= 10


def test_denominators_that_do_not_kill_the_module_return_early(monkeypatch):
    # Such a gram fails whatever the ranks are; the divisibility test alone
    # refuses it, without spinning.
    def no_spinning(vectors, den):
        raise AssertionError("spun")

    trefoil = assemble(builtin("trefoil")).pairing
    R = LambdaMatrix([[P([-2, 1]) * P([-2, 1])]])  # the module Lambda/(t - 2)^2
    half = TorsionClass(ONE, P([-2, 1]))
    monkeypatch.setattr("eqslice.pairing._spin_rank", no_spinning)
    assert not check_nonsingular(doubled(scaled(trefoil, trefoil.module.invariant_factors[0])))
    assert not check_nonsingular(GramPairing(module=PresentedModule(1, R), gram=((half,),)))


def spin_rank(vectors, den):
    space = _Quotient(den)
    return _spin_rank(space.coordinates(vectors), space)


class TestSpinRank:
    def test_cyclic_vector_fills_its_quotient(self):
        den = P([2, -3, 1]) * P([1, 1])  # (t - 1)(t - 2)(t + 1)
        assert spin_rank([[ONE, ZERO]], den) == 3
        assert spin_rank([[P([-2, 1]), ZERO]], den) == 2
        assert spin_rank([[ONE, ZERO], [P([0, 1]), ZERO]], den) == 3
        assert spin_rank([[ONE, ONE], [ZERO, P([-1, 1])]], den) == 5

    def test_zero_vectors_and_unit_modulus(self):
        assert spin_rank([[ZERO, ZERO]], P([-2, 1])) == 0
        assert spin_rank([[P([-2, 1])]], P([-2, 1])) == 0
        assert spin_rank([[ONE]], ONE) == 0

    def test_negative_exponents_and_fractions(self):
        den = P([1, -3, 1])
        v = [LaurentPoly({-3: Fraction(1, 3), 2: 5})]
        assert spin_rank([v], den) == 2
