"""Differential tests of check_nonsingular, the determinant of the trace
form eps(pair(-, -)), against the Smith-form algorithm it replaced: solve
N^T x = 0 mod den through the kernel of [N^T | den*I], then ask whether
each solution lies in the relation span.

The trace form decides only on a Hermitian, well-defined gram, so the two
are compared on every case that passes check_hermitian and
vanishes_on_relations.  The cases mix knot pairings (nonsingular), their
sums and negations, sums with repeated factors, perturbed grams and
pairings on random torsion modules, so that both verdicts occur often, on
both routes: a module's rational model and a RationalBasis.  The cases
that are not well defined check that validate skips nonsingular on them.
"""
import random
from fractions import Fraction
from functools import lru_cache, reduce

import pytest

from eqslice.catalog import assemble, builtin, sum_specs
from eqslice.involution import SemilinearMap
from eqslice.laurent import ONE, ZERO, LaurentPoly, TorsionClass, divexact, laurent_lcm
from eqslice.matrices import LambdaMatrix, in_span, kernel
from eqslice.modules import PresentedModule, direct_sum
from eqslice.pairing import (
    check_hermitian,
    check_nonsingular,
    direct_sum_pairing,
    gram_from_seifert,
    negate_pairing,
    vanishes_on_relations,
)
from eqslice.witt import EquivariantTriple, validate
from cases import CATALOG_GRID, SINGULAR_DENSE, check_cases, dense_seifert, identity, swap_double
from pairing_oracles import class_add, class_conjugate, class_scale, eps_nonsingular, pairing_from_gram


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
    return pairing_from_gram(B.module, gram)


def scaled(B, p):
    return with_gram(B, [[class_scale(g, p) for g in row] for row in B.gram])


def summed(pairings):
    """The direct_sum_pairing of the pairings, on their direct_sum module."""
    return reduce(lambda B1, B2: direct_sum_pairing(B1, B2, direct_sum(B1.module, B2.module)), pairings)


def doubled(B):
    return summed([B, B])


def composed(B, p):
    """(x, y) -> pair(p*x, p*y) = p*conj(p)*pair(x, y), Hermitian and well
    defined with B; singular when p kills a nonzero element."""
    return scaled(B, p * p.conjugate())


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


def sum_cases():
    """Well-defined pairings with repeated factors, on both routes.

    Swap doubles and block sums of Seifert matrices with det A != 0 have a
    rational model; direct_sum modules and SINGULAR_DENSE take a
    RationalBasis.  A sum whose exponent mu has a proper factor p is also
    composed with p, which kills an element, so the verdict is False.
    """
    rng = random.Random(53)
    for genus in (1, 2, 3):
        yield f"swap double dense g{genus}", gram_from_seifert(swap_double(dense_seifert(genus, rng)))
    yield "singular dense", gram_from_seifert(SINGULAR_DENSE)
    yield "singular dense swap double", gram_from_seifert(swap_double(SINGULAR_DENSE))
    trefoil = assemble(builtin("trefoil")).pairing
    yield "trefoil doubled * invariant factor", doubled(scaled(trefoil, trefoil.module.invariant_factors[0]))
    # t - 2 divides t^2 - 5/2*t + 1 and 3t - 4 divides t^2 - 25/12*t + 1
    for name, params, root in (("nine46", {}, P([-2, 1])), ("genus_one_slice", {"m": 3, "l": 5}, P([-4, 3]))):
        spec = builtin(name, **params)
        B = assemble(spec).pairing
        for label, S in (("block sum", assemble(sum_specs([spec] * 3)).pairing), ("direct sum", summed([B] * 3))):
            yield f"{name}{params} x3 {label}", S
            yield f"{name}{params} x3 {label} composed with {root}", composed(S, root)
    for (n1, p1), (n2, p2) in zip(CATALOG_GRID, CATALOG_GRID[1:]):
        B1 = assemble(builtin(n1, **p1)).pairing
        S = summed([B1, assemble(builtin(n2, **p2)).pairing])
        yield f"{n1}{p1} + {n2}{p2}", S
        mu = B1.module.invariant_factors[-1]
        if mu != S.module.invariant_factors[-1]:
            yield f"{n1}{p1} + {n2}{p2} composed with {mu}", composed(S, mu)


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
            gram[i][j] = class_add(gram[i][j], random_class(rng, module.order.monic_ordinary()))
            yield f"{label} entry ({i},{j}) shifted #{trial}", with_gram(B, gram)
        for trial in range(2):
            order = module.order.monic_ordinary()
            gram = [[random_class(rng, order) for _ in range(n)] for _ in range(n)]
            yield f"{label} random classes #{trial}", with_gram(B, gram)
        a = [random_class(rng, module.order.monic_ordinary()) for _ in range(n)]
        b = [LaurentPoly({0: rng.randint(1, 3), 1: rng.randint(-2, 2)}) for _ in range(n)]
        yield f"{label} random rank one", with_gram(B, [[class_scale(ai, bj) for bj in b] for ai in a])
        half = n // 2
        gram = [
            [g if i >= half or j >= half else TorsionClass() for j, g in enumerate(row)]
            for i, row in enumerate(B.gram)
        ]
        yield f"{label} first block zeroed", with_gram(B, gram)


def random_module_cases():
    """Hyperbolic pairings on M + conj(M), M a random torsion module with
    more relations than generators.

    With U*R*V = D the Smith form, H = U^T diag(1/d_k) U is a nonsingular
    form on M: x^T H lies in the ring iff every d_k divides (U x)_k, i.e.
    iff x is a relation.  As H is symmetric, the gram [[0, H], [conj(H), 0]]
    on M + conj(M) is Hermitian, well defined and nonsingular; composing
    it with an invariant factor d of M makes it singular.
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
        H = [
            [
                reduce(
                    class_add,
                    (TorsionClass(U.entry(k, i) * U.entry(k, j), diag[k]) for k in range(n)),
                    TorsionClass(),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        zero = [TorsionClass()] * n
        gram = [zero + row for row in H] + [[class_conjugate(h) for h in row] + zero for row in H]
        B = pairing_from_gram(direct_sum(module, PresentedModule(n, R.conjugate())), gram)
        yield f"random module #{made}", B
        yield f"random module #{made} composed with t - 1", composed(B, P([-1, 1]))
        yield f"random module #{made} composed with a factor", composed(B, max(diag[:n], key=LaurentPoly.degree))
        made += 1


FAMILIES = {
    "dense": dense_cases,
    "catalog": catalog_cases,
    "sums": sum_cases,
    "perturbed": perturbed_cases,
    "random_modules": random_module_cases,
}


@lru_cache(maxsize=None)
def verdicts(family):
    """(route, label, verdict, oracle's verdict) for each Hermitian,
    well-defined case of the family, built once and inside the tests that
    ask, so a fault fails them by name."""
    return [
        ("model" if B.module.model else "basis", label, check_nonsingular(B), kernel_oracle(B))
        for label, B in FAMILIES[family]()
        if check_hermitian(B) and vanishes_on_relations(B)
    ]


@pytest.mark.parametrize("family", FAMILIES)
def test_agrees_with_kernel_oracle(family):
    assert verdicts(family)
    disagree = [(label, new, old) for _, label, new, old in verdicts(family) if new != old]
    assert not disagree


@pytest.mark.parametrize("family", FAMILIES)
def test_eps_from_the_integer_form_agrees_with_the_class_based_eps(family):
    # the model route reads eps off common (held by gram_from_seifert,
    # derived from the classes of a crafted gram); the oracle reads it off
    # canonical classes
    cases = [(label, B) for label, B in FAMILIES[family]() if check_hermitian(B) and vanishes_on_relations(B)]
    assert cases
    disagree = [label for label, B in cases if check_nonsingular(B) != eps_nonsingular(B)]
    assert not disagree


def test_cases_reach_both_verdicts():
    cases = [(route, old) for family in FAMILIES for route, _, _, old in verdicts(family)]
    old = [o for _, o in cases]
    assert old.count(False) >= 10
    assert old.count(True) >= 10
    assert ("model", False) in cases
    assert ("basis", False) in cases


def ill_defined_cases():
    """The perturbed grams that are not well defined, and a pairing on
    Lambda/(t - 2)^2 with values over t - 2, which is neither Hermitian nor
    well defined."""
    for label, B in perturbed_cases():
        if not vanishes_on_relations(B):
            yield label, B
    R = LambdaMatrix([[P([-2, 1]) * P([-2, 1])]])
    yield "Lambda/(t - 2)^2", pairing_from_gram(PresentedModule(1, R), ((TorsionClass(ONE, P([-2, 1])),),))


def nonsingular_check(T):
    return next(c for c in validate(T).checks if c.name == "nonsingular")


def test_validate_skips_nonsingular_on_ill_defined_pairings():
    labels = []
    for label, B in ill_defined_cases():
        trivial = SemilinearMap(module=B.module, matrix=identity(B.module.generators))
        check = nonsingular_check(EquivariantTriple(module=B.module, pairing=B, involution=trivial))
        assert (label, check.passed, check.detail) == (
            label,
            False,
            "skipped: pairing not hermitian and well defined",
        )
        labels.append(label)
    assert any(label.startswith("nine46 entry") for label in labels)
    assert any("random classes" in label for label in labels)
    assert "Lambda/(t - 2)^2" in labels


def test_validate_passes_nonsingular_on_check_cases():
    failing = [label for label, T in check_cases() if not nonsingular_check(T).passed]
    assert not failing


def test_validate_checks_well_definedness_once(monkeypatch):
    # nonsingular reuses the pairing_well_defined verdict
    calls = []

    def counted(B):
        calls.append(B)
        return vanishes_on_relations(B)

    label, T = next(check_cases())
    monkeypatch.setattr("eqslice.witt.vanishes_on_relations", counted)
    assert nonsingular_check(T).passed, label
    assert len(calls) == 1


@pytest.mark.parametrize("name, params", CATALOG_GRID[:4])
def test_model_and_basis_routes_agree(name, params):
    # the same pairing read off the rational model and off a RationalBasis
    # of the same presentation without its model
    B = assemble(builtin(name, **params)).pairing
    bare = PresentedModule(B.module.generators, B.module.relations)
    assert B.module.model is not None and bare.model is None
    mu = B.module.invariant_factors[-1]
    for C, verdict in ((B, True), (composed(B, mu), False)):
        assert check_nonsingular(C) is verdict
        assert check_nonsingular(pairing_from_gram(bare, C.gram)) is verdict


# Delta = t - 3 + t^-1 and Delta' = 2t - 5 + 2t^-1 = (2t - 1)(t - 2)/t are
# symmetric, so on Lambda/(rel) the pairing (x, y) -> x conj(y) num/den is
# Hermitian when num is symmetric, and well defined when den divides rel.
DELTA = LaurentPoly({-1: 1, 0: -3, 1: 1})
DELTA2 = LaurentPoly({-1: 2, 0: -5, 1: 2})
# (t^3 + t^-3)/3 = 6 mod Delta, so it is a unit mod Delta^k
FRACTIONAL = LaurentPoly({-3: Fraction(1, 3), 3: Fraction(1, 3)})
# (t - 2)(t + 1)^2 has no t^2 term, so on Lambda/(Delta' (t + 2 + t^-1))
# the t^(D-2) coefficient, D = 4, kills a nonzero submodule and only the
# t^(D-1) coefficient decides
SQUARE = LaurentPoly({-1: 1, 0: 2, 1: 1})

CYCLIC = {
    "unit value": (DELTA, ONE, DELTA, True),
    "proper denominator": (DELTA * DELTA2, ONE, DELTA2, False),
    "full denominator of two factors": (DELTA * DELTA2, ONE, DELTA * DELTA2, True),
    "repeated factor": (DELTA * DELTA, ONE, DELTA * DELTA, True),
    "repeated factor over its root": (DELTA * DELTA, ONE, DELTA, False),
    "fractional numerator": (DELTA, FRACTIONAL, DELTA, True),
    "fractional numerator, repeated factor": (DELTA * DELTA, FRACTIONAL, DELTA * DELTA, True),
    "numerator sharing the factor": (DELTA * DELTA, FRACTIONAL * DELTA, DELTA * DELTA, False),
    "cofactor without a t^(D-2) term": (DELTA2 * SQUARE, ONE, DELTA2 * SQUARE, True),
    "zero module": (ONE, ZERO, ONE, True),
}


@pytest.mark.parametrize("case", CYCLIC)
def test_cyclic_module_by_hand(case):
    rel, num, den, verdict = CYCLIC[case]
    module = PresentedModule(1, LambdaMatrix([[rel]]))
    B = pairing_from_gram(module, ((TorsionClass(num, den),),))
    assert module.model is None
    assert check_hermitian(B) and vanishes_on_relations(B)
    assert check_nonsingular(B) is verdict
    assert kernel_oracle(B) is verdict


def test_module_without_generators_is_nonsingular():
    assert check_nonsingular(pairing_from_gram(PresentedModule(0), ()))


def test_non_torsion_module_is_singular():
    # Lambda itself, with the zero pairing
    module = PresentedModule(1, LambdaMatrix([[ZERO]]))
    assert not module.is_torsion
    assert not check_nonsingular(pairing_from_gram(module, ((TorsionClass(),),)))
