"""The rational model of a Seifert module against the Smith form.

A module built by from_seifert(A) with det A != 0 reads its invariant
factors and its zero test off C = A^T A^-1.  The oracle here is the Smith
form of the relations and in_span against it, the route every other
presentation still takes.
"""
import random
from fractions import Fraction
from functools import lru_cache, partial

import pytest

import eqslice.involution
import eqslice.matrices
import eqslice.modules
from eqslice.catalog import assemble, build, builtin, sum_specs
from eqslice.cli import main
from eqslice.involution import SemilinearMap
from eqslice.laurent import ONE, ZERO, LaurentPoly, parse_poly
from eqslice.matrices import LambdaMatrix, block_diag, in_span, mat_vec, seifert_pencil, snf
from eqslice.modules import from_seifert
from eqslice.pairing import check_nonsingular, gram_from_seifert

from cases import CATALOG_GRID, SINGULAR_DENSE, check_cases, dense_seifert, seeded_swap_doubles, swap_double
from laurent_oracle import poly_pow

# C has one Jordan block of t^2 - 3t + 1 while e_0 spans a chain of degree
# 2 only, so the chain presentation is [[p, q], [0, p]] with q != 0 and the
# module is cyclic: dropping q would give p twice.
JORDAN = [[-1, 0, -1, -1], [-1, 0, -1, 0], [-1, -1, -1, 1], [-1, 0, 0, 0]]


def nonsingular(A):
    """Whether det A != 0, by Fraction elimination.  The cases below are
    chosen with it at collection, so no library code runs before a test
    asks and a fault fails tests by name."""
    rows = [[Fraction(x) for x in r] for r in A]
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return False
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return True


def catalog_sum(name, params, k):
    return block_diag([builtin(name, **params).seifert] * k, 0)


def seifert_cases():
    """Label -> a function that builds the case's Seifert matrix."""
    cases = {}
    for name, params in CATALOG_GRID:
        for k in (1, 2, 3, 8):
            cases[f"{name}{params} x{k}"] = partial(catalog_sum, name, params, k)
    rng = random.Random(71)
    for i in range(5):
        A = dense_seifert(1 + i % 2, rng)
        cases[f"swap double g{1 + i % 2} #{i}"] = partial(swap_double, A)
    rng = random.Random(72)
    for genus in range(1, 6):
        for i in range(8 if genus < 4 else 2):
            A = dense_seifert(genus, rng)
            if nonsingular(A):
                cases[f"dense g{genus} #{i}"] = partial(list, A)
    cases["jordan"] = partial(list, JORDAN)
    return cases


def singular_draws(count):
    """Dense genus-2 draws with det A = 0, which keep the Smith form."""
    rng = random.Random(73)
    found = []
    while len(found) < count:
        A = dense_seifert(2, rng)
        if not nonsingular(A):
            found.append(A)
    return found


CASES = seifert_cases()


@lru_cache(maxsize=None)
def module(case):
    """The case's module; both tests below share its Smith form, M.snf."""
    return from_seifert(CASES[case]())


@pytest.mark.parametrize("case", sorted(CASES))
def test_invariant_factors_match_smith_form(case):
    M = module(case)
    assert M.model is not None
    s = M.snf
    assert M.invariant_factors == s.invariant_factors
    assert M.free_rank == M.generators - s.rank == 0


def test_jordan_case_takes_the_small_smith_form():
    M = from_seifert(JORDAN)
    T = M.model._chains()
    assert len(T) == 2 and not T[0][1].is_zero()
    assert T[0][0] == T[1][1] == parse_poly("t^2 - 3*t + 1")
    assert M.invariant_factors == (poly_pow(parse_poly("t^2 - 3*t + 1"), 2),)


def test_dense_pipeline_never_builds_the_pencil():
    # the relations of a module with a rational model are t*A - A^T on first
    # read; from_seifert, gram_from_seifert and check_nonsingular read none
    A = dense_seifert(4, random.Random(29))
    M = from_seifert(A)
    assert check_nonsingular(gram_from_seifert(A, M))
    assert "relations" not in vars(M)
    assert M.relations == seifert_pencil(A)


@pytest.mark.parametrize("case", ["dense g3 #0", "nine46{} x2", "jordan"])
def test_lazy_pencil_compares_as_the_eager_one(case):
    A = CASES[case]()
    lazy, eager = from_seifert(A), from_seifert(A)
    eager.relations
    assert "relations" not in vars(lazy) and "relations" in vars(eager)
    assert hash(lazy) == hash(eager) and lazy == eager
    assert hash(lazy) == hash((len(A), seifert_pencil(A)))


def test_singular_seifert_matrix_builds_its_pencil_at_once():
    M = from_seifert(SINGULAR_DENSE)
    assert M.model is None and vars(M)["relations"] == seifert_pencil(SINGULAR_DENSE)


@pytest.mark.parametrize("A", singular_draws(3))
def test_singular_seifert_matrix_keeps_the_smith_form(A):
    M = from_seifert(A)
    assert M.model is None
    assert M.invariant_factors == snf(M.relations).invariant_factors
    x = M.element([parse_poly("t^-1 + 2"), ZERO, ONE, parse_poly("t")])
    assert x.is_zero() == (in_span(list(x.coeffs), M.relations, M.snf) is not None)


def random_poly(rng, low=-2, high=2):
    return LaurentPoly({k: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for k in range(low, high + 1)})


def membership_cases():
    """(module, coefficients) pairs inside and outside the relation span."""
    rng = random.Random(74)
    for case in sorted(CASES):
        M = module(case)
        n, R = M.generators, M.relations
        for _ in range(2):
            w = [random_poly(rng) if rng.random() < 0.7 else ZERO for _ in range(R.cols)]
            inside = mat_vec(R, w)
            yield case, M, inside
            bump = [ZERO] * n
            bump[rng.randrange(n)] = random_poly(rng, -1, 0)
            yield case, M, tuple(a + b for a, b in zip(inside, bump))


def test_membership_matches_in_span():
    verdicts = []
    for case, M, coeffs in membership_cases():
        oracle = in_span(list(coeffs), M.relations, M.snf) is not None
        assert M.element(coeffs).is_zero() == oracle, case
        verdicts.append(oracle)
    assert True in verdicts and False in verdicts


def oracle_well_defined(T):
    R = T.module.relations
    s = T.module.snf
    return all(
        in_span(list(mat_vec(T.matrix, [e.conjugate() for e in R.col(c)])), R, s) is not None
        for c in range(R.cols)
    )


def oracle_involutive(T):
    n, R = T.module.generators, T.module.relations
    s = T.module.snf
    square = T.matrix * T.matrix.conjugate()
    return all(
        in_span([square.entry(i, j) - (ONE if i == j else ZERO) for i in range(n)], R, s) is not None
        for j in range(n)
    )


@pytest.mark.parametrize("name, params", [("trefoil", {}), ("twist_ka", {"a": 1}), ("twist_ka", {"a": 2})])
def test_involution_axioms_match_in_span(name, params):
    # these involutions have t-powers, so negative exponents reach the model
    T = build(builtin(name, **params)).involution
    assert any(e.span() or e.valuation() for row in T.matrix.to_lists() for e in row if not e.is_zero())
    rng = random.Random(75)
    maps = [T]
    for _ in range(6):
        entries = T.matrix.to_lists()
        i, j = rng.randrange(len(entries)), rng.randrange(len(entries))
        entries[i][j] = entries[i][j] + random_poly(rng, -1, 1)
        maps.append(SemilinearMap(module=T.module, matrix=LambdaMatrix(entries)))
    verdicts = []
    for tau in maps:
        wd = eqslice.involution.is_well_defined(tau)
        assert wd == oracle_well_defined(tau)
        assert eqslice.involution.is_involutive(tau) == oracle_involutive(tau)
        verdicts.append(wd)
    assert verdicts[0] and False in verdicts
    x = T.module.element([random_poly(rng) for _ in range(T.module.generators)])
    assert (T.apply(T.apply(x)) - x).is_zero()
    assert not (T.apply(x) - x - T.module.generator(0)).is_zero()


def workload_maps():
    """(label, map): for each triple of check_cases, the benchmark's seed-0
    swap doubles and sums of nine46 and genus_one_slice:m=3,l=5, its
    involution, the identity, t*I, the entrywise conjugate of its matrix,
    p*T for a seeded p (well defined, and involutive only where
    p*conj(p) acts as 1) and four seeded one-entry perturbations."""
    rng = random.Random(77)
    triples = [*check_cases(), *seeded_swap_doubles()]
    for name, params in (("nine46", {}), ("genus_one_slice", {"m": 3, "l": 5})):
        for k in (2, 3, 4):
            triples.append((f"{name}{params} x{k}", assemble(sum_specs([builtin(name, **params)] * k))))
    t = LaurentPoly({1: 1})
    for label, T in triples:
        tau = T.involution
        M, entries = tau.module, tau.matrix.to_lists()
        n = M.generators
        p = random_poly(rng, -1, 1)
        yield label, tau
        yield f"{label} identity", SemilinearMap(M, LambdaMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)]))
        yield f"{label} t*I", SemilinearMap(M, LambdaMatrix([[t if i == j else ZERO for j in range(n)] for i in range(n)]))
        yield f"{label} conjugate", SemilinearMap(M, tau.matrix.conjugate())
        yield f"{label} p*T", SemilinearMap(M, LambdaMatrix([[p * e for e in row] for row in entries]))
        for k in range(4):
            bumped = [list(row) for row in entries]
            i, j = rng.randrange(n), rng.randrange(n)
            bumped[i][j] = bumped[i][j] + random_poly(rng, -1, 1)
            yield f"{label} bump {k} at ({i},{j})", SemilinearMap(M, LambdaMatrix(bumped))


def test_model_axioms_match_in_span_on_workload_maps():
    # is_well_defined and is_involutive decide on the rational model by
    # integer matrix identities; the oracles test each column against the
    # relation span through the Smith form
    verdicts = []
    for label, tau in workload_maps():
        assert tau.module.model is not None, label
        got = (eqslice.involution.is_well_defined(tau), eqslice.involution.is_involutive(tau))
        assert got == (oracle_well_defined(tau), oracle_involutive(tau)), label
        verdicts.append(got)
    assert len(verdicts) >= 700
    assert verdicts.count((True, False)) >= 30
    assert {(True, True), (False, False), (False, True)} <= set(verdicts)


@pytest.fixture
def smith_forms(monkeypatch):
    """Count the Smith forms taken, wherever they are looked up."""
    calls = []
    original = eqslice.matrices.snf

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(eqslice.matrices, "snf", counting)
    monkeypatch.setattr(eqslice.modules, "snf", counting)
    return calls


def test_sum_takes_no_smith_form(smith_forms, tmp_path, capsys):
    assert main(["sum", "nine46", "figure_eight", "-o", str(tmp_path / "x.knot")]) == 0
    assert smith_forms == []


def test_dense_genus_8_pipeline_takes_no_smith_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Smith form taken")

    monkeypatch.setattr(eqslice.matrices, "snf", refuse)
    monkeypatch.setattr(eqslice.modules, "snf", refuse)
    A = dense_seifert(8, random.Random(76))
    M = from_seifert(A)
    assert M.model is not None and M.invariant_factors[0].degree() == 16
    assert check_nonsingular(gram_from_seifert(A, M))


def test_swap_is_checked_once(monkeypatch):
    calls = []
    original = eqslice.involution.is_well_defined

    def counting(T):
        calls.append(1)
        return original(T)

    monkeypatch.setattr(eqslice.involution, "is_well_defined", counting)
    assert assemble(builtin("swap_double", inner="nine46")).involution.well_defined
    assert len(calls) == 1
