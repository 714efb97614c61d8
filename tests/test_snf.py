"""matrices.snf on integer coefficient lists against the LaurentPoly
elimination it replaced (snf_oracle): the same pivots and transforms give
the same SnfResult, field by field, on a seeded corpus of every kind of
matrix the library hands to snf, and the same DegreeCapError text."""
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import eqslice.matrices
import eqslice.modules
from eqslice.catalog import assemble, builtin, sum_specs
from eqslice.laurent import ZERO, LaurentPoly, parse_poly
from eqslice.matrices import DegreeCapError, LambdaMatrix, block_diag, seifert_pencil, snf
from eqslice.laurent import divexact, integer_lists
from eqslice.matrices import mat_vec
from eqslice.modules import PresentedModule, RationalBasis, from_seifert
from eqslice.witt import diagonal_metabolizer, is_metabolizer, negate, triple_sum
import snf_oracle
from snf_oracle import oracle_snf
from cases import dense_seifert, swap_double

FIELDS = ("U", "D", "V", "diagonal", "invariant_factors", "rank")
KINDS = {"dense": 8, "swap double": 8, "catalog sum": 14, "chain": 4, "kernel input": 4, "random": 120, "fix-up": 1}


def random_matrix(rng):
    """A rectangular matrix with rational coefficients and negative
    exponents; some draws have a zero row or column, or repeat a row so
    that the rank falls short of the smaller side."""
    r, c = rng.randint(1, 5), rng.randint(1, 5)
    rows = []
    for _ in range(r):
        row = []
        for _ in range(c):
            if rng.random() < 0.3:
                row.append(ZERO)
                continue
            lo = rng.randint(-2, 1)
            terms = {k: Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 4])) for k in range(lo, lo + rng.randint(0, 3) + 1)}
            row.append(LaurentPoly(terms))
        rows.append(row)
    shape = rng.random()
    if shape < 0.15:
        rows[rng.randrange(r)] = [ZERO] * c
    elif shape < 0.3:
        j = rng.randrange(c)
        for row in rows:
            row[j] = ZERO
    elif shape < 0.45 and r > 1:
        q = LaurentPoly({rng.randint(-1, 1): Fraction(rng.randint(1, 3), rng.randint(1, 2))})
        rows[-1] = [q * e for e in rows[0]]
    return LambdaMatrix(rows)


def recorded(target, name, action):
    """The matrices passed to target.name while action runs.  The library's
    Smith forms are the oracle's meanwhile, so the corpus does not depend
    on the code under test."""
    seen = []
    saved = eqslice.matrices.snf, eqslice.modules.snf, getattr(target, name)
    eqslice.matrices.snf = eqslice.modules.snf = oracle_snf
    original = getattr(target, name)

    def record(M, *args):
        seen.append(M)
        return original(M, *args)

    setattr(target, name, record)
    try:
        action()
    finally:
        setattr(target, name, saved[2])
        eqslice.matrices.snf, eqslice.modules.snf = saved[:2]
    return seen


def mixed(A, rng):
    """P^T A P for a random unimodular integer P: a Seifert matrix of the
    same knot in another basis."""
    n = len(A)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for row in P:
            row[i] += c * row[j]
    return [[sum(P[k][i] * A[k][l] * P[l][j] for k in range(n) for l in range(n)) for j in range(n)] for i in range(n)]


def chain_presentations():
    # sums with a repeated factor, in a mixed basis, have Krylov chains
    # that are not diagonal, so _RationalModel.invariant_factors hands
    # their presentation to snf
    rng = random.Random(7)
    sums = [[builtin(name).seifert for name in names] for names in (("figure_eight", "figure_eight", "trefoil"), ("nine46", "nine46", "trefoil"))]
    seifert = [mixed(block_diag(parts, 0), rng) for parts in sums for _ in range(4)]
    return recorded(eqslice.modules, "snf", lambda: [from_seifert(A).model.n for A in seifert])


def kernel_inputs():
    # the [G | -R] of submodule_presentation, for the diagonal metabolizer
    def metabolize():
        for name, params in (("nine46", {}), ("figure_eight", {}), ("genus_one_slice", {"m": 1, "l": 1}), ("swap_double", {"inner": "trefoil"})):
            T = assemble(builtin(name, **params))
            assert is_metabolizer(triple_sum(T, negate(T)), diagonal_metabolizer(T)).ok

    return recorded(eqslice.modules, "kernel", metabolize)


def corpus():
    """(kind, matrix) pairs, seeded."""
    rng = random.Random(61)
    for genus in (1, 2, 3, 4):
        for _ in range(2):
            A = dense_seifert(genus, rng)
            yield "dense", seifert_pencil(A)
            yield "swap double", seifert_pencil(swap_double(A))
    for ref in ("nine46", "genus_one_slice"):
        params = {"m": 3, "l": 5} if ref == "genus_one_slice" else {}
        for n in range(2, 9):
            yield "catalog sum", seifert_pencil(sum_specs([builtin(ref, **params)] * n).seifert)
    for M in chain_presentations():
        yield "chain", M
    for M in kernel_inputs():
        yield "kernel input", M
    for _ in range(KINDS["random"]):
        yield "random", random_matrix(rng)
    yield "fix-up", LambdaMatrix([[parse_poly("t - 2"), ZERO], [ZERO, parse_poly("t - 3")]])


@pytest.fixture(scope="module")
def cases():
    return list(corpus())


def test_corpus_covers_every_kind(cases):
    assert Counter(kind for kind, _ in cases) == KINDS
    random_draws = [M for kind, M in cases if kind == "random"]
    entries = [e for M in random_draws for row in M.to_lists() for e in row]
    assert any(c.denominator > 1 for e in entries for _, c in e.items())
    assert any(not e.is_zero() and e.valuation() < 0 for e in entries)
    assert any(all(e.is_zero() for e in M.row(i)) for M in random_draws for i in range(M.rows))
    assert any(all(e.is_zero() for e in M.col(j)) for M in random_draws for j in range(M.cols))
    assert any(0 < oracle_snf(M).rank < min(M.rows, M.cols) for M in random_draws)
    assert any(M.rows != M.cols for M in random_draws)
    assert any(not oracle_snf(M).rank for M in random_draws)
    chains = [M for kind, M in cases if kind == "chain"]
    assert all(any(not M.entry(l, j).is_zero() for j in range(M.cols) for l in range(j)) for M in chains)


@pytest.mark.parametrize("kind", KINDS)
def test_snf_equals_the_oracle_field_by_field(cases, kind):
    for i, (k, M) in enumerate(cases):
        if k == kind:
            got, expected = snf(M), oracle_snf(M)
            for field in FIELDS:
                assert getattr(got, field) == getattr(expected, field), (kind, i, field)


def random_poly(rng):
    lo = rng.randint(-2, 2)
    return LaurentPoly({k: Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 6])) for k in range(lo, lo + rng.randint(0, 4) + 1)})


def as_entry(p):
    (c,), m, v = integer_lists([p])
    return eqslice.matrices._entry(v, c, m)


def assert_canonical(e):
    # t^v * c / d with c_0, c_m != 0, d > 0 and gcd(d, c) = 1, the form
    # that keeps the numbers no larger than needed
    if e is not None:
        _, c, d = e
        assert c[0] and c[-1] and d > 0 and gcd(d, *c) == 1, e


def test_entry_operations_equal_the_ring_operations():
    # one update and one quotient by a pivot, which snf makes monic and
    # ordinary, against LaurentPoly arithmetic: a wrong power of the
    # pivot's leading coefficient fails here by name, where the whole
    # elimination would run on without converging
    rng = random.Random(62)
    pivots = 0
    for _ in range(300):
        a, q, b = random_poly(rng), random_poly(rng), random_poly(rng)
        if q.is_zero() or b.is_zero():
            continue
        update = eqslice.matrices._sub_mul(as_entry(a), as_entry(q), as_entry(b))
        assert_canonical(update)
        assert eqslice.matrices._poly(update) == a - q * b
        if a.is_zero():
            continue
        pivot = b.monic_ordinary()
        # a rational monic pivot has leading integer coefficient L > 1
        pivots += any(c.denominator > 1 for c in pivot.dense())
        quotient = eqslice.matrices._quotient(as_entry(a), as_entry(pivot))
        assert_canonical(quotient)
        assert eqslice.matrices._poly(quotient) == snf_oracle.laurent_quo(a, pivot), (a, pivot)
    assert pivots >= 50


def test_fix_up_is_reached(monkeypatch):
    # t - 2 does not divide t - 3: both versions add row 1 to row 0 once
    M = LambdaMatrix([[parse_poly("t - 2"), ZERO], [ZERO, parse_poly("t - 3")]])
    refused = []
    divides = snf_oracle.oracle_divides
    monkeypatch.setattr(snf_oracle, "oracle_divides", lambda d, p: divides(d, p) or refused.append(p) or False)
    expected = oracle_snf(M)
    assert refused == [parse_poly("t - 3")]
    remainders = []
    remainder = eqslice.matrices._pseudo_remainder
    monkeypatch.setattr(eqslice.matrices, "_pseudo_remainder", lambda f, d: remainders.append(any(remainder(f, d)[0])) or remainder(f, d))
    assert snf(M) == expected
    assert remainders.count(True) == 1
    assert expected.invariant_factors == (parse_poly("t^2 - 5*t + 6"),)


def test_entries_stay_canonical(cases, monkeypatch):
    # every entry snf makes on the way
    made = []
    entry = eqslice.matrices._entry
    monkeypatch.setattr(eqslice.matrices, "_entry", lambda v, c, d: made.append(entry(v, c, d)) or made[-1])
    for kind, M in cases:
        if kind in ("random", "swap double"):
            snf(M)
    assert made
    for e in made:
        assert_canonical(e)


def cap_message(run, M):
    with pytest.raises(DegreeCapError) as info:
        run(M)
    return str(info.value)


@pytest.mark.parametrize(
    "rows",
    [
        # over the cap on input
        [["t^600 + 1"]],
        # every input entry within the cap; the row sweep makes
        # t - 2 - (t^300 + 1) * (t^300 - 1) of span 600, and row 2 later
        # one of span 602
        [["t - 2", "t^300 + 1", "0"], ["t^300 - 1", "1", "t^2"], ["0", "t^302 + 5", "1"]],
    ],
)
def test_degree_cap_message_equals_the_oracle(rows):
    M = LambdaMatrix([[parse_poly(e) for e in row] for row in rows])
    assert max(e.span() for row in M.to_lists() for e in row if not e.is_zero()) == (600 if len(rows) == 1 else 302)
    message = cap_message(snf, M)
    assert message == cap_message(oracle_snf, M)
    assert message.startswith("intermediate degree ") and message.endswith(" exceeds cap 512")


def test_rational_basis_generators_equal_the_ring_route(cases):
    # u_i = (R V e_i) / d_i on integer lists equals the LaurentPoly route,
    # on Seifert pencils and on square random matrices of full rank, with
    # rational coefficients and negative exponents
    modules = [PresentedModule(M.rows, M) for kind, M in cases if kind != "kernel input" and M.is_square() and oracle_snf(M).rank == M.rows]
    assert sum(any(c.denominator > 1 for row in m.relations.to_lists() for e in row for _, c in e.items()) for m in modules) >= 5
    for module in modules:
        s, blocks = module.snf, RationalBasis(module).blocks
        expected = []
        for i, d in enumerate(s.diagonal):
            if not d.is_unit():
                expected.append((tuple(divexact(e, d) for e in mat_vec(module.relations, s.V.col(i))), d))
        assert [(u.coeffs, d) for u, d in blocks] == expected
