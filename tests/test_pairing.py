import random
from fractions import Fraction
from functools import lru_cache, partial

import pytest

from eqslice import laurent, pairing
from eqslice.catalog import assemble, builtin, sum_specs
from eqslice.laurent import (
    ONE,
    TORSION_ZERO,
    ZERO,
    LaurentPoly,
    TorsionClass,
    parse_poly,
)
from eqslice.matrices import block_diag, inverse_qt, seifert_pencil
from eqslice.modules import direct_sum, from_seifert
from eqslice.pairing import (
    GramPairing,
    check_hermitian,
    check_nonsingular,
    direct_sum_pairing,
    gram_from_seifert,
    negate_pairing,
    pair,
    pair_grid,
    vanishes_on_relations,
)
from eqslice.witt import negate, triple_sum
from cases import CATALOG_GRID, SINGULAR_DENSE, check_cases, dense_seifert, swap_double
from pairing_oracles import (
    class_add,
    class_scale,
    common_via_reduce_over,
    inverse_pencil_table,
    pair_per_term,
    pair_via_solve,
    pairing_from_gram,
    vanishes_per_term,
)
from test_exact_linear_algebra import assert_inverse


def P(s):
    return parse_poly(s)


def cls(num, den):
    return TorsionClass(P(num) if isinstance(num, str) else num, P(den) if isinstance(den, str) else den)


NINE46 = [[0, 2], [1, 0]]


def genus_one(m, l):
    return [[0, m + 1], [m, l]]


class TestGramFromSeifert:
    def test_nine46_golden_gram(self):
        B = gram_from_seifert(NINE46)
        assert B.gram[0][0].is_zero()
        assert B.gram[1][1].is_zero()
        assert B.gram[0][1] == cls("-t + 1", "2*t - 1")
        assert B.gram[1][0] == cls("-t + 1", "t - 2")

    def test_genus_one_self_pairing(self):
        # gram[0][0] is the class of l*(1-t)^2 / ((mt-(m+1))((m+1)t-m))
        for m, l in [(1, 1), (2, 3), (-2, 1)]:
            B = gram_from_seifert(genus_one(m, l))
            delta = LaurentPoly({1: m, 0: -(m + 1)}) * LaurentPoly({1: m + 1, 0: -m})
            expected = cls(P("1 - t") * P("1 - t") * LaurentPoly({0: l}), delta)
            assert B.gram[0][0] == expected

    def test_unknot_empty(self):
        B = gram_from_seifert([])
        assert B.gram == ()

    def test_singular_input_rejected(self):
        with pytest.raises(ValueError):
            gram_from_seifert([[0, 1], [1, 0]])


class TestPair:
    def test_nine46_tau_quadratic_value(self):
        B = gram_from_seifert(NINE46)
        M = B.module
        rng = random.Random(30)
        for _ in range(25):
            c1 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            c2 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            x = M.element([LaurentPoly({0: c1}), LaurentPoly({0: c2})])
            tx = M.element([LaurentPoly({0: c2}), LaurentPoly({0: c1})])
            got = pair(B, x, tx)
            expected = class_add(
                cls(P("-1").scale(c1 * c1) * P("t - 1"), "2*t - 1"), cls(P("-1").scale(c2 * c2) * P("t - 1"), "t - 2")
            )
            assert got == expected

    def test_pair_with_zero(self):
        B = gram_from_seifert(NINE46)
        M = B.module
        x = M.element([ONE, P("t")])
        assert pair(B, x, M.element([ZERO, ZERO])).is_zero()

    def test_genus_one_y_elements(self):
        m, l = 1, 1
        B = gram_from_seifert(genus_one(m, l))
        M = B.module
        p = LaurentPoly({1: m, 0: -(m + 1)})
        q = LaurentPoly({1: m + 1, 0: -m})
        y1 = M.element([q, ZERO])
        y2 = M.element([p, ZERO])
        assert pair(B, y1, y1).is_zero()
        assert pair(B, y2, y2).is_zero()
        expected = TorsionClass(P("-1").scale(l) * P("t^-1") * P("1 - t") * P("1 - t") * q, p)
        assert pair(B, y1, y2) == expected

    def test_sesquilinear(self):
        B = gram_from_seifert(NINE46)
        M = B.module
        rng = random.Random(31)
        for _ in range(20):
            pp = LaurentPoly({k: rng.randint(-2, 2) for k in range(-1, 2)})
            qq = LaurentPoly({k: rng.randint(-2, 2) for k in range(-1, 2)})
            x = M.element([LaurentPoly({0: rng.randint(-3, 3)}), LaurentPoly({0: rng.randint(-3, 3)})])
            y = M.element([LaurentPoly({0: rng.randint(-3, 3)}), LaurentPoly({0: rng.randint(-3, 3)})])
            lhs = pair(B, x.scale(pp), y.scale(qq))
            rhs = class_scale(pair(B, x, y), pp * qq.conjugate())
            assert lhs == rhs

    def test_vanishes_fails_on_a_class_the_relations_do_not_kill(self):
        # nine46 has relations (0, t - 2) and (2t - 1, 0), and 1/(t - 2)
        # times conj(t - 2) = t^-1 - 2 leaves (1 - 2t)/(t(t - 2)) behind
        B = gram_from_seifert(NINE46)
        for (i, j), den, kept in [((1, 1), "t - 2", False), ((0, 1), "t - 3", False), ((0, 0), "t - 2", True)]:
            gram = [list(row) for row in B.gram]
            gram[i][j] = class_add(gram[i][j], cls("1", den))
            shifted = pairing_from_gram(B.module, gram)
            assert vanishes_on_relations(shifted) is kept
            assert vanishes_per_term(shifted) is kept

    def test_vanishes_on_relations(self):
        for A in [NINE46, genus_one(2, 3), [[1, 1], [0, -1]]]:
            B = gram_from_seifert(A)
            assert vanishes_on_relations(B)
            M = B.module
            R = M.relations
            for col in range(R.cols):
                r = M.element(R.col(col))
                for i in range(M.generators):
                    assert pair(B, r, M.generator(i)).is_zero()
                    assert pair(B, M.generator(i), r).is_zero()


class TestHermitian:
    def test_catalog_matrices(self):
        for A in [NINE46, genus_one(1, 1), genus_one(-3, 5), [[1, 1], [0, -1]], [[a_ := 3, 0], [1, -3]]]:
            assert check_hermitian(gram_from_seifert(A))

    def test_perturbed_entry_fails(self):
        B = gram_from_seifert(NINE46)
        bad = list(list(row) for row in B.gram)
        bad[0][0] = class_add(bad[0][0], cls("1", "t - 2"))
        assert not check_hermitian(pairing_from_gram(B.module, bad))

    @pytest.mark.parametrize("A", [NINE46, swap_double(SINGULAR_DENSE)], ids=["nine46", "singular_swap"])
    def test_perturbed_strictly_lower_or_upper_entry_fails(self, A):
        # only i <= j is compared, so a change on either side of the
        # diagonal must show up through gram[j][i] or through conj(gram[i][j])
        B = gram_from_seifert(A)
        n = len(B.gram)
        for i, j in ((n - 1, 0), (0, n - 1), (1, 0), (0, 1)):
            bad = list(list(row) for row in B.gram)
            bad[i][j] = class_add(bad[i][j], cls("1", "t - 2"))
            assert not check_hermitian(pairing_from_gram(B.module, bad)), (i, j)

    def test_empty(self):
        assert check_hermitian(gram_from_seifert([]))


class TestNonsingular:
    def test_nine46(self):
        assert check_nonsingular(gram_from_seifert(NINE46))

    def test_zero_pairing_on_nontrivial_module(self):
        M = from_seifert(NINE46)
        zero = TorsionClass()
        B = pairing_from_gram(M, ((zero, zero), (zero, zero)))
        assert not check_nonsingular(B)

    def test_unknot_vacuous(self):
        assert check_nonsingular(gram_from_seifert([]))


class TestBlockSum:
    def test_block_sum_is_pairing_of_sum(self):
        B1 = gram_from_seifert(NINE46)
        B2 = gram_from_seifert(genus_one(1, 1))
        M = direct_sum(B1.module, B2.module)
        B = direct_sum_pairing(B1, B2, M)
        assert check_hermitian(B)
        assert vanishes_on_relations(B)
        x = M.element([ONE, ZERO, ZERO, ZERO])
        y = M.element([ZERO, ZERO, ONE, ZERO])
        assert pair(B, x, y).is_zero()
        x1 = B1.module.element([ONE, ZERO])
        y1 = B1.module.element([ZERO, ONE])
        assert pair(B, M.element([ONE, ZERO, ZERO, ZERO]), M.element([ZERO, ONE, ZERO, ZERO])) == pair(B1, x1, y1)

    def test_negate(self):
        B = gram_from_seifert(NINE46)
        N = negate_pairing(B)
        assert N.gram[0][1] == -B.gram[0][1]
        assert check_hermitian(N)


class TestSolveOracle:
    def test_gram_matches_fresh_solve(self):
        rng = random.Random(32)
        for A in [NINE46, genus_one(1, 1), genus_one(-2, 3), [[1, 1], [0, -1]], [[2, 0], [1, -2]]]:
            B = gram_from_seifert(A)
            M = B.module
            for _ in range(10):
                x = [LaurentPoly({k: rng.randint(-2, 2) for k in range(0, 2)}) for _ in range(M.generators)]
                y = [LaurentPoly({k: rng.randint(-2, 2) for k in range(0, 2)}) for _ in range(M.generators)]
                via_gram = pair(B, M.element(x), M.element(y))
                via_solve = pair_via_solve(A, x, y)
                assert via_gram == via_solve


def doubled(B):
    return direct_sum_pairing(B, B, direct_sum(B.module, B.module))


@lru_cache(maxsize=None)
def catalog_pairing(i):
    """CATALOG_GRID[i]'s pairing, and its Seifert matrix where that matrix
    alone gives the pairing, else None."""
    name, params = CATALOG_GRID[i]
    spec = builtin(name, **params)
    B = assemble(spec).pairing
    A = [list(r) for r in spec.seifert]
    return B, A if A and gram_from_seifert(A).gram == B.gram else None


# label suffix -> (pairing, Seifert matrix) -> case
VARIANTS = {
    "": lambda B, A: (B, 1, A),
    " negated": lambda B, A: (negate_pairing(B), -1, A),
    " doubled": lambda B, A: (doubled(B), 1, A and block_diag([A, A], 0)),
}


def hand_built(zero):
    """A gram over different denominators: zero, a unit (t^3, a zero class),
    coprime linear and quadratic factors, and a square; or the zero gram."""
    M = direct_sum(from_seifert(NINE46), from_seifert([[1, 1], [0, -1]]))
    if zero:
        return pairing_from_gram(M, tuple((TorsionClass(),) * 4 for _ in range(4))), 1, None
    entries = [
        [cls("1", "t - 2"), TorsionClass(), cls("5", "t^3"), cls("t + 1", "2*t^2 - 5*t + 2")],
        [cls("2*t", "t^2 - 3*t + 1"), cls("1", "t + 1"), TorsionClass(), cls("1 - t", "t - 2")],
        [TorsionClass(), cls("3", "2*t - 1"), cls("t", "t^2 - 4*t + 4"), cls("1/2", "t^2 - t + 1")],
        [cls("t^-1", "t^2 - t + 1"), TorsionClass(), cls("1", "t - 3"), cls("-4*t + 1", "t^2 - 3*t + 1")],
    ]
    return pairing_from_gram(M, entries), 1, None


def swap_case(A):
    swap = swap_double(A)
    return gram_from_seifert(swap), 1, swap


def differential_cases():
    """(label, build): build() gives (pairing, sign, Seifert matrix), where
    the pairing is sign times the one of the Seifert matrix, or the matrix
    is None.  Only the labels are made here; each test builds its case."""
    for i, (name, params) in enumerate(CATALOG_GRID):
        for suffix, variant in VARIANTS.items():
            yield f"{name}{params}{suffix}", lambda i=i, variant=variant: variant(*catalog_pairing(i))
    rng = random.Random(33)
    for genus in (1, 2, 3):
        yield f"swap double of dense genus {genus}", partial(swap_case, dense_seifert(genus, rng))
    yield "hand-built", partial(hand_built, False)
    yield "hand-built zero", partial(hand_built, True)


DIFFERENTIAL = dict(differential_cases())


@pytest.mark.parametrize("label", DIFFERENTIAL)
def test_common_denominator_matches_per_term_and_solve(label):
    B, sign, A = DIFFERENTIAL[label]()
    assert vanishes_on_relations(B) == vanishes_per_term(B)
    n = B.module.generators
    rng = random.Random(label)
    for trial in range(6):
        x = [LaurentPoly({k: rng.randint(-2, 2) for k in range(-1, 2)}) for _ in range(n)]
        y = [LaurentPoly({k: rng.randint(-2, 2) for k in range(-1, 2)}) for _ in range(n)]
        if trial == 0:
            x[0] = ZERO
        value = pair(B, B.module.element(x), B.module.element(y))
        assert value == pair_per_term(B, B.module.element(x), B.module.element(y))
        if A is not None and (trial < 2 or n <= 4):
            expected = pair_via_solve(A, x, y)
            assert value == (expected if sign == 1 else -expected)


def test_differential_cases_reach_every_oracle():
    cases = [build() for build in DIFFERENTIAL.values()]
    assert sum(A is not None for _, _, A in cases) >= 30
    verdicts = [vanishes_on_relations(B) for B, _, _ in cases]
    assert verdicts.count(True) >= 30 and verdicts.count(False) == 1


def random_elements(M, count, rng):
    return [
        M.element([LaurentPoly({k: rng.randint(-2, 2) for k in range(-1, 2)}) for _ in range(M.generators)])
        for _ in range(count)
    ]


def test_pair_grid_matches_per_term():
    # every CATALOG_GRID builtin, its doubled sum, swap doubles of dense
    # genus 1-2; grids of 3 x 2, 1 x 4 and 2 x 2 elements
    rng = random.Random(34)
    for label, T in check_cases():
        B, M = T.pairing, T.module
        for rows, cols in ((3, 2), (1, 4), (2, 2)):
            xs, ys = random_elements(M, rows, rng), random_elements(M, cols, rng)
            grid = pair_grid(B, xs, ys)
            assert grid == [[pair_per_term(B, x, y) for y in ys] for x in xs], label
            assert grid[0][0] == pair(B, xs[0], ys[0])


def test_pair_grid_empty_and_wrong_length():
    B = gram_from_seifert(NINE46)
    xs = random_elements(B.module, 2, random.Random(35))
    assert pair_grid(B, [], xs) == []
    assert pair_grid(B, xs, []) == [[], []]
    assert pair_grid(B, [], []) == []
    wide = direct_sum(B.module, B.module).generator(0)
    for x, y in ((xs[0], wide), (wide, xs[0])):
        with pytest.raises(ValueError, match="does not match the pairing's module"):
            pair_grid(B, [x], [y])
        with pytest.raises(ValueError, match="does not match the pairing's module"):
            pair(B, x, y)
    with pytest.raises(ValueError, match="does not match the pairing's module"):
        pair_grid(B, [], [xs[0], wide])


def gram_via_inverse_qt(A):
    """(t - 1) times the interpolated inverse of A - t*A^T: the reference
    for the exponent route, and the route det A = 0 takes."""
    den, F = inverse_qt(-seifert_pencil(A).transpose())
    den = LaurentPoly(enumerate(den))
    return tuple(tuple(TorsionClass(P("t - 1") * LaurentPoly(enumerate(f)), den) for f in row) for row in F)


def seifert_of(name, params, copies=1):
    return [list(r) for r in sum_specs([builtin(name, **params)] * copies).seifert]


def exponent_route_cases():
    """(label, build): build() gives a nonsingular Seifert matrix and whether
    deg mu < n, or None where that is not asserted."""
    for name, params in CATALOG_GRID:
        A = partial(seifert_of, name, params)
        yield f"{name}{params}", lambda A=A: (A(), None)
        yield f"{name}{params} negated", lambda A=A: ([[-x for x in col] for col in zip(*A())], None)
    for name, params in (("nine46", {}), ("genus_one_slice", {"m": 3, "l": 5})):
        for copies in (8, 16, 32):
            yield f"{copies} x {name}{params}", lambda A=partial(seifert_of, name, params, copies): (A(), True)
    rng = random.Random(36)
    for genus in (1, 2, 3):
        yield f"swap double of dense genus {genus}", lambda A=dense_seifert(genus, rng): (swap_double(A), True)
    for genus in range(2, 9):
        yield f"dense genus {genus}", lambda A=dense_seifert(genus, rng): (A, False)


EXPONENT_ROUTE = dict(exponent_route_cases())


@pytest.fixture
def inverse_qt_calls(monkeypatch):
    calls = []

    def counted(M):
        calls.append(M.rows)
        return inverse_qt(M)

    monkeypatch.setattr(pairing, "inverse_qt", counted)
    return calls


@pytest.mark.parametrize("label", EXPONENT_ROUTE)
def test_exponent_route_matches_inverse_qt(label, inverse_qt_calls):
    A, short = EXPONENT_ROUTE[label]()
    M = from_seifert(A)
    assert M.model is not None
    if short is not None:
        # swap doubles and sums have deg mu < n; a dense draw has one chain
        assert (M.invariant_factors[-1].degree() < len(A)) is short
    # a gram does not see a factor that den and F share, so (den, F) is
    # also compared with the W-table sum the Horner form replaced
    assert M.model.inverse_pencil() == inverse_pencil_table(M.model)
    B = gram_from_seifert(A, M)
    assert inverse_qt_calls == []
    expected = gram_via_inverse_qt(A)
    assert B.gram == expected
    assert [[str(g) for g in row] for row in B.gram] == [[str(g) for g in row] for row in expected]


@pytest.mark.parametrize("label", [*(f"dense genus {g}" for g in range(2, 9)), "8 x nine46{}", "unknot"])
def test_inverse_pencil_inverts_the_pencil(label):
    A = [] if label == "unknot" else EXPONENT_ROUTE[label]()[0]
    assert_inverse(-seifert_pencil(A).transpose(), from_seifert(A).model.inverse_pencil())


def test_singular_seifert_matrix_goes_through_inverse_qt(inverse_qt_calls):
    M = from_seifert(SINGULAR_DENSE)
    assert M.model is None and M.invariant_factors
    B = gram_from_seifert(SINGULAR_DENSE, M)
    assert inverse_qt_calls == [4]
    assert B.gram == gram_via_inverse_qt(SINGULAR_DENSE)
    assert check_hermitian(B) and vanishes_on_relations(B) and check_nonsingular(B)


@pytest.mark.parametrize("label", EXPONENT_ROUTE)
def test_one_pass_common_matches_reduce_over(label):
    A = EXPONENT_ROUTE[label]()[0]
    M = from_seifert(A)
    assert gram_from_seifert(A, M).common == common_via_reduce_over(*M.model.inverse_pencil())


def test_one_pass_common_on_dense_draws():
    # a digest of the classes does not see the form: a negative scale leaves
    # every class as it is but changes common
    rng = random.Random(92)
    draws = 0
    for genus in range(2, 9):
        for _ in range(12 if genus < 6 else 3):
            A = dense_seifert(genus, rng)
            M = from_seifert(A)
            if M.model is None:
                continue
            common = gram_from_seifert(A, M).common
            assert common == common_via_reduce_over(*M.model.inverse_pencil()) and common[2] > 0
            draws += 1
    assert draws >= 50


def test_unknot_takes_no_inverse(inverse_qt_calls):
    assert gram_from_seifert([]).gram == ()
    assert inverse_qt_calls == []


def rational_elements(M, count, rng, low):
    """count elements with Fraction coefficients and exponents low..1, the
    first with a t^low term, then the zero element."""
    def coefficient():
        return LaurentPoly({k: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for k in range(low, 2) if rng.random() < 0.6})

    xs = [[coefficient() for _ in range(M.generators)] for _ in range(count)]
    xs[0][0] = xs[0][0] + LaurentPoly({low: Fraction(1, 3)})
    return [M.element(x) for x in xs] + [M.element([ZERO] * M.generators)]


def several_denominators():
    B1, B2 = gram_from_seifert(NINE46), gram_from_seifert(genus_one(2, 3))
    return direct_sum_pairing(B1, B2, direct_sum(B1.module, B2.module))


# label -> pairing, off the integer draws of random_elements
RATIONAL_CASES = {
    "nine46": lambda: gram_from_seifert(NINE46),
    "swap double of dense genus 2": lambda: gram_from_seifert(swap_double(dense_seifert(2, random.Random(37)))),
    "singular swap double": lambda: gram_from_seifert(swap_double(SINGULAR_DENSE)),
    "direct sum, several denominators": several_denominators,
    "negated direct sum": lambda: negate_pairing(several_denominators()),
    "hand-built": lambda: hand_built(False)[0],
    "zero gram": lambda: hand_built(True)[0],
}


@pytest.mark.parametrize("label", RATIONAL_CASES)
def test_pair_grid_matches_per_term_on_rational_elements(label, monkeypatch):
    # Fraction coefficients, exponents below -deg den, which take a
    # power of t^-1 modulo den, zero elements, and grams over several
    # denominators
    B = RATIONAL_CASES[label]()
    assert vanishes_on_relations(B) == vanishes_per_term(B)
    D = len(B.common[0]) - 1
    rng = random.Random(label)
    powers = []
    power = laurent._inverse_t_power
    monkeypatch.setattr(laurent, "_inverse_t_power", lambda p, n: powers.append(n) or power(p, n))
    xs = rational_elements(B.module, 3, rng, -D - 2)
    ys = rational_elements(B.module, 2, rng, -1)
    grid = pair_grid(B, xs, ys)
    if D:
        # one power for the whole grid
        assert len(powers) == 1 and powers[0] >= D + 2
    assert grid == [[pair_per_term(B, x, y) for y in ys] for x in xs]
    assert all(g.is_zero() for g in grid[-1]) and all(row[-1].is_zero() for row in grid)
    # and the other way round: exponents below -deg den in conj(y)
    assert pair_grid(B, ys, xs) == [[pair_per_term(B, y, x) for x in xs] for y in ys]


def test_rational_cases_reach_several_denominators_and_both_verdicts():
    dens = {label: {g.den for row in build().gram for g in row if not g.is_zero()} for label, build in RATIONAL_CASES.items()}
    assert len(dens["direct sum, several denominators"]) >= 2 and len(dens["negated direct sum"]) >= 2
    assert not dens["zero gram"]
    verdicts = [vanishes_on_relations(build()) for build in RATIONAL_CASES.values()]
    assert True in verdicts and False in verdicts


def negated(B):
    """negate_pairing(B) and its class oracle, the pairing of the negated
    classes."""
    return negate_pairing(B), pairing_from_gram(B.module, [[-g for g in row] for row in B.gram])


def summed(B1, B2):
    """direct_sum_pairing(B1, B2) and its class oracle, the pairing of the
    block-diagonal gram."""
    M = direct_sum(B1.module, B2.module)
    return direct_sum_pairing(B1, B2, M), pairing_from_gram(M, block_diag([B1.gram, B2.gram], TORSION_ZERO))


def metabolizer_double():
    """T + (-T) as witt.diagonal_metabolizer builds it, T the nine46 triple."""
    T = assemble(builtin("nine46"))
    double = triple_sum(T, negate(T))
    gram = T.pairing.gram
    return double.pairing, pairing_from_gram(double.module, block_diag([gram, [[-g for g in row] for row in gram]], TORSION_ZERO))


def integer_form_cases():
    """(label, build): build() gives (pairing, oracle), a negation or block
    sum made on the integer form and the same made on classes."""
    nine46 = partial(gram_from_seifert, NINE46)
    for label, build in RATIONAL_CASES.items():
        yield f"{label} negated", lambda build=build: negated(build())
        yield f"{label} + nine46", lambda build=build: summed(build(), nine46())
        yield f"{label} doubled", lambda build=build: summed(build(), build())
    four = partial(gram_from_seifert, seifert_of("nine46", {}, 4))
    yield "nine46 x 4 negated", lambda: negated(four())
    yield "nine46 x 4 + nine46", lambda: summed(four(), nine46())
    yield "nine46 x 4 doubled", lambda: summed(four(), four())
    yield "T + (-T)", metabolizer_double


INTEGER_FORM = dict(integer_form_cases())


@pytest.mark.parametrize("label", INTEGER_FORM)
def test_integer_negation_and_block_sum_match_the_class_oracle(label):
    B, oracle = INTEGER_FORM[label]()
    assert B.gram == oracle.gram
    for check in (check_hermitian, vanishes_on_relations, check_nonsingular):
        assert check(B) == check(oracle), check.__name__


def test_a_block_sum_takes_the_lcm_of_different_dens():
    # nine46's den divides that of its sum with genus_one(2, 3)
    B1, B2 = gram_from_seifert(NINE46), several_denominators()
    assert B1.common[0] != B2.common[0]
    assert direct_sum_pairing(B1, B2, direct_sum(B1.module, B2.module)).common[0] == B2.common[0]


def perturbed_N(B, i, j, k):
    """B with N[i][j]'s t^k coefficient raised by 1."""
    den, N, scale = B.common
    bad = [[list(f) for f in row] for row in N]
    bad[i][j] = bad[i][j] + [0] * (k + 1 - len(bad[i][j]))
    bad[i][j][k] += 1
    return GramPairing(B.module, (den, bad, scale))


@pytest.mark.parametrize("label", ["nine46", "swap double of dense genus 2", "direct sum, several denominators"])
def test_a_perturbed_integer_N_is_caught(label):
    # vanishes_on_relations and pair_grid read N, the oracle reads B's
    # gram; every coefficient below deg den is perturbed in turn on the
    # smallest case, and a few elsewhere
    B = RATIONAL_CASES[label]()
    assert vanishes_on_relations(B)
    n, D = B.module.generators, len(B.common[0]) - 1
    spots = [(i, j, k) for i in range(n) for j in range(n) for k in range(D)]
    if n > 2:
        spots = random.Random(label).sample(spots, 6)
    for i, j, k in spots:
        bad = perturbed_N(B, i, j, k)
        assert not vanishes_on_relations(bad), (i, j, k)
        x, y = B.module.generator(i), B.module.generator(j)
        assert pair_grid(bad, [x], [y]) != [[pair_per_term(B, x, y)]], (i, j, k)
        assert pair_grid(B, [x], [y]) == [[pair_per_term(B, x, y)]]
