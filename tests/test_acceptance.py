"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison below is equality of canonical
forms, with no tolerances anywhere.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""
import random
from fractions import Fraction

from eqslice.catalog import assemble, build, builtin, sum_specs
from eqslice.involution import is_involutive, is_well_defined, verify_anti_isometry
from eqslice.laurent import (
    ZERO,
    LaurentPoly,
    TorsionClass,
    laurent_gcd,
    parse_poly,
    symmetric_quadratic_tests,
    unit_equal,
)
from eqslice.matrices import LambdaMatrix, det, in_span, kernel, mat_vec, snf
from eqslice.modules import (
    PresentedModule,
    submodule_presentation,
)
from eqslice.obstruction import (
    CERTIFIED_K0,
    NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE,
    NOT_EQUIVARIANTLY_SLICE,
    amphichiral_obstruction,
    certify_k0,
    equivariant_slice_verdict,
    genus_lower_bound,
)
from eqslice.pairing import check_hermitian, check_nonsingular, pair, vanishes_on_relations
from eqslice.witt import diagonal_metabolizer, is_metabolizer, negate, triple_sum, validate
from cases import CATALOG_GRID
from pairing_oracles import class_add, class_scale, pair_via_solve


def P(s):
    return parse_poly(s)


def report(n, slug):
    print(f"criterion {n:02d} {slug}: PASS")


def test_criterion_01_nine46_golden():
    triple = assemble(builtin("nine46"))
    M = triple.module
    assert M.grk == 1
    assert len(M.invariant_factors) == 1
    assert unit_equal(M.invariant_factors[0], P("t - 2") * P("2*t - 1"))

    # symbolic identity: the quadratic form x -> pair(x, tau x) over rational
    # coordinates (c1, c2) on the generators is determined by the symmetrized
    # generator grid, which must match -(t-1)(c1^2/(2t-1) + c2^2/(t-2))
    tau = triple.involution
    grid = [
        [pair(triple.pairing, M.generator(i), tau.apply(M.generator(j))) for j in range(2)]
        for i in range(2)
    ]
    sym = [
        [class_scale(class_add(grid[i][j], grid[j][i]), Fraction(1, 2)) for j in range(2)]
        for i in range(2)
    ]
    c1_coeff = TorsionClass(-P("t - 1"), P("2*t - 1"))
    c2_coeff = TorsionClass(-P("t - 1"), P("t - 2"))
    assert sym[0][0] == c1_coeff
    assert sym[1][1] == c2_coeff
    assert sym[0][1].is_zero() and sym[1][0].is_zero()

    rng = random.Random(0)
    for _ in range(50):
        c1 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        c2 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        x = M.element([LaurentPoly({0: c1}), LaurentPoly({0: c2})])
        got = pair(triple.pairing, x, tau.apply(x))
        expected = class_add(class_scale(c1_coeff, c1 * c1), class_scale(c2_coeff, c2 * c2))
        assert got == expected

    cert = certify_k0(triple)
    assert cert.verdict == CERTIFIED_K0
    verdict = equivariant_slice_verdict(triple)
    assert verdict.verdict == NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE
    report(1, "nine46-golden")


def test_criterion_02_nfold_sums():
    spec = builtin("nine46")
    for n in range(1, 7):
        triple = assemble(sum_specs([spec] * n)) if n > 1 else assemble(spec)
        assert triple.module.grk == n
        cert = certify_k0(triple)
        assert cert.verdict == CERTIFIED_K0
        bound = genus_lower_bound(triple, cert)
        assert bound.k_upper == 0
        assert bound.bound_rational == Fraction(n, 4)
    report(2, "nfold-sum-bounds")


def test_criterion_03_genus_one_grid():
    for m in (-3, -2, 1, 2, 3):
        for l in range(1, 6):
            for c in (1, 2, Fraction(1, 2), -3):
                spec = builtin("genus_one_slice", m=m, l=l, c=c)
                triple = assemble(spec)
                M = triple.module
                p = LaurentPoly({1: m, 0: -(m + 1)})
                q = LaurentPoly({1: m + 1, 0: -m})
                y1 = M.element([q, ZERO])
                y2 = M.element([p, ZERO])
                assert pair(triple.pairing, y1, y1).is_zero()
                assert pair(triple.pairing, y2, y2).is_zero()
                expected = TorsionClass(P("t^-1").scale(-l) * P("1 - t") * P("1 - t") * q, p)
                assert pair(triple.pairing, y1, y2) == expected

                verdict = equivariant_slice_verdict(triple)
                assert verdict.verdict == NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE

                for n in (2, 3):
                    summed = assemble(sum_specs([spec] * n))
                    assert certify_k0(summed).verdict == CERTIFIED_K0
    report(3, "genus-one-grid")


def test_criterion_04_coprime_family_bounds():
    g1 = builtin("genus_one_slice", m=1, l=1)
    g2 = builtin("genus_one_slice", m=2, l=1)
    for a1, a2 in [(1, 3), (2, 2), (4, 1)]:
        triple = assemble(sum_specs([g1] * a1 + [g2] * a2))
        cert = certify_k0(triple)
        assert cert.verdict == CERTIFIED_K0
        bound = genus_lower_bound(triple, cert)
        assert bound.bound_rational == Fraction(max(a1, a2), 4)
    report(4, "coprime-family-bounds")


def test_criterion_05_membership_equivalence():
    rng = random.Random(5)

    def rand_poly(max_deg, nonzero=False):
        while True:
            p = LaurentPoly({k: rng.randint(-5, 5) for k in range(rng.randint(0, max_deg) + 1)})
            if not nonzero or not p.is_zero():
                return p

    checked = 0
    while checked < 1000:
        p = rand_poly(4, nonzero=True)
        q = rand_poly(4, nonzero=True)
        if not laurent_gcd(p, q).is_one():
            continue
        a = rand_poly(4)
        b = rand_poly(4)
        if rng.random() < 0.3:
            a = a * p  # force membership on one side sometimes
        if rng.random() < 0.3:
            b = b * q
        # a/p + b/q is the zero class iff both parts are
        lhs = class_add(TorsionClass(a, p), TorsionClass(b, q)).is_zero()
        rhs = TorsionClass(a, p).is_zero() and TorsionClass(b, q).is_zero()
        assert lhs == rhs
        checked += 1
    report(5, "coprime-membership-equivalence")


def test_criterion_06_snf_suite():
    rng = random.Random(6)
    from eqslice.laurent import divides

    for _ in range(500):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        entries = []
        for _ in range(r):
            row = []
            for _ in range(c):
                if rng.random() < 0.3:
                    row.append(ZERO)
                else:
                    lo = rng.randint(-1, 0)
                    row.append(
                        LaurentPoly(
                            {k: rng.randint(-3, 3) for k in range(lo, lo + rng.randint(0, 3) + 1)}
                        )
                    )
            entries.append(row)
        M = LambdaMatrix(entries)
        s = snf(M)
        assert s.U * M * s.V == s.D
        assert det(s.U).is_unit() and det(s.V).is_unit()
        diag = s.diagonal
        for a, b in zip(diag, diag[1:]):
            if a.is_zero():
                assert b.is_zero()
            else:
                assert divides(a, b)
        K = kernel(M)
        for j in range(K.cols):
            assert all(e.is_zero() for e in mat_vec(M, K.col(j)))
        coeffs = [LaurentPoly({rng.randint(-1, 1): rng.randint(-2, 2)}) for _ in range(c)]
        v = mat_vec(M, coeffs)
        w = in_span(v, M, s)
        assert w is not None and mat_vec(M, w) == v
    report(6, "snf-suite")


def test_criterion_07_structural_axioms():
    for name, params in CATALOG_GRID:
        triple = assemble(builtin(name, **params))
        rep = validate(triple)
        assert rep.ok, (name, params, rep.failing())
        assert check_hermitian(triple.pairing)
        assert vanishes_on_relations(triple.pairing)
        assert check_nonsingular(triple.pairing)
        assert is_well_defined(triple.involution) and is_involutive(triple.involution)
        assert verify_anti_isometry(triple.involution, triple.pairing)
    for a in (1, 2, 3):
        assert validate(build(builtin("twist_ka", a=a))).ok
    report(7, "structural-axioms")


def test_criterion_08_witt_group_law():
    for name, params in CATALOG_GRID:
        triple = assemble(builtin(name, **params))
        double = triple_sum(triple, negate(triple))
        witness = diagonal_metabolizer(triple)
        rep = is_metabolizer(double, witness)
        assert rep.ok, (name, params, rep.to_dict())
        sub = submodule_presentation(double.module, list(witness))
        assert unit_equal(sub.order * sub.order.conjugate(), double.module.order)
    report(8, "witt-group-law")


def test_criterion_09_twist_family():
    for a in range(1, 51):
        printed = LaurentPoly({2: a * a, 1: -(2 * a * a - 1), 0: a * a})
        rep = symmetric_quadratic_tests(printed)
        assert rep.irreducible
        assert not rep.fox_milnor_possible
        assert rep.witness == 4 * a * a - 1
    for a in range(1, 51):
        for n in range(1, 5):
            out = amphichiral_obstruction(a, n)
            assert out.verdict == NOT_EQUIVARIANTLY_SLICE, (a, n)
    nine = symmetric_quadratic_tests(P("2*t^2 - 5*t + 2"))
    assert nine.fox_milnor_possible and nine.witness == 9
    report(9, "twist-family-obstructions")


def test_criterion_10_generating_rank_inequalities():
    rng = random.Random(10)
    from eqslice.laurent import divexact

    lin = [P("t - 2"), P("t - 3"), P("2*t - 1"), P("t + 1"), P("t^2 - t + 1")]
    for _ in range(200):
        d1 = [rng.choice(lin) for _ in range(rng.randint(1, 3))]
        d2 = [rng.choice(lin) for _ in range(rng.randint(1, 3))]
        M1 = PresentedModule(
            len(d1),
            LambdaMatrix([[d1[i] if i == j else ZERO for j in range(len(d1))] for i in range(len(d1))]),
        )
        M2 = PresentedModule(
            len(d2),
            LambdaMatrix([[d2[i] if i == j else ZERO for j in range(len(d2))] for i in range(len(d2))]),
        )
        F = []
        for j in range(len(d2)):
            row = []
            for i in range(len(d1)):
                g = laurent_gcd(d2[j], d1[i])
                row.append(divexact(d2[j].monic_ordinary(), g) * LaurentPoly({0: rng.randint(-2, 2)}))
            F.append(row)
        Fm = LambdaMatrix(F)
        image = submodule_presentation(M2, [M2.element(Fm.col(i)) for i in range(len(d1))])
        K = kernel(Fm.hstack(-M2.relations))
        ker_gens = [M1.element(K.col(j)[: len(d1)]) for j in range(K.cols)]
        ker = submodule_presentation(M1, ker_gens)
        assert image.grk <= M1.grk <= image.grk + ker.grk
        # submodules never exceed the ambient generating rank
        assert image.grk <= M2.grk
    report(10, "generating-rank-inequalities")


def test_criterion_11_pair_oracle_cross_check():
    rng = random.Random(11)
    seiferts = [
        builtin("nine46").seifert,
        builtin("figure_eight").seifert,
        builtin("stevedore").seifert,
        builtin("twist_ka", a=2).seifert,
        builtin("genus_one_slice", m=-2, l=3).seifert,
    ]
    count = 0
    while count < 200:
        A = seiferts[count % len(seiferts)]
        from eqslice.pairing import gram_from_seifert

        B = gram_from_seifert(A)
        n = B.module.generators
        x = [LaurentPoly({k: rng.randint(-3, 3) for k in range(-1, 2)}) for _ in range(n)]
        y = [LaurentPoly({k: rng.randint(-3, 3) for k in range(-1, 2)}) for _ in range(n)]
        assert pair(B, B.module.element(x), B.module.element(y)) == pair_via_solve(A, x, y)
        count += 1
    report(11, "pair-oracle-cross-check")
