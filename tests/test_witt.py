from fractions import Fraction

import pytest

from eqslice.involution import SemilinearMap
from eqslice.laurent import ONE, TORSION_ZERO, ZERO, LaurentPoly, parse_poly, unit_equal
from eqslice.matrices import LambdaMatrix
from eqslice.modules import PresentedModule, from_seifert
from eqslice.pairing import gram_from_seifert
from eqslice.witt import (
    EquivariantTriple,
    diagonal_metabolizer,
    is_metabolizer,
    negate,
    triple_sum,
    validate,
)
from cases import identity
from pairing_oracles import pairing_from_gram


def P(s):
    return parse_poly(s)


NINE46 = [[0, 2], [1, 0]]


def nine46_triple():
    M = from_seifert(NINE46)
    return EquivariantTriple(
        module=M,
        pairing=gram_from_seifert(NINE46, M),
        involution=SemilinearMap(module=M, matrix=LambdaMatrix([[ZERO, ONE], [ONE, ZERO]])),
    )


def genus_one_triple(m, l, c):
    A = [[0, m + 1], [m, l]]
    M = from_seifert(A)
    tp = Fraction(m + 1, m)
    tq = Fraction(m, m + 1)
    up = -1 / Fraction(c) * tp
    uq = -Fraction(c) * tq
    beta = (up - uq) / (tp - tq)
    alpha = up - beta * tp
    u = LaurentPoly({0: alpha, 1: beta})
    q = LaurentPoly({1: m + 1, 0: -m})
    col2 = (q.conjugate() * u).scale(Fraction(-m, l))
    return EquivariantTriple(
        module=M,
        pairing=gram_from_seifert(A, M),
        involution=SemilinearMap(module=M, matrix=LambdaMatrix([[u, col2], [ZERO, ZERO]])),
    )


def trivial_triple():
    M = PresentedModule(0)
    return EquivariantTriple(
        module=M,
        pairing=pairing_from_gram(M, ()),
        involution=SemilinearMap(module=M, matrix=LambdaMatrix([])),
    )


def one_generator_triple(relations):
    """Lambda / relations, or Lambda itself for None, with the zero pairing
    and the identity involution."""
    M = PresentedModule(1, relations)
    return EquivariantTriple(
        module=M,
        pairing=pairing_from_gram(M, ((TORSION_ZERO,),)),
        involution=SemilinearMap(module=M, matrix=LambdaMatrix([[ONE]])),
    )


class TestValidate:
    def test_nine46_all_pass(self):
        report = validate(nine46_triple())
        assert report.ok, report.failing()

    def test_non_conjugating_identity_fails(self):
        T = nine46_triple()
        bad = EquivariantTriple(
            module=T.module,
            pairing=T.pairing,
            involution=SemilinearMap(module=T.module, matrix=identity(2)),
        )
        report = validate(bad)
        assert not report.ok
        assert "involution_well_defined" in report.failing()

    def test_t_minus_one_divisible_order_fails(self):
        M = PresentedModule(1, LambdaMatrix([[P("t - 1")]]))
        from eqslice.laurent import TorsionClass

        g = TorsionClass(ONE, P("t - 1"))
        T = EquivariantTriple(
            module=M,
            pairing=pairing_from_gram(M, ((g,),)),
            involution=SemilinearMap(module=M, matrix=LambdaMatrix([[ONE]])),
        )
        report = validate(T)
        assert "one_minus_t_invertible" in report.failing()

    @pytest.mark.parametrize("factors", [["t - 1", "t - 2"], ["t - 1", "t - 1", "t^2 - 3*t + 1"]])
    def test_order_with_a_factor_t_minus_one_fails_with_its_detail(self, factors):
        order = ONE
        for f in factors:
            order = order * P(f)
        checks = {c.name: c for c in validate(one_generator_triple(LambdaMatrix([[order]]))).checks}
        assert checks["torsion"].passed
        assert not checks["one_minus_t_invertible"].passed
        assert checks["one_minus_t_invertible"].detail == "order shares a factor with t - 1"

    def test_non_torsion_module_skips_nonsingular(self):
        checks = {c.name: c for c in validate(one_generator_triple(None)).checks}
        assert (checks["torsion"].passed, checks["torsion"].detail) == (False, "free rank 1")
        assert (checks["nonsingular"].passed, checks["nonsingular"].detail) == (False, "skipped: module not torsion")
        assert not checks["one_minus_t_invertible"].passed
        assert checks["one_minus_t_invertible"].detail == "module not torsion"

    def test_genus_one_grid_passes(self):
        for m in (-2, 1, 2):
            for l in (1, 3):
                for c in (Fraction(1), Fraction(1, 2)):
                    report = validate(genus_one_triple(m, l, c))
                    assert report.ok, (m, l, c, report.failing())


class TestSumNegate:
    def test_sum_with_trivial_preserves_invariants(self):
        T = nine46_triple()
        S = triple_sum(T, trivial_triple())
        assert S.module.invariant_factors == T.module.invariant_factors
        assert S.pairing.gram == T.pairing.gram
        assert S.involution.matrix == T.involution.matrix

    def test_negate_is_involutive(self):
        T = nine46_triple()
        assert negate(negate(T)).pairing.gram == T.pairing.gram

    def test_sum_commutes_at_invariant_level(self):
        T1, T2 = nine46_triple(), genus_one_triple(2, 3, 1)
        A = triple_sum(T1, T2)
        B = triple_sum(T2, T1)
        assert sorted(str(f) for f in A.module.invariant_factors) == sorted(
            str(f) for f in B.module.invariant_factors
        )
        a_entries = sorted(str(g) for row in A.pairing.gram for g in row)
        b_entries = sorted(str(g) for row in B.pairing.gram for g in row)
        assert a_entries == b_entries

    def test_sum_associates_at_invariant_level(self):
        T = nine46_triple()
        L = triple_sum(triple_sum(T, T), T)
        R = triple_sum(T, triple_sum(T, T))
        assert L.module.invariant_factors == R.module.invariant_factors
        assert L.pairing.gram == R.pairing.gram
        assert L.involution.matrix == R.involution.matrix

    def test_validated_sum(self):
        T = nine46_triple()
        assert validate(triple_sum(T, negate(T))).ok


class TestOrderSymmetry:
    def test_order_conjugate_symmetric_up_to_unit(self):
        for T in [nine46_triple(), genus_one_triple(1, 1, 1), genus_one_triple(-3, 2, 2)]:
            assert validate(T).ok
            assert unit_equal(T.module.order, T.module.order.conjugate())


class TestMetabolizer:
    def test_diagonal_passes_all_three(self):
        T = nine46_triple()
        double = triple_sum(T, negate(T))
        witness = diagonal_metabolizer(T)
        report = is_metabolizer(double, witness)
        assert report.ok, report.to_dict()

    def test_diagonal_for_genus_one(self):
        T = genus_one_triple(1, 1, 1)
        double = triple_sum(T, negate(T))
        report = is_metabolizer(double, diagonal_metabolizer(T))
        assert report.ok

    def test_trivial_triple_diagonal(self):
        T = trivial_triple()
        double = triple_sum(T, negate(T))
        report = is_metabolizer(double, diagonal_metabolizer(T))
        assert report.ok

    def test_zero_submodule_fails_order(self):
        T = nine46_triple()
        report = is_metabolizer(T, ())
        assert report.failing() == ["order_identity"]

    def test_whole_module_fails_vanishing(self):
        T = nine46_triple()
        report = is_metabolizer(T, (T.module.generator(0), T.module.generator(1)))
        assert "pairwise_vanishing" in report.failing()

    def test_summand_swapped_by_tau_is_not_invariant(self):
        T = nine46_triple()
        for i in range(2):
            report = is_metabolizer(T, (T.module.generator(i),))
            assert report.failing() == ["tau_invariant"]

    @pytest.mark.parametrize("name, params", [("nine46", {}), ("swap_double", {"inner": "nine46"})])
    def test_one_smith_form_per_span(self, monkeypatch, name, params):
        # one for the kernel and one for the submodule's presentation, then
        # one per inclusion test, whatever the number of generators
        import eqslice.matrices
        import eqslice.modules
        from eqslice.catalog import assemble, builtin

        T = assemble(builtin(name, **params))
        double = triple_sum(T, negate(T))
        witness = diagonal_metabolizer(T)
        calls = []
        snf = eqslice.matrices.snf

        def counting(*args, **kwargs):
            calls.append(1)
            return snf(*args, **kwargs)

        monkeypatch.setattr(eqslice.matrices, "snf", counting)
        monkeypatch.setattr(eqslice.modules, "snf", counting)
        assert is_metabolizer(double, witness).ok
        assert len(calls) == 4

    def test_order_identity_exact(self):
        T = nine46_triple()
        double = triple_sum(T, negate(T))
        witness = diagonal_metabolizer(T)
        from eqslice.modules import submodule_presentation

        sub = submodule_presentation(double.module, list(witness))
        assert unit_equal(
            sub.order * sub.order.conjugate(), double.module.order
        )

    def test_wrong_module_rejected(self):
        T = nine46_triple()
        with pytest.raises(ValueError):
            is_metabolizer(T, diagonal_metabolizer(T))
