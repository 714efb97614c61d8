import re
from fractions import Fraction

import pytest

from eqslice.catalog import (
    CatalogError,
    CatalogValidationError,
    KnotSpec,
    SpecParseError,
    assemble,
    build,
    builtin,
    format_spec,
    list_builtins,
    load,
    parse_spec,
    save,
    sum_specs,
    twist_order,
)
from eqslice.laurent import normalize_alexander, parse_poly, unit_equal
from eqslice.matrices import LambdaMatrix, det
from eqslice.modules import from_seifert
from eqslice.witt import validate
from cases import identity


def P(s):
    return parse_poly(s)


ALL_BUILTINS = [
    ("nine46", {}),
    ("figure_eight", {}),
    ("stevedore", {}),
    ("trefoil", {}),
    ("genus_one_slice", {"m": 1, "l": 1}),
    ("genus_one_slice", {"m": -2, "l": 3, "c": Fraction(1, 2)}),
    ("twist_ka", {"a": 1}),
    ("twist_ka", {"a": 3}),
    ("pretzel", {"a": 3}),
    ("pretzel", {"a": 5}),
    ("generalized_twist", {"b": 2}),
    ("generalized_twist", {"b": 4}),
    ("swap_double", {"inner": "trefoil"}),
    ("swap_double", {"inner": "nine46"}),
]


class TestBuiltins:
    def test_nine46(self):
        spec = builtin("nine46")
        assert spec.seifert == ((0, 2), (1, 0))
        assert spec.involution == LambdaMatrix([["0", "1"], ["1", "0"]])

    def test_genus_one_order(self):
        spec = builtin("genus_one_slice", m=1, l=1)
        M = from_seifert(spec.seifert)
        assert unit_equal(M.order, P("t - 2") * P("2*t - 1"))

    def test_figure_eight_order(self):
        spec = builtin("figure_eight")
        M = from_seifert(spec.seifert)
        assert unit_equal(M.order, P("t^2 - 3*t + 1"))
        assert M.grk == 1

    def test_invalid_params(self):
        with pytest.raises(CatalogError):
            builtin("genus_one_slice", m=0, l=1)
        with pytest.raises(CatalogError):
            builtin("genus_one_slice", m=1, l=0)
        with pytest.raises(CatalogError):
            builtin("genus_one_slice", m=1, l=1, c=0)
        with pytest.raises(CatalogError):
            builtin("twist_ka", a=0)
        with pytest.raises(CatalogError):
            builtin("pretzel", a=4)
        with pytest.raises(CatalogError):
            builtin("nonesuch")
        with pytest.raises(CatalogError):
            builtin("nine46", a=1)

    def test_every_builtin_validates(self):
        for name, params in ALL_BUILTINS:
            triple = assemble(builtin(name, **params))
            assert validate(triple).ok, (name, params)

    def test_order_matches_normalized_determinant(self):
        for name, params in ALL_BUILTINS:
            spec = builtin(name, **params)
            triple = assemble(spec)
            rel = triple.module.relations
            assert unit_equal(
                normalize_alexander(triple.module.order), normalize_alexander(det(rel))
            )

    def test_stevedore_module_and_involution(self):
        triple = assemble(builtin("stevedore"))
        assert unit_equal(triple.module.order, P("2*t - 5 + 2*t^-1"))
        # negated conjugation on the cyclic generator: q(t) b1 -> -q(t^-1) b1
        q = P("3*t^2 - t^-1")
        x = triple.module.element([q, 0])
        image = triple.involution.apply(x)
        expected = triple.module.element([-q.conjugate(), 0])
        assert image == expected

    def test_figure_eight_involution_action(self):
        triple = assemble(builtin("figure_eight"))
        q = P("t^2 - 4*t")
        x = triple.module.element([q, 0])
        image = triple.involution.apply(x)
        expected = triple.module.element([q.conjugate(), 0])
        assert image == expected

    def test_stevedore_is_genus_one_with_c_two(self):
        steve = assemble(builtin("stevedore"))
        generic = assemble(builtin("genus_one_slice", m=1, l=1, c=2))
        assert steve.module.invariant_factors == generic.module.invariant_factors
        assert steve.involution.matrix == generic.involution.matrix

    def test_pretzel_matches_nine46_order(self):
        # P(3,-3,3) carries the same order polynomial as nine46
        spec = builtin("pretzel", a=3)
        M = from_seifert(spec.seifert)
        N = from_seifert(builtin("nine46").seifert)
        assert unit_equal(M.order, N.order)

    def test_listing(self):
        names = [name for name, _, _ in list_builtins()]
        assert "nine46" in names and "swap_double" in names


class TestTwistFamily:
    def test_order_polynomial_computed(self):
        # determinant computed exactly: a^2 t^2 - (2a^2+1) t + a^2
        for a in (1, 2, 5):
            p = twist_order(a)
            expected = parse_poly(f"{a*a}*t^2 - {2*a*a + 1}*t + {a*a}")
            assert p == expected
            assert abs(p.evaluate(1)) == 1

    def test_cyclic_triple_validates(self):
        for a in (1, 2, 3):
            triple = build(builtin("twist_ka", a=a))
            assert validate(triple).ok

    def test_cyclic_self_pairing_nonzero(self):
        from eqslice.pairing import pair

        triple = build(builtin("twist_ka", a=2))
        g = triple.module.generator(1)
        assert not pair(triple.pairing, g, g).is_zero()


class TestAssemble:
    def test_sum_matches_triple_sum_invariants(self):
        from eqslice.witt import triple_sum

        s1, s2 = builtin("nine46"), builtin("nine46")
        summed = assemble(sum_specs([s1, s2]))
        direct = triple_sum(assemble(s1), assemble(s2))
        assert summed.module.invariant_factors == direct.module.invariant_factors
        assert summed.pairing.gram == direct.pairing.gram
        assert summed.involution.matrix == direct.involution.matrix

    def test_sum_of_matrix_involutions_builds_no_module(self, monkeypatch):
        import eqslice.catalog as catalog

        calls = []

        def counting(A):
            calls.append(A)
            return from_seifert(A)

        monkeypatch.setattr(catalog, "from_seifert", counting)
        spec = builtin("nine46")
        total = sum_specs([spec] * 4)
        assert calls == []
        # four copies of nine46's swap [[0, 1], [1, 0]] on the diagonal
        assert total.involution == LambdaMatrix(
            [[int(i // 2 == j // 2 and i != j) for j in range(8)] for i in range(8)]
        )
        sum_specs([builtin("swap_double"), spec])
        assert len(calls) == 1

    def test_sum_refuses_an_involution_of_the_wrong_size(self):
        nine46 = builtin("nine46")
        bad = KnotSpec(name="bad", seifert=nine46.seifert, involution=identity(3))
        with pytest.raises(ValueError):
            sum_specs([nine46, bad])

    def test_corrupted_involution_fails_with_named_axiom(self):
        spec = builtin("nine46")
        bad = KnotSpec(
            name="bad",
            seifert=spec.seifert,
            involution=identity(2),
        )
        with pytest.raises(CatalogValidationError) as e:
            assemble(bad)
        assert "involution_well_defined" in e.value.report.failing()


class TestFileFormat:
    def test_round_trip_all_builtins(self, tmp_path):
        for name, params in ALL_BUILTINS:
            spec = builtin(name, **params)
            path = tmp_path / f"{name}.knot"
            save(spec, path)
            assert load(path) == spec

    def test_round_trip_sum(self, tmp_path):
        spec = sum_specs([builtin("nine46"), builtin("figure_eight")])
        path = tmp_path / "sum.knot"
        save(spec, path)
        assert load(path) == spec

    def test_non_seifert_rejected(self):
        text = "schema=1\nname=x\nparams=\nseifert=0,1;1,0\ninvolution=swap\nnotes=\n"
        with pytest.raises(SpecParseError):
            parse_spec(text)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1;1", "Seifert matrix must be square"),
            ("0,1,1;1,0,0", "Seifert matrix must be square"),
            ("0,1;1,0", "det(A - A^T) = 0, expected +-1: not a Seifert matrix"),
            ("1,2;0,1", "det(A - A^T) = 4, expected +-1: not a Seifert matrix"),
        ],
    )
    def test_seifert_check_has_line(self, rows, message):
        text = f"schema=1\nname=x\nparams=\nseifert={rows}\ninvolution=swap\n"
        with pytest.raises(SpecParseError) as e:
            parse_spec(text)
        assert (e.value.line, str(e.value)) == (4, f"line 4: {message}")
        with pytest.raises(ValueError, match=re.escape(message)):
            from_seifert([[int(x) for x in row.split(",")] for row in rows.split(";")])

    def test_params_line(self):
        text = "schema=1\nname=x\nparams=a=1,b=1/2,c=z\nseifert=0,2;1,0\ninvolution=swap\n"
        assert parse_spec(text).params == {"a": 1, "b": Fraction(1, 2), "c": "z"}
        with pytest.raises(SpecParseError) as e:
            parse_spec(text.replace("c=z", "c"))
        assert (e.value.line, str(e.value)) == (3, "line 3: bad parameter 'c'")

    def test_polynomial_error_has_line(self):
        text = "schema=1\nname=x\nparams=\nseifert=0,2;1,0\ninvolution=0,t^;1,0\nnotes=\n"
        with pytest.raises(SpecParseError) as e:
            parse_spec(text)
        assert e.value.line == 5

    def test_missing_key(self):
        with pytest.raises(SpecParseError):
            parse_spec("schema=1\nname=x\n")

    def test_unknown_key(self):
        with pytest.raises(SpecParseError):
            parse_spec("schema=1\nname=x\nwidget=3\n")

    def test_schema_required(self):
        spec = builtin("nine46")
        text = format_spec(spec).replace("schema=1", "schema=2")
        with pytest.raises(SpecParseError):
            parse_spec(text)
