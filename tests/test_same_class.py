"""laurent.same_class and the checks that compare Blanchfield values by it.

same_class decides t^e f / d = t^k g / h by one integer divisibility, with
no canonical class; the oracle is TorsionClass equality, the canonical
route.  check_hermitian, verify_anti_isometry and the certificate's sampled
evaluations are each compared with the canonical route they replaced
(pairing_oracles.conjugates, pair_grid, evaluate_certificate and pair) and
must reject a planted fault.  The integer laurent_gcd, divides and divexact
are compared with their Fraction bodies in laurent_oracle.
"""
import random
from fractions import Fraction
from math import gcd

import pytest

from eqslice import laurent, obstruction, pairing
from eqslice.catalog import assemble, builtin
from eqslice.cli import EXIT_INTERNAL, main
from eqslice.involution import SemilinearMap, verify_anti_isometry
from eqslice.laurent import (
    ONE,
    LaurentPoly,
    TorsionClass,
    divexact,
    divides,
    laurent_gcd,
    list_dot,
    parse_poly,
    same_class,
)
from eqslice.matrices import LambdaMatrix
from eqslice.modules import ModuleElement
from eqslice.obstruction import _certificate_value, evaluate_certificate, tau_quadratic
from eqslice.pairing import check_hermitian, pair, pair_grid, pair_values
from eqslice.witt import EquivariantTriple, validate
from cases import CATALOG_GRID, check_cases
from laurent_oracle import oracle_divexact, oracle_divides, oracle_laurent_gcd
from pairing_oracles import class_add, conjugates, pairing_from_gram


def poly(f, e=0):
    """t^e * f for an integer coefficient list f, lowest first."""
    return LaurentPoly((e + i, c) for i, c in enumerate(f))


def canonical_same(f, d, e, g, h, k):
    return TorsionClass(poly(f, e), poly(d)) == TorsionClass(poly(g, k), poly(h))


def random_list(rng, length, low=-5, high=5):
    return [rng.randint(low, high) for _ in range(length)]


def random_den(rng, degree):
    """Nonzero constant and top terms, content and leading coefficient
    often other than 1."""
    d = [rng.choice([-1, 1]) * rng.randint(1, 4)] + random_list(rng, degree - 1) + [rng.choice([-3, -2, -1, 1, 2, 5])]
    return [rng.choice([1, 1, 2, 6]) * c for c in d]


def draws(count, seed):
    """(kind, f, d, e, g, h, k) with both kinds of verdict."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        kind = ("independent", "equal", "equal plus one", "shared factor", "zero")[n % 5]
        d = random_den(rng, rng.randint(1, 4))
        e, k = rng.randint(-6, 6), rng.randint(-6, 6)
        f = random_list(rng, rng.randint(1, 6))
        if kind == "independent":
            h = random_den(rng, rng.randint(1, 4))
            g = random_list(rng, rng.randint(1, 6))
        elif kind.startswith("equal"):
            # the same class over h = d * u, plus a polynomial h * q
            u = random_den(rng, rng.randint(0, 2)) if rng.random() < 0.8 else [rng.randint(2, 5)]
            h = list_dot([d], [u])
            e, k = max(e, k), min(e, k)
            q = random_list(rng, rng.randint(0, 3))
            g = [0] * (e - k) + list_dot([f], [u])
            g = [a + b for a, b in zip(g + [0] * len(q + h), list_dot([h], [q]) + [0] * len(g + h))]
            if kind == "equal plus one":
                # off by a class that is not zero
                g = [g[0] + 1] + g[1:]
            if rng.random() < 0.5:
                f, d, e, g, h, k = g, h, k, f, d, e
        elif kind == "shared factor":
            # f and d share a factor c; g / h is f / d with it cancelled, or not
            c = random_den(rng, 1)
            f0 = random_list(rng, rng.randint(1, 4))
            f, d0 = list_dot([f0], [c]), d
            d = list_dot([d0], [c])
            g, h, k = (f0, d0, e) if rng.random() < 0.6 else (random_list(rng, 3), d0, k)
        else:
            # zero numerators, and numerators that d divides
            f = [] if rng.random() < 0.5 else list_dot([d], [random_list(rng, 2, 1, 3)])
            h = random_den(rng, rng.randint(1, 3))
            g = rng.choice([[], [0, 0], list_dot([h], [[rng.randint(1, 3)]]), random_list(rng, 2, 1, 3)])
        out.append((kind, f, d, e, g, h, k))
    return out


class TestSameClass:
    def test_matches_torsion_class_equality(self):
        verdicts = {}
        for kind, f, d, e, g, h, k in draws(400, 23):
            got = same_class(f, d, e, g, h, k)
            assert got == canonical_same(f, d, e, g, h, k), (kind, f, d, e, g, h, k)
            # symmetric in its two fractions
            assert same_class(g, h, k, f, d, e) == got
            verdicts.setdefault(kind, set()).add(got)
        assert verdicts["equal"] == {True} and verdicts["equal plus one"] == {False}
        assert verdicts["independent"] == {False}
        assert verdicts["shared factor"] == verdicts["zero"] == {True, False}

    def test_the_draws_cover_the_hard_inputs(self):
        cases = draws(400, 23)
        assert any(e < 0 and k < 0 for _, _, _, e, _, _, k in cases)
        assert any(not any(f) for _, f, *_ in cases)
        assert any(max(map(abs, d)) > 1 and abs(d[-1]) != 1 for _, _, d, *_ in cases)
        assert any(gcd(*d) > 1 for _, _, d, *_ in cases)
        assert any(len(d) != len(h) for _, _, d, _, _, h, _ in cases)

    def test_small_cases(self):
        # t / (1 + t) = 1 - 1 / (1 + t)
        assert same_class([1], [1, 1], 1, [-1], [1, 1], 0)
        assert not same_class([1], [1, 1], 1, [1], [1, 1], 0)
        # 2 / (2t - 4) = 1 / (t - 2), and t^-1 / (t - 2) = 1 / (2t - 4) mod Lambda
        assert same_class([2], [-4, 2], 0, [1], [-2, 1], 0)
        assert same_class([1], [-2, 1], -1, [1], [-4, 2], 0)
        # everything is zero over a constant denominator
        assert same_class([3, 1], [5], -4, [], [7], 2)


class TestIntegerGcd:
    """laurent_gcd's Euclid, divides and divexact on integer lists against
    their Fraction bodies."""

    def pairs(self, seed, count=150):
        rng = random.Random(seed)
        for _ in range(count):
            common = poly(random_den(rng, rng.randint(0, 3)), rng.randint(-3, 3)).scale(rng.choice([1, 2, "1/3", "-5/7"]))
            a = poly(random_den(rng, rng.randint(0, 3)), rng.randint(-3, 3)).scale(rng.choice([1, "3/2", -4]))
            b = poly(random_den(rng, rng.randint(0, 3)), rng.randint(-3, 3))
            yield a * common, b * common
            yield a, b

    def test_gcd_matches_the_fraction_euclid(self):
        shared = 0
        for p, q in self.pairs(31):
            got = laurent_gcd.__wrapped__(p, q)
            assert got == oracle_laurent_gcd(p, q), (p, q)
            shared += not got.is_one()
        assert shared > 50
        assert laurent_gcd.__wrapped__(parse_poly("0"), parse_poly("2*t^-1 - 4")) == parse_poly("t - 1/2")

    def test_divides_and_divexact_match_the_fraction_division(self):
        for p, q in self.pairs(37):
            for d, x in ((p, p * q), (q, p * q), (p, q), (q, p), (p, p.shift(3))):
                assert divides(d, x) == oracle_divides(d, x), (d, x)
                if oracle_divides(d, x):
                    assert divexact(x, d) == oracle_divexact(x, d), (x, d)
                else:
                    with pytest.raises(ValueError):
                        divexact(x, d)
        assert divides(parse_poly("0"), parse_poly("0")) and not divides(parse_poly("0"), ONE)
        assert divexact(parse_poly("6*t^-2 - 3*t^-1"), parse_poly("2/5*t^3 - 1/5*t^4")) == parse_poly("15*t^-5")


def hermitian_by_classes(B):
    """The canonical route: every conjugate made a class and compared."""
    gram = B.gram
    n = len(gram)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    conj = conjugates([gram[i][j] for i, j in upper])
    return all(gram[j][i] == c for (i, j), c in zip(upper, conj))


def anti_isometric_by_classes(T, B):
    n = T.module.generators
    images = [ModuleElement(T.module, T.matrix.col(i)) for i in range(n)]
    conj = conjugates([g for row in pair_grid(B, images, images) for g in row])
    gram = B.gram
    return all(gram[i][j] == conj[i * n + j] for i in range(n) for j in range(n))


def with_entry(B, i, j, x):
    gram = [list(row) for row in B.gram]
    gram[i][j] = x
    return pairing_from_gram(B.module, gram)


class TestHermitian:
    def test_matches_the_canonical_route(self):
        rng = random.Random(41)
        verdicts = set()
        for label, T in check_cases():
            B = T.pairing
            assert check_hermitian(B) and hermitian_by_classes(B), label
            n = len(B.gram)
            for _ in range(3):
                i, j = rng.randrange(n), rng.randrange(n)
                shift = TorsionClass(poly([rng.randint(-2, 2), 1]), poly(random_den(rng, rng.randint(1, 2))))
                bad = with_entry(B, i, j, class_add(B.gram[i][j], shift))
                got = check_hermitian(bad)
                assert got == hermitian_by_classes(bad), (label, i, j)
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_a_gram_made_non_hermitian_in_one_entry_is_rejected(self):
        T = assemble(builtin("nine46"))
        B = T.pairing
        bad = with_entry(B, 0, 1, class_add(B.gram[0][1], TorsionClass(ONE, parse_poly("t - 2"))))
        assert not check_hermitian(bad)
        assert not hermitian_by_classes(bad)
        assert "hermitian" in validate(EquivariantTriple(T.module, bad, T.involution)).failing()


class TestAntiIsometry:
    def test_matches_the_canonical_route(self):
        verdicts = set()
        for label, T in check_cases():
            M = T.involution.matrix.to_lists()
            assert verify_anti_isometry(T.involution, T.pairing), label
            assert anti_isometric_by_classes(T.involution, T.pairing), label
            n = len(M)
            for i, j in ((0, n - 1), (n - 1, 0), (0, 0)):
                bad = [row[:] for row in M]
                bad[i][j] = bad[i][j] + parse_poly("t")
                S = SemilinearMap(T.module, LambdaMatrix(bad))
                got = verify_anti_isometry(S, T.pairing)
                assert got == anti_isometric_by_classes(S, T.pairing), (label, i, j)
                verdicts.add(got)
        assert False in verdicts

    def test_one_wrong_involution_entry_is_rejected(self):
        # nine46's involution with entry (0, 1) raised by 1 is still well
        # defined, but no anti-isometry
        T = assemble(builtin("nine46"))
        M = T.involution.matrix.to_lists()
        M[0][1] = M[0][1] + ONE
        S = SemilinearMap(T.module, LambdaMatrix(M))
        assert S.well_defined
        assert not verify_anti_isometry(S, T.pairing)
        assert not anti_isometric_by_classes(S, T.pairing)
        report = validate(EquivariantTriple(T.module, T.pairing, S))
        assert "anti_isometry" in report.failing() and "involution_well_defined" not in report.failing()


class TestSampledEvaluations:
    def test_same_class_matches_the_canonical_route(self):
        # _check_samples' comparison against evaluate_certificate == pair,
        # on true values and on values off by one coefficient
        rng = random.Random(43)
        verdicts = set()
        for label, T in list(check_cases())[:12]:
            cert = tau_quadratic(T)
            for _ in range(2):
                v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cert.basis.dimension)]
                x = cert.basis.from_coords(v)
                (direct,), den, e = pair_values(T.pairing, [x], [T.involution.apply(x)])
                expected = pair(T.pairing, x, T.involution.apply(x))
                total, over = _certificate_value(cert, v)
                for off in (0, 1):
                    stored = [total[0] + off] + total[1:] if total else [off]
                    got = same_class(stored, over, 0, direct, den, e)
                    canonical = laurent.classes_over([stored], over)[0] == expected
                    assert got == canonical, (label, v, off)
                    verdicts.add(got)
                assert evaluate_certificate(cert, v) == expected, label
        assert verdicts == {True, False}

    def test_a_stored_value_off_by_one_coefficient_exits_3(self, capsys, monkeypatch):
        def off_by_one(cert, v):
            total, over = _certificate_value(cert, v)
            return [total[0] + 1] + total[1:] if total else [1], over

        monkeypatch.setattr("eqslice.obstruction._certificate_value", off_by_one)
        code = main(["obstruct", "nine46", "--json"])
        out, err = capsys.readouterr()
        assert code == EXIT_INTERNAL == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err == "internal error: RuntimeError: quadratic certificate disagrees with direct evaluation\n"


def test_validate_makes_no_canonical_class(monkeypatch):
    triples = [assemble(builtin(name, **params)) for name, params in CATALOG_GRID]
    calls = []

    def counting(nums, den, e=0):
        calls.append(len(nums))
        return batch(nums, den, e)

    batch = laurent.classes_over
    for module in (laurent, pairing, obstruction):
        monkeypatch.setattr(module, "classes_over", counting)
    reports = [validate(T) for T in triples]
    assert all(report.ok for report in reports)
    assert calls == []
