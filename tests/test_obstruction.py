import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from eqslice.catalog import assemble, builtin, sum_specs
from eqslice.laurent import ONE, TORSION_ZERO, ZERO, LaurentPoly, TorsionClass, classes_over, parse_poly
from eqslice.obstruction import (
    CERTIFIED_K0,
    COUNTEREXAMPLE,
    INCONCLUSIVE,
    NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE,
    NOT_EQUIVARIANTLY_SLICE,
    UNDECIDED,
    CoprimePart,
    _certificate_value,
    _check_forms,
    _cleared,
    _definiteness,
    _eval_form,
    _falsifier_candidates,
    amphichiral_obstruction,
    certify_k0,
    equivariant_slice_verdict,
    evaluate_certificate,
    genus_lower_bound,
    tau_quadratic,
)
from eqslice.involution import SemilinearMap
from eqslice.matrices import LambdaMatrix
from eqslice.pairing import pair, pair_grid
from eqslice.witt import EquivariantTriple, triple_sum, validate
from pairing_oracles import (
    class_add,
    certify_k0_fraction,
    definiteness_fraction,
    eval_form_fraction,
    evaluate_by_fold,
    fraction_routes,
    grid_lists,
    part_from_forms,
    symmetrised_grid,
    tau_parts_per_entry,
)
from cases import SINGULAR_DENSE, check_cases, seeded_swap_doubles, swap_double_of


def nine46():
    return assemble(builtin("nine46"))


def nine46_sum(n):
    spec = builtin("nine46")
    return assemble(sum_specs([spec] * n)) if n > 1 else assemble(spec)


def genus_one(m, l, c=1):
    return assemble(builtin("genus_one_slice", m=m, l=l, c=c))


def nonzero_forms(part):
    return [Q for Q in part.forms if any(any(row) for row in Q)]


def unknot():
    from eqslice.catalog import KnotSpec
    from eqslice.matrices import LambdaMatrix

    return assemble(KnotSpec(name="unknot", seifert=(), involution=LambdaMatrix([])))


class TestTauQuadratic:
    def test_nine46_parts(self):
        cert = tau_quadratic(nine46())
        dens = sorted(str(p.denominator) for p in cert.parts)
        assert dens == ["t - 1/2", "t - 2"]
        # one form per part, a scaled square of a single linear functional
        for part in cert.parts:
            forms = nonzero_forms(part)
            assert len(forms) == 1
            Q = forms[0]
            assert Q[0][0] * Q[1][1] - Q[0][1] * Q[1][0] == 0  # rank one
            assert any(Q[i][i] for i in range(2))

    def test_trivial_module_no_parts(self):
        cert = tau_quadratic(unknot())
        assert cert.parts == ()

    def test_genus_one_part_shapes(self):
        # one linear denominator per coprime factor, carrying one rank-one
        # (semidefinite) form each; the two squared functionals are
        # independent, so the sign-normalized sum is definite
        for c in (1, 2, Fraction(-3)):
            cert = tau_quadratic(genus_one(1, 1, c))
            assert len(cert.parts) == 2
            combined = [[Fraction(0)] * 2 for _ in range(2)]
            for part in cert.parts:
                assert part.denominator.degree() == 1
                forms = nonzero_forms(part)
                assert len(forms) == 1
                Q = forms[0]
                assert Q[0][0] * Q[1][1] - Q[0][1] * Q[1][0] == 0  # rank one
                diag = Q[0][0] or Q[1][1]
                flip = -1 if diag < 0 else 1
                for i in range(2):
                    for j in range(2):
                        combined[i][j] += flip * Q[i][j]
            d = definiteness_fraction(combined)
            assert d is not None and d[0] > 0

    def test_representation_matches_direct_evaluation(self):
        rng = random.Random(50)
        for triple in [nine46(), genus_one(1, 1), genus_one(-2, 3, Fraction(1, 2))]:
            cert = tau_quadratic(triple)
            dim = cert.basis.dimension
            for _ in range(10):
                v = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
                stored = evaluate_certificate(cert, v)
                x = cert.basis.from_coords(v)
                direct = pair(triple.pairing, x, triple.involution.apply(x))
                assert stored == direct


def sampled_self_check(T, cert, rounds=20, seed=0):
    """The certificate check that the exact one replaced, kept as an oracle:
    compare the stored parts with direct evaluation on random vectors."""
    rng = random.Random(seed)
    basis = cert.basis
    for _ in range(rounds):
        v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(basis.dimension)]
        stored = evaluate_certificate(cert, v)
        x = basis.from_coords(v)
        direct = pair(T.pairing, x, T.involution.apply(x))
        if stored != direct:
            raise RuntimeError("quadratic certificate disagrees with direct evaluation")


def tau_grid_oracle(T, basis):
    """The old symmetrised tau-grid over the rational basis, per term."""
    beta = [basis.basis_element(k) for k in range(basis.dimension)]
    return symmetrised_grid(T.pairing, beta, [T.involution.apply(b) for b in beta])


def generator_grid_oracle(T, basis):
    """The symmetrised grid pair(u_i, tau u_j) over the block generators,
    per term: the G that _check_forms reads."""
    gens = [u for u, _ in basis.blocks]
    return symmetrised_grid(T.pairing, gens, [T.involution.apply(u) for u in gens])


def assert_forms_match_the_grid(cert, grid):
    """At every k <= l, the sum over parts of (sum_m forms[m][k][l] t^m) /
    denominator is the class grid[k][l], summed by the oracle's addition."""
    dim = cert.basis.dimension
    for k in range(dim):
        for l in range(k, dim):
            total = TORSION_ZERO
            for part in cert.parts:
                num = LaurentPoly({m: Q[k][l] for m, Q in enumerate(part.forms)})
                total = class_add(total, TorsionClass(num, part.denominator))
            assert total == grid[k][l], (k, l)


def block_offsets(cert):
    sizes = [d.degree() for d in cert.basis.factors]
    return [sum(sizes[:i]) for i in range(len(sizes))]


def with_forms(cert, idx, edit):
    """A copy of cert whose part idx has its forms rewritten by edit(forms)."""
    part = cert.parts[idx]
    forms = [[list(row) for row in Q] for Q in part.forms]
    edit(forms)
    parts = list(cert.parts)
    parts[idx] = part_from_forms(part.denominator, forms)
    return replace(cert, parts=tuple(parts))


def first_nonzero(forms, diagonal):
    for m, Q in enumerate(forms):
        for k in range(len(Q)):
            for l in range(k, len(Q)):
                if Q[k][l] and (k == l) == diagonal:
                    return m, k, l
    return None


def mutations(cert):
    """Named corruptions of a certificate, each wrong on some rational vector."""
    dim = cert.basis.dimension
    if len(cert.parts) > 1:
        yield "dropped part", replace(cert, parts=cert.parts[1:])
    yield "dropped last part", replace(cert, parts=cert.parts[:-1])

    def bump(k, l, asymmetric=False):
        def edit(forms):
            forms[0][k][l] += 1
            if l != k and not asymmetric:
                forms[0][l][k] += 1

        return edit

    yield "perturbed diagonal", with_forms(cert, 0, bump(0, 0))
    if dim > 1:
        yield "perturbed off-diagonal", with_forms(cert, 0, bump(0, 1))
        yield "asymmetric lower entry", with_forms(cert, 0, bump(1, 0, asymmetric=True))
    for idx, part in enumerate(cert.parts):
        for diagonal in (True, False):
            spot = first_nonzero(part.forms, diagonal)
            if spot is None or dim < 2:
                continue
            m, k, l = spot
            a, b = (0, 1) if (k, l) != (0, 1) else (0, 0)

            def move(forms, m=m, k=k, l=l, a=a, b=b):
                value = forms[m][k][l]
                forms[m][k][l] = forms[m][l][k] = Fraction(0)
                forms[m][a][b] += value
                if a != b:
                    forms[m][b][a] += value

            yield f"part {idx} {'diagonal' if diagonal else 'off-diagonal'} entry moved", with_forms(cert, idx, move)


class TestCertificateCheck:
    def test_exact_and_sampled_checks_accept(self):
        for _label, T in check_cases():
            cert = tau_quadratic(T)  # runs the exact check
            sampled_self_check(T, cert)
            _check_forms(cert, *grid_lists(generator_grid_oracle(T, cert.basis)))
            assert_forms_match_the_grid(cert, tau_grid_oracle(T, cert.basis))

    @pytest.mark.parametrize(
        "triple",
        [
            nine46,
            lambda: genus_one(-2, 3, 2),
            lambda: nine46_sum(2),
            lambda: assemble(builtin("swap_double", inner="nine46")),
        ],
        ids=["nine46", "genus_one", "nine46x2", "swap_nine46"],
    )
    def test_mutations_rejected(self, triple):
        T = triple()
        cert = tau_quadratic(T)
        sym = grid_lists(generator_grid_oracle(T, cert.basis))
        seen = []
        for label, bad in mutations(cert):
            seen.append(label)
            with pytest.raises(RuntimeError, match="quadratic certificate disagrees"):
                _check_forms(bad, *sym)
            with pytest.raises(RuntimeError, match="quadratic certificate disagrees"):
                sampled_self_check(T, bad)
        assert {"dropped last part", "perturbed diagonal", "perturbed off-diagonal"} <= set(seen)
        assert any("entry moved" in label for label in seen)

    def test_symmetrised_grid_gives_the_same_parts(self, monkeypatch):
        # the grid is already symmetric, so the old averaged one, put in its
        # place on integer lists, yields the same parts
        for label, T in check_cases():
            cert = tau_quadratic(T)
            beta = [cert.basis.basis_element(k) for k in range(cert.basis.dimension)]
            images = [T.involution.apply(b) for b in beta]
            assert pair_grid(T.pairing, beta, images) == symmetrised_grid(T.pairing, beta, images), label
            with monkeypatch.context() as m:
                m.setattr("eqslice.obstruction.pair_values", lambda B, xs, ys: grid_lists(symmetrised_grid(B, xs, ys)))
                assert tau_quadratic(T).parts == cert.parts, label

    def test_asymmetric_grid_raises(self):
        # on a doubled figure eight, tau' = tau o L with L(a, b) = (a, a - b):
        # well defined and involutive (L commutes with tau and L^2 = 1), but
        # L is no isometry, so pair(b_k, tau' b_l) is not symmetric
        spec = builtin("figure_eight")
        T = assemble(sum_specs([spec, spec]))
        L = LambdaMatrix(
            [[ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO], [ONE, ZERO, -ONE, ZERO], [ZERO, ONE, ZERO, -ONE]]
        )
        bad = EquivariantTriple(T.module, T.pairing, SemilinearMap(T.module, T.involution.matrix * L))
        assert validate(bad).failing() == ["anti_isometry"]
        with pytest.raises(RuntimeError, match="not symmetric"):
            tau_quadratic(bad)

    def test_sampled_evaluations(self, monkeypatch):
        # the exact check alone would pass; two end-to-end samples still run
        calls = []

        def counting(cert, v):
            calls.append(v)
            return _certificate_value(cert, v)

        monkeypatch.setattr("eqslice.obstruction._certificate_value", counting)
        cert = tau_quadratic(nine46(), seed=5)
        rng = random.Random(5)
        dim = cert.basis.dimension
        assert calls == [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)] for _round in range(2)
        ]


def block_shift_cases():
    """(label, triple): every check_cases() triple (the 15 CATALOG_GRID
    references, their doubled sums and swap doubles of dense genus 1-2),
    2- to 4-fold sums of nine46 and of genus_one_slice:m=3,l=5, the swap
    double of SINGULAR_DENSE, which has no rational model, and a direct_sum
    module whose blocks have degrees 2 and 4."""
    yield from check_cases()
    for name, params in (("nine46", {}), ("genus_one_slice", {"m": 3, "l": 5})):
        spec = builtin(name, **params)
        for n in (2, 3, 4):
            yield f"{name}{params} x{n}", assemble(sum_specs([spec] * n))
    yield "singular swap double", swap_double_of(SINGULAR_DENSE, "singular_swap")
    yield "direct_sum", triple_sum(nine46(), assemble(sum_specs([builtin("nine46"), builtin("figure_eight")])))


class TestBlockShift:
    """tau_quadratic pairs the block generators only and shifts in t; the
    per-entry oracle pairs every basis element with every image."""

    def test_parts_equal_the_per_entry_oracle(self):
        shapes = set()
        for label, T in block_shift_cases():
            cert = tau_quadratic(T)
            assert cert.parts == tau_parts_per_entry(T), label
            sizes = [d.degree() for d in cert.basis.factors]
            if len(sizes) > 1:
                shapes.add("several blocks")
            if len(set(sizes)) > 1:
                shapes.add("blocks of unequal degree")
            if T.module.model is None:
                shapes.add("no model")
        # the shift and the Hankel fill run within and across blocks, also
        # of unequal degree, and on modules with and without a model
        assert shapes == {"several blocks", "blocks of unequal degree", "no model"}

    def test_evaluate_certificate_matches_the_fold(self):
        rng = random.Random(18)
        multi_part = 0
        for label, T in block_shift_cases():
            cert = tau_quadratic(T)
            if len(cert.parts) < 2:
                continue
            multi_part += 1
            dim = cert.basis.dimension
            for _ in range(5):
                v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim)]
                assert evaluate_certificate(cert, v) == evaluate_by_fold(cert, v), label
        assert multi_part >= 10


    def test_shifted_or_filled_generator_grid_rejected_at_its_block_pair(self):
        # G_ij replaced by t * G_ij (an off-by-one shift), or a zero G_ij made
        # nonzero, is first wrong at the block pair's corner (off_i, off_j):
        # every earlier k <= l reads another G entry
        t = parse_poly("t")
        kinds = set()
        for label, T in block_shift_cases():
            cert = tau_quadratic(T)
            G = generator_grid_oracle(T, cert.basis)
            offsets = block_offsets(cert)
            _check_forms(cert, *grid_lists(G))
            for i in range(len(G)):
                for j in range(i, len(G)):
                    if G[i][j].is_zero():
                        kind, value = "filled", TorsionClass(ONE, cert.basis.factors[i])
                    else:
                        kind, value = "shifted", TorsionClass(t * G[i][j].num, G[i][j].den)
                    kinds.add(kind)
                    bad = [row[:] for row in G]
                    bad[i][j] = bad[j][i] = value
                    at = re.escape(f"disagrees with the pairing at ({offsets[i]}, {offsets[j]})")
                    with pytest.raises(RuntimeError, match=at):
                        _check_forms(cert, *grid_lists(bad))
        assert kinds == {"filled", "shifted"}

    def test_no_classes_over_call_per_certificate(self, monkeypatch):
        # no canonical class is made anywhere inside tau_quadratic: G comes
        # from pair_values, its symmetry and the exact check are decided by
        # same_class, and so are the two sampled evaluations
        calls = []

        def counting(nums, den, e=0):
            calls.append(len(nums))
            return classes_over(nums, den, e)

        for module in ("laurent", "pairing", "obstruction"):
            monkeypatch.setattr(f"eqslice.{module}.classes_over", counting)
        for label, T in block_shift_cases():
            calls.clear()
            tau_quadratic(T)
            assert calls == [], label
        # the counter sees a class made through the constructor
        TorsionClass(ONE, parse_poly("t - 2"))
        assert calls == [1]

    @pytest.mark.parametrize("spec", [builtin("swap_double", inner="nine46"), sum_specs([builtin("nine46")] * 4)], ids=["swap double", "nine46 x4"])
    def test_assemble_and_certificate_build_no_gram_classes(self, monkeypatch, spec):
        # the pairing is held as integer lists from the inverse pencil, and
        # validate reads them, so assemble makes no canonical class; the
        # certificate makes none either, except the counterexample's one
        # confirming value, pair(x, tau x)
        calls = []

        def counting(nums, den, e=0):
            calls.append(len(nums))
            return classes_over(nums, den, e)

        monkeypatch.setattr("eqslice.pairing.classes_over", counting)
        T = assemble(spec)
        assert calls == []
        verdict = certify_k0(T).verdict
        assert calls == ([1] if verdict == COUNTEREXAMPLE else [])
        assert verdict == (COUNTEREXAMPLE if spec.involution == "swap" else CERTIFIED_K0)

class TestIntegerForms:
    """Each part stores its forms as integer layers over one denominator q;
    the rational forms are built from them on first read, and the Fraction
    evaluation is the oracle."""

    def test_integer_eval_form_matches_the_fraction_oracle(self):
        rng = random.Random(19)
        for label, T in check_cases():
            cert = tau_quadratic(T)
            dim = cert.basis.dimension
            vectors = [[Fraction(0)] * dim] + [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim)] for _ in range(3)
            ]
            for part in cert.parts:
                q, layers = part.q, part.layers
                assert part.forms is part.forms
                for v in vectors:
                    w, m = _cleared(v)
                    for Q, layer in zip(part.forms, layers):
                        assert Fraction(_eval_form(layer, w), q * m * m) == eval_form_fraction(Q, v), label
            for v in vectors:
                assert evaluate_certificate(cert, v) == evaluate_by_fold(cert, v), label
            assert evaluate_certificate(cert, vectors[0]) == TORSION_ZERO

    @pytest.mark.parametrize(
        "triple",
        [lambda: nine46_sum(2), lambda: assemble(builtin("swap_double", inner="nine46")), lambda: genus_one(-2, 3, 2)],
        ids=["nine46x2", "swap_nine46", "genus_one"],
    )
    def test_one_perturbed_coefficient_raises_at_its_entry(self, triple):
        # in the Fraction forms, stored afresh as layers, and in the stored
        # integer layers; a symmetric change is caught against the pairing,
        # a one-sided one as an asymmetry, each at its own (k, l)
        T = triple()
        cert = tau_quadratic(T)
        grid = grid_lists(generator_grid_oracle(T, cert.basis))
        dim = cert.basis.dimension
        spots = [(idx, m, k, l) for idx, part in enumerate(cert.parts) for m in range(len(part.forms)) for k in range(dim) for l in range(k, dim)]
        for idx, m, k, l in random.Random(20).sample(spots, min(len(spots), 12)):
            at = re.escape(f"disagrees with the pairing at ({k}, {l})")

            def bump(forms, m=m, k=k, l=l):
                forms[m][k][l] += 1
                if k != l:
                    forms[m][l][k] += 1

            with pytest.raises(RuntimeError, match=at):
                _check_forms(with_forms(cert, idx, bump), *grid)
            part = cert.parts[idx]
            for symmetric in (True, False):
                if not symmetric and k == l:
                    continue
                edited = [[list(row) for row in Q] for Q in part.layers]
                edited[m][k][l] += 1
                if symmetric and k != l:
                    edited[m][l][k] += 1
                fresh = replace(part, layers=tuple(tuple(tuple(row) for row in Q) for Q in edited))
                bad = replace(cert, parts=cert.parts[:idx] + (fresh,) + cert.parts[idx + 1 :])
                message = at if symmetric else re.escape(f"forms are not symmetric at ({k}, {l})")
                with pytest.raises(RuntimeError, match=message):
                    _check_forms(bad, *grid)
        _check_forms(cert, *grid)


class TestCertifyK0:
    def test_nine46_certified(self):
        cert = certify_k0(nine46())
        assert cert.verdict == CERTIFIED_K0

    def test_sum_certified(self):
        cert = certify_k0(nine46_sum(2))
        assert cert.verdict == CERTIFIED_K0

    def test_genus_one_certified_across_c(self):
        verdicts = set()
        for c in (1, 2, Fraction(1, 2), -3, 7):
            cert = certify_k0(genus_one(1, 1, c))
            verdicts.add(cert.verdict)
        assert verdicts == {CERTIFIED_K0}

    def test_swap_double_counterexample(self):
        triple = assemble(builtin("swap_double", inner="trefoil"))
        cert = certify_k0(triple)
        assert cert.verdict == COUNTEREXAMPLE
        x = cert.counterexample
        assert not x.is_zero()
        assert pair(triple.pairing, x, triple.involution.apply(x)).is_zero()

    def test_certified_audit(self):
        # randomized audit: no nonzero isotropic vector exists
        rng = random.Random(51)
        triple = nine46()
        cert = certify_k0(triple)
        assert cert.verdict == CERTIFIED_K0
        dim = cert.basis.dimension
        for _ in range(1000):
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim)]
            if not any(v):
                continue
            x = cert.basis.from_coords(v)
            assert not pair(triple.pairing, x, triple.involution.apply(x)).is_zero()

    def test_lazy_falsifier_candidates(self):
        def eager(dim, samples, seed):
            # the list certify_k0 built before the candidates became a generator
            rng = random.Random(seed)
            candidates = []
            for k in range(dim):
                e = [Fraction(0)] * dim
                e[k] = Fraction(1)
                candidates.append(e)
            for k in range(dim):
                for l in range(k + 1, dim):
                    for sgn in (1, -1):
                        e = [Fraction(0)] * dim
                        e[k] = Fraction(1)
                        e[l] = Fraction(sgn)
                        candidates.append(e)
            for _ in range(samples):
                candidates.append([Fraction(rng.randint(-32, 32), rng.randint(1, 32)) for _ in range(dim)])
            return candidates

        for dim, samples, seed in ((1, 0, 0), (1, 5, 3), (2, 300, 0), (4, 300, 7), (6, 17, 11)):
            assert list(_falsifier_candidates(dim, samples, seed)) == eager(dim, samples, seed)

    @staticmethod
    def crafted(monkeypatch, *forms):
        """certify_k0 on nine46 with tau_quadratic returning its certificate
        with the given forms, one per part over a linear denominator."""
        cert = tau_quadratic(nine46())
        parts = tuple(
            CoprimePart(parse_poly(f"t - {idx + 2}"), 1, (tuple(tuple(row) for row in Q),))
            for idx, Q in enumerate(forms)
        )
        monkeypatch.setattr("eqslice.obstruction.tau_quadratic", lambda T, seed=0: replace(cert, parts=parts))
        got = certify_k0(nine46())
        verdict, evidence, _ = fraction_routes(nine46(), cert.basis, parts)
        assert (got.verdict, got.evidence) == (verdict, evidence)
        return got

    def test_support_partition_route(self, monkeypatch):
        # route (1): each coordinate is covered by a form definite on its
        # support; the indefinite third form joins no partition
        cert = self.crafted(monkeypatch, [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 2], [2, 1]])
        assert cert.verdict == CERTIFIED_K0
        assert cert.evidence == {
            "support_partition": [{"form": 0, "sign": 1, "support": [0]}, {"form": 1, "sign": 1, "support": [1]}]
        }

    def test_plain_sum_route(self, monkeypatch):
        # route (2): both forms are indefinite, the sign-normalized sum
        # -Q0 + Q1 = diag(3, -4) is too, and the plain sum diag(1, 2) is definite
        cert = self.crafted(monkeypatch, [[-1, 0], [0, 3]], [[2, 0], [0, -1]])
        assert cert.verdict == CERTIFIED_K0
        assert cert.evidence == {"combination": {"kind": "plain_sum", "weights": [1, 1], "pivots": ["1", "2"]}}

    def test_deterministic_given_seed(self):
        a = certify_k0(nine46(), seed=7)
        b = certify_k0(nine46(), seed=7)
        assert a.verdict == b.verdict and a.evidence == b.evidence


class TestFractionOracle:
    """tau_quadratic and certify_k0 on integer lists against the Fraction
    certificate they replaced (pairing_oracles.certify_k0_fraction): the
    same parts, verdict, evidence and counterexample."""

    @staticmethod
    def cases():
        yield from block_shift_cases()
        for name, params in (("nine46", {}), ("genus_one_slice", {"m": 3, "l": 5})):
            spec = builtin(name, **params)
            for n in range(5, 9):
                yield f"{name}{params} x{n}", assemble(sum_specs([spec] * n))
        yield from seeded_swap_doubles()

    def test_certificates_equal_the_fraction_oracle(self):
        verdicts = set()
        for label, T in self.cases():
            cert = certify_k0(T)
            parts, verdict, evidence, counterexample = certify_k0_fraction(T)
            assert (cert.parts, cert.verdict, cert.evidence) == (parts, verdict, evidence), label
            if counterexample is None:
                assert cert.counterexample is None, label
            else:
                assert cert.counterexample.coeffs == counterexample.coeffs, label
            verdicts.add(next(iter(cert.evidence)) if cert.verdict == CERTIFIED_K0 else cert.verdict)
        assert verdicts == {"combination", COUNTEREXAMPLE, UNDECIDED}

    def test_seeds_draw_the_same_samples_and_candidates(self):
        for seed in (1, 9):
            for label, T in list(block_shift_cases())[:6]:
                cert = certify_k0(T, seed=seed)
                _, verdict, evidence, _ = certify_k0_fraction(T, seed=seed)
                assert (cert.verdict, cert.evidence, cert.seed) == (verdict, evidence, seed), label


def symmetric_draws():
    """(label, Q): seeded integer symmetric matrices of sizes 0 to 6, some
    definite (B^T B + I and its negative), some with a zero leading minor
    or a sign change at each position, and plain random ones."""
    rng = random.Random(24)
    yield "empty", []
    for c in (-3, 0, 5):
        yield "one by one", [[c]]
    for n in range(1, 7):
        for _ in range(12):
            B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            G = [[sum(B[k][i] * B[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
            yield "definite", G
            yield "negative definite", [[-x for x in row] for row in G]
        for k in range(n if n > 1 else 0):
            # L d L^T for L unit lower triangular has the LDL^T pivots d,
            # whose sign changes at k
            d = [rng.randint(1, 5) * (-1 if i == k else 1) for i in range(n)]
            for sign in (1, -1):
                L = [[int(i == j) if i >= j else 0 for j in range(n)] for i in range(n)]
                for i in range(n):
                    for j in range(i):
                        L[i][j] = rng.randint(-2, 2)
                Q = [[sign * sum(L[i][m] * d[m] * L[j][m] for m in range(n)) for j in range(n)] for i in range(n)]
                yield f"sign change at {k}", Q
        for k in range(n):
            # the leading (k+1) x (k+1) minor vanishes: row and column k
            # repeat an earlier one, or the entry is zero
            Q = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            Q = [[Q[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            if k:
                src = rng.randrange(k)
                for j in range(n):
                    Q[k][j] = Q[src][j]
                for i in range(n):
                    Q[i][k] = Q[i][src]
                Q[k][k] = Q[src][src]
            else:
                Q[0][0] = 0
            yield f"zero minor {k + 1}", Q
        for _ in range(50):
            Q = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            yield "random", [[Q[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


class TestDefiniteness:
    """_definiteness by fraction-free elimination against the Fraction
    LDL^T it replaced: the same sign, and pivots D_k / (S * D_(k-1)) equal
    to the LDL^T pivots of the form over S."""

    def test_minors_give_the_fraction_pivots(self):
        draws = list(symmetric_draws())
        assert len(draws) >= 500
        for label, Q in draws:
            got = _definiteness(Q)
            for S in (1, 6):
                expected = definiteness_fraction([[Fraction(x, S) for x in row] for row in Q])
                if expected is None:
                    assert got is None, (label, Q)
                    continue
                sign, minors = got
                pivots = [Fraction(D, S * prev) for D, prev in zip(minors, [1] + minors)]
                assert (sign, pivots) == expected, (label, Q)
            if label.startswith(("sign change", "zero minor", "empty")):
                assert got is None, (label, Q)
            elif label in ("definite", "negative definite"):
                assert got[0] == (1 if label == "definite" else -1), (label, Q)

    def test_small_cases(self):
        assert _definiteness([]) is None
        assert _definiteness([[3]]) == (1, [3])
        assert _definiteness([[-2]]) == (-1, [-2])
        assert _definiteness([[0]]) is None
        # leading minors 2, 2 * 3 - 1 = 5, then the pivots 2 and 5/2
        assert _definiteness([[2, 1], [1, 3]]) == (1, [2, 5])
        assert _definiteness([[1, 2], [2, 1]]) is None


class TestGenusBound:
    def test_nine46_four_fold(self):
        T = nine46_sum(4)
        cert = certify_k0(T)
        bound = genus_lower_bound(T, cert)
        assert bound.grk == 4
        assert bound.k_upper == 0
        assert bound.bound_rational == 1
        assert bound.bound_integer == 1

    def test_trivial_module(self):
        T = unknot()
        bound = genus_lower_bound(T, certify_k0(T))
        assert bound.bound_rational == 0
        assert bound.bound_integer == 0

    def test_mixed_coprime_multiplicities(self):
        g1 = builtin("genus_one_slice", m=1, l=1)
        g2 = builtin("genus_one_slice", m=2, l=1)
        for a1, a2 in [(1, 3), (2, 2), (4, 1)]:
            spec = sum_specs([g1] * a1 + [g2] * a2)
            T = assemble(spec)
            cert = certify_k0(T)
            assert cert.verdict == CERTIFIED_K0
            bound = genus_lower_bound(T, cert)
            assert bound.bound_rational == Fraction(max(a1, a2), 4)

    def test_user_k_upper(self):
        T = nine46_sum(3)
        cert = tau_quadratic(T)  # verdict UNDECIDED
        assert cert.verdict == UNDECIDED
        bound = genus_lower_bound(T, cert, k_upper=1)
        assert bound.k_upper == 1
        assert bound.bound_rational == Fraction(1, 4)
        vacuous = genus_lower_bound(T, cert)
        assert vacuous.bound_rational == 0

    def test_monotone_under_certified_summand(self):
        base = builtin("genus_one_slice", m=1, l=1)
        other = builtin("genus_one_slice", m=3, l=2)
        T1 = assemble(sum_specs([base] * 2))
        b1 = genus_lower_bound(T1, certify_k0(T1))
        T2 = assemble(sum_specs([base] * 2 + [other]))
        b2 = genus_lower_bound(T2, certify_k0(T2))
        assert b2.bound_rational >= b1.bound_rational

    def test_foreign_certificate_rejected(self):
        T1, T2 = nine46(), genus_one(2, 1)
        cert = certify_k0(T1)
        with pytest.raises(ValueError):
            genus_lower_bound(T2, cert)


class TestSliceVerdict:
    def test_nine46(self):
        report = equivariant_slice_verdict(nine46())
        assert report.verdict == NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE

    def test_unknot_inconclusive(self):
        report = equivariant_slice_verdict(unknot())
        assert report.verdict == INCONCLUSIVE

    def test_genus_one_grid(self):
        for m in (-3, -2, 1, 2, 3):
            for l in (1, 3, 5):
                report = equivariant_slice_verdict(genus_one(m, l))
                assert report.verdict == NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE, (m, l)

    def test_distinct_family_sum(self):
        spec = sum_specs(
            [builtin("genus_one_slice", m=1, l=1), builtin("genus_one_slice", m=2, l=1)]
        )
        report = equivariant_slice_verdict(assemble(spec))
        assert report.verdict == NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE

    def test_swap_double_inconclusive(self):
        T = assemble(builtin("swap_double", inner="trefoil"))
        report = equivariant_slice_verdict(T)
        assert report.verdict == INCONCLUSIVE


class TestAmphichiral:
    def test_a3_n2(self):
        report = amphichiral_obstruction(3, 2)
        assert report.verdict == NOT_EQUIVARIANTLY_SLICE
        assert report.branch.startswith("even")

    def test_a1_n1_odd_branch(self):
        report = amphichiral_obstruction(1, 1)
        assert report.verdict == NOT_EQUIVARIANTLY_SLICE
        assert report.branch.startswith("odd")
        # computed order polynomial evaluates to 4a^2 + 1 = 5 at -1
        assert report.witness == 5

    def test_small_grid(self):
        for a in (1, 2, 7, 25):
            for n in (1, 2, 3, 4):
                report = amphichiral_obstruction(a, n)
                assert report.verdict == NOT_EQUIVARIANTLY_SLICE, (a, n)

    def test_even_grid_passes_every_check(self):
        for a in range(1, 13):
            for n in (2, 4):
                report = amphichiral_obstruction(a, n)
                assert report.verdict == NOT_EQUIVARIANTLY_SLICE, (a, n)
                assert [c.name for c in report.checks] == [
                    "order_irreducible",
                    "generator_fixed_up_to_conjugation",
                    "self_pairing_nonzero",
                    "triple_valid",
                ]
                assert all(c.passed for c in report.checks), (a, n)
                assert report.witness == 4 * a * a + 1

    def test_checks_read_the_catalog_involution(self, monkeypatch):
        # -tau is an involution too, but it moves the cyclic generator b2
        from eqslice import catalog

        entry = catalog._BUILTINS["twist_ka"]

        def negated(a):
            seifert, matrix = entry.make(a)
            return seifert, -matrix

        monkeypatch.setitem(catalog._BUILTINS, "twist_ka", replace(entry, make=negated))
        assert validate(catalog.build(catalog.builtin("twist_ka", a=3))).ok
        report = amphichiral_obstruction(3, 2)
        assert report.verdict == INCONCLUSIVE
        assert [c.name for c in report.checks if not c.passed] == ["generator_fixed_up_to_conjugation"]

    def test_bad_params(self):
        with pytest.raises(ValueError):
            amphichiral_obstruction(0, 1)
        with pytest.raises(ValueError):
            amphichiral_obstruction(1, 0)
