"""The pairing's integer form against the eager gram it replaced.

gram_from_seifert keeps (den, N, scale) from the inverse pencil and builds
the canonical classes only when the gram is read; check_nonsingular reads
eps off N.  The oracles are the code they replaced, kept in
tests/pairing_oracles.py: eager_gram makes every class at once with
classes_over, and eps_nonsingular reads eps off canonical classes.  The
cases are the catalog grid, n-fold sums of nine46 and genus_one_slice:m=3,l=5,
the benchmark's seed-0 swap doubles, dense draws of genus 2 to 8 and
SINGULAR_DENSE, which takes the interpolated inverse.  The integer form is
also checked to be content-free, after negation and block sums too, and its
trace form to stay small on a dense genus-14 draw.
"""
import random
from functools import lru_cache
from math import gcd

import pytest

import eqslice.laurent
import eqslice.pairing
from eqslice.catalog import builtin, sum_specs
from eqslice.modules import direct_sum, from_seifert
from eqslice.pairing import check_nonsingular, direct_sum_pairing, gram_from_seifert, negate_pairing

from cases import CATALOG_GRID, SINGULAR_DENSE, dense_seifert, seeded_swap_matrices, swap_double
from pairing_oracles import eager_gram, eps_nonsingular


def seifert_cases():
    """Label -> Seifert matrix."""
    cases = {}
    for name, params in CATALOG_GRID:
        cases[f"{name}{params}"] = builtin(name, **params).seifert
    for name, params in (("nine46", {}), ("genus_one_slice", {"m": 3, "l": 5})):
        for k in range(2, 9):
            cases[f"{name}{params} x{k}"] = sum_specs([builtin(name, **params)] * k).seifert
    for label, _, A in seeded_swap_matrices():
        cases[label] = A
    rng = random.Random(91)
    for genus in range(2, 9):
        cases[f"dense g{genus}"] = dense_seifert(genus, rng)
    cases["singular dense"] = SINGULAR_DENSE
    cases["singular dense swap double"] = swap_double(SINGULAR_DENSE)
    return cases


CASES = seifert_cases()


@lru_cache(maxsize=None)
def pairing_and_module(label):
    A = [list(r) for r in CASES[label]]
    M = from_seifert(A)
    return A, M, gram_from_seifert(A, M)


@pytest.mark.parametrize("label", sorted(CASES))
def test_classes_of_the_integer_form_match_the_eager_gram(label):
    A, M, B = pairing_and_module(label)
    den, N, scale = B.common
    D = len(den) - 1
    assert gcd(*den) == 1 and den[0] and den[-1] > 0 and scale
    assert all(len(f) <= D for row in N for f in row)
    gram = B.gram
    assert gram == eager_gram(A, M)
    assert [[str(g) for g in row] for row in gram] == [[str(g) for g in row] for row in eager_gram(A, M)]


@pytest.mark.parametrize("label", sorted(CASES))
def test_eps_from_N_matches_the_class_based_eps(label):
    _, _, B = pairing_and_module(label)
    assert check_nonsingular(B) == eps_nonsingular(B)


def content(B):
    """gcd(scale, every coefficient of N)."""
    _, N, scale = B.common
    return gcd(scale, *(c for row in N for f in row for c in f))


@pytest.mark.parametrize("label", sorted(CASES))
def test_the_integer_form_is_content_free(label):
    # and negation and block sums keep it, with nine46 (another den, or the
    # same) and with itself, by Gauss's lemma; a dense draw of genus 5 or
    # more is not summed, as its direct_sum module's Smith form takes
    # seconds to minutes
    _, M, B = pairing_and_module(label)
    B46 = pairing_and_module("nine46{}")[2]
    assert content(B) == 1
    assert content(negate_pairing(B)) == 1
    if M.generators <= 8 or not label.startswith("dense"):
        for other in (B46, B):
            assert content(direct_sum_pairing(B, other, direct_sum(M, other.module))) == 1


def test_the_trace_form_stays_small_on_dense_genus_14():
    # E = [N_ij[D - 1]] is what check_nonsingular eliminates; with the
    # content of (N, scale) left in, its largest entry here had 2216 bits
    den, N, _ = gram_from_seifert(dense_seifert(14, random.Random(7))).common
    D = len(den) - 1
    assert max(abs(f[D - 1]).bit_length() for row in N for f in row if len(f) == D) <= 192


def test_the_cases_take_both_inverse_routes():
    routes = {pairing_and_module(label)[1].model is None for label in CASES}
    assert routes == {True, False}


def test_the_gram_is_a_view_built_when_read(monkeypatch):
    # gram_from_seifert makes no class; each read of the gram makes the
    # whole grid by one classes_over call, and none of them is kept
    calls = []
    original = eqslice.laurent.classes_over

    def counting(nums, den, e=0):
        calls.append(len(nums))
        return original(nums, den, e)

    monkeypatch.setattr(eqslice.pairing, "classes_over", counting)
    monkeypatch.setattr(eqslice.laurent, "classes_over", counting)
    A = sum_specs([builtin("nine46")] * 3).seifert
    B = gram_from_seifert(A)
    assert calls == [] and check_nonsingular(B)
    assert calls == []
    first = B.gram
    assert calls == [36]
    assert B.gram == first and calls == [36, 36]
