"""Detection engine: certificates that pairing an element against its
involution image vanishes only at zero, slice verdicts, and the equivariant
4-genus lower bound.

The pairing against the involuted argument is a quadratic expression over a
rational basis of the module.  The basis is made of cyclic blocks t^a u_i,
so its grid of values is t^(a+b) G_ij over the blocks' generator grid G.
Splitting it over pairwise-coprime factor powers of the order turns
vanishing into the simultaneous vanishing of finitely many rational
quadratic forms, each a Hankel matrix on every pair of blocks; exhibiting
a positive-definite combination (signs of semidefinite forms may be
flipped first, which is harmless: a common zero kills every combination)
certifies that only the zero element is isotropic, which is the k = 0
input of the genus bound.

The certificate is made and checked on integer coefficient lists: G as
pair_values returns it, one laurent.coprime_split per certificate, each
part's forms stored as integer layers over one denominator, and
definiteness decided by fraction-free elimination.  Rational forms are
built only where they are read.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import ceil, gcd, lcm
from typing import Sequence

from .laurent import (
    LaurentPoly,
    TorsionClass,
    _products,
    _pseudo_divide,
    classes_over,
    coprime_split,
    first_difference,
    gcd_free_basis,
    integer_lists,
    list_dot,
    same_class,
    symmetric_quadratic_tests,
)
from .modules import ModuleElement, RationalBasis
from .pairing import pair, pair_values
from .witt import AxiomCheck, EquivariantTriple, validate

CERTIFIED_K0 = "CERTIFIED_K0"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
UNDECIDED = "UNDECIDED"
NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE = "NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE"
NOT_EQUIVARIANTLY_SLICE = "NOT_EQUIVARIANTLY_SLICE"
INCONCLUSIVE = "INCONCLUSIVE"

# Seeded random vectors the falsifier tries after the unit and e_k +- e_l ones.
FALSIFIER_SAMPLES = 300

FormMatrix = tuple[tuple[Fraction, ...], ...]
IntegerForm = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CoprimePart:
    """Quadratic forms appearing over one coprime factor power of the order.

    The forms are layers[m] / q, q the least positive integer that clears
    them all: layers[m] is the integer coefficient form of t^m in the
    numerator over the denominator, for m from 0 to deg(denominator) - 1.
    """

    denominator: LaurentPoly
    q: int
    layers: tuple[IntegerForm, ...]

    @cached_property
    def forms(self) -> tuple[FormMatrix, ...]:
        """The rational forms layers[m] / q, built on first read."""
        return tuple(tuple(tuple(Fraction(c, self.q) for c in row) for row in Q) for Q in self.layers)


@dataclass(frozen=True)
class QuadraticCertificate:
    basis: RationalBasis
    parts: tuple[CoprimePart, ...]
    verdict: str
    counterexample: ModuleElement | None = None
    evidence: dict = field(default_factory=dict)
    seed: int = 0

    @cached_property
    def common(self) -> tuple[list[int], list[list[int]]]:
        """(P, weights) on integer coefficient lists, P an integer multiple
        of the product of the part denominators: the sum over parts p of
        (f_p / q_p) / denominator_p is sum_p f_p * weights[p] / P.  Made
        once per certificate, for _check_forms and every
        _certificate_value."""
        dens = [integer_lists([part.denominator])[0][0] for part in self.parts]
        P, cofactors = _products(dens)
        S = lcm(*(part.q for part in self.parts))
        # 1 / denominator_p = d[-1] / d, and 1 / d = cofactor / P
        weights = [[S // part.q * d[-1] * c for c in cofactor] for part, d, cofactor in zip(self.parts, dens, cofactors)]
        return [S * c for c in P], weights

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "dimension": self.basis.dimension,
            "parts": [
                {"denominator": str(p.denominator), "forms": len(p.layers)}
                for p in self.parts
            ],
            "evidence": self.evidence,
            "seed": self.seed,
        }
        if self.counterexample is not None:
            out["counterexample"] = [str(c) for c in self.counterexample.coeffs]
        return out


def _eval_form(Q: Sequence[Sequence[int]], v: Sequence[int]) -> int:
    """v^T Q v for an integer form Q and an integer vector v."""
    total = 0
    for x, row in zip(v, Q):
        if x:
            total += x * sum(e * y for e, y in zip(row, v) if e and y)
    return total


def _cleared(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """(w, m) with v = w / m: m the least positive integer that clears v."""
    m = lcm(*(x.denominator for x in v))
    return [x.numerator * (m // x.denominator) for x in v], m


def _support(Q: Sequence[Sequence[int]]) -> list[int]:
    return [i for i, row in enumerate(Q) if any(row)]


def _definiteness(Q: Sequence[Sequence[int]]) -> tuple[int, list[int]] | None:
    """Sign and leading principal minors D_1 .. D_n when the integer
    symmetric Q is definite, else None.

    Fraction-free (Bareiss) elimination in order, with no pivoting: after
    step k the pivot is D_(k+1), and each division by the previous pivot
    is exact.  The pivots of symmetric Gaussian reduction (completion of
    squares) are D_k / D_(k-1), D_0 = 1, so Q is definite iff they share
    one sign.  A vanishing minor means the form is singular or indefinite:
    definite matrices never hit one, so the certificate declines either
    way (semidefinite-with-kernel counts as not definite here).
    """
    n = len(Q)
    if n == 0:
        return None
    A = [list(row) for row in Q]
    sign, prev = 0, 1
    minors: list[int] = []
    for k in range(n):
        piv = A[k][k]
        if piv == 0:
            return None
        s = 1 if (piv > 0) == (prev > 0) else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return None
        minors.append(piv)
        row_k = A[k]
        for i in range(k + 1, n):
            row, f = A[i], A[i][k]
            for j in range(k + 1, n):
                row[j] = (piv * row[j] - f * row_k[j]) // prev
        prev = piv
    return sign, minors


def tau_quadratic(T: EquivariantTriple, seed: int = 0) -> QuadraticCertificate:
    """Express pairing-against-involuted-argument as coprime quadratic parts.

    For x with rational coordinates v over the module's rational basis b,
    pair(x, tau x) is the sum over k, l of v_k v_l grid[k][l], with
    grid[k][l] = pair(b_k, tau b_l), and equals the sum over parts of
    N(v, t)/denominator, where N's t-power coefficients are the stored
    quadratic forms.  The basis is made of cyclic blocks: b_k = t^a u_i for
    the block generators u_i, and tau(t^b u_j) = t^-b tau(u_j), so
    sesquilinearity gives grid[k][l] = t^(a+b) G_ij with
    G_ij = pair(u_i, tau u_j), and only G is paired, by one pair_values
    call: t^e * nums / H on integer coefficient lists, with no canonical
    class.  The grid is the forms' matrix as it stands: for every triple
    that passes validate it is symmetric, as anti-isometry, involutivity
    and the Hermitian property give
    pair(u_j, tau u_i) = conj(pair(tau u_j, u_i)) = pair(u_i, tau u_j).
    The grid is symmetric iff G is, which laurent.first_difference decides,
    and a G that is not raises RuntimeError at its first asymmetric pair.

    The factor powers F = f^e of the order, f in its gcd-free basis, are
    made on integer lists, e counted by exact pseudo-division.  One
    laurent.coprime_split splits every nonzero G_ij over them at once.
    The split is Lambda-linear and t is a unit, so the part of t^s G_ij
    over F is h_s / F, with h_0 / F the part of G_ij and
    h_(s+1) = t h_s mod F, one companion step; the forms' (k, l) entries
    in part F are the coefficients of h_(a+b), so each block pair of a form
    is a Hankel matrix.  Each part's entries are put over one integer
    denominator and stored as integer layers.  Before returning, the
    stored forms are compared exactly with t^(a+b) G_ij on every basis
    pair (see _check_forms), and two seeded random vectors are evaluated
    end to end, through from_coords, the involution and the pairing
    (_check_samples).
    """
    basis = RationalBasis(T.module)
    dim = basis.dimension
    if dim == 0:
        return QuadraticCertificate(basis=basis, parts=(), verdict=UNDECIDED, seed=seed)

    # basis element offsets[i] + a is t^a * gens[i], for a < sizes[i]
    gens = [u for u, _ in basis.blocks]
    sizes = [d.degree() for d in basis.factors]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    b = len(gens)
    nums, H, e = pair_values(T.pairing, gens, [T.involution.apply(u) for u in gens])
    above = [(i, j) for i in range(b) for j in range(i + 1, b)]
    asymmetric = first_difference(((nums[i * b + j], nums[j * b + i]) for i, j in above), H, e, H, e)
    if asymmetric is not None:
        i, j = above[asymmetric]
        raise RuntimeError(
            f"pairing against the involution is not symmetric at ({offsets[i]}, {offsets[j]}): the triple is not valid"
        )

    # factor powers f^e, e the multiplicity of f in the order
    (order,), _, _ = integer_lists([T.module.order])
    factor_powers: list[list[int]] = []
    for f in gcd_free_basis(list(T.module.invariant_factors)):
        (fi,), _, _ = integer_lists([f])
        F = [1]
        while True:
            q, r, _ = _pseudo_divide(order, fi)
            if any(r):
                break
            g = gcd(*q)
            order, F = [c // g for c in q], list_dot([F], [fi])
        factor_powers.append(F)

    entries = [(i, j) for i in range(b) for j in range(i, b) if any(nums[i * b + j])]
    split = coprime_split([nums[i * b + j] for i, j in entries], H, e, factor_powers)
    parts: list[CoprimePart] = []
    for F, values in zip(factor_powers, split):
        D, L = len(F) - 1, F[-1]
        # (h, s, positions): the entries h / s of the forms at positions
        filled = []
        for (i, j), (h, s) in zip(entries, values):
            # h / (s * F) is h / (s * L) over the monic denominator F / L
            h, s = h + [0] * (D - len(h)), s * L
            for shift in range(sizes[i] + sizes[j] - 1):
                if shift:
                    # h <- t * h mod F, over s * L where F is taken off
                    top, h = h[-1], [0] + h[:-1]
                    if top:
                        h = [L * c - top * fm for c, fm in zip(h, F)]
                        s *= L
                if any(h):
                    lo, hi = max(0, shift - sizes[j] + 1), min(shift, sizes[i] - 1)
                    filled.append((h, s, [(offsets[i] + a, offsets[j] + shift - a) for a in range(lo, hi + 1)]))
        if not filled:
            continue
        # over Q0 = lcm of the scales, then cancelled to the least clearing q
        Q0 = lcm(*(s for _, s, _ in filled))
        scaled = [([c * (Q0 // s) for c in h], positions) for h, s, positions in filled]
        g = gcd(Q0, *(c for h, _ in scaled for c in h))
        layers = [[[0] * dim for _ in range(dim)] for _ in range(D)]
        for h, positions in scaled:
            for m, c in enumerate(h):
                if c:
                    for k, l in positions:
                        layers[m][k][l] = layers[m][l][k] = c // g
        denominator = LaurentPoly((j, Fraction(c, L)) for j, c in enumerate(F))
        parts.append(CoprimePart(denominator, Q0 // g, tuple(tuple(tuple(row) for row in Q) for Q in layers)))

    cert = QuadraticCertificate(basis=basis, parts=tuple(parts), verdict=UNDECIDED, seed=seed)
    _check_forms(cert, nums, H, e)
    _check_samples(T, cert)
    return cert


def _check_forms(cert: QuadraticCertificate, nums: Sequence[Sequence[int]], H: Sequence[int], e: int) -> None:
    """Raise unless the stored parts give pair(x, tau x) for every rational x.

    (nums, H, e) is tau_quadratic's symmetric generator grid as pair_values
    returns it, G_ij = t^e * nums[i * b + j] / H for b blocks: with v the
    coordinates of x, pair(x, tau x) is the sum over the basis pairs
    b_k = t^a u_i, b_l = t^c u_j of v_k v_l t^(a+c) G_ij.  The stored parts
    put the sum over parts of (sum_m layers[m][k][l] t^m)/(q * denominator)
    in place of t^(a+c) G_ij: rebuilt / P on integer coefficient lists, with
    (P, weights) the certificate's common.  Every layer is first checked
    symmetric, then laurent.first_difference compares the two fractions in
    Q(t)/Lambda at every k <= l, with P * H formed once and no gcd or
    canonical class.  Symmetric forms that agree at every k <= l are right
    on every vector.
    """
    P, weights = cert.common
    sizes = [d.degree() for d in cert.basis.factors]
    b = len(sizes)
    # basis element k is t^a u_i for blocks[k] = (i, a)
    blocks = [(i, a) for i, size in enumerate(sizes) for a in range(size)]
    positions = [(k, l) for k in range(len(blocks)) for l in range(k, len(blocks))]
    layers = [part.layers for part in cert.parts]
    for k, l in positions:
        if any(Q[k][l] != Q[l][k] for forms in layers for Q in forms):
            raise RuntimeError(f"quadratic certificate disagrees: forms are not symmetric at ({k}, {l})")
    pairs = (
        (
            list_dot([[Q[k][l] for Q in forms] for forms in layers], weights),
            [0] * (blocks[k][1] + blocks[l][1]) + list(nums[blocks[k][0] * b + blocks[l][0]]),
        )
        for k, l in positions
    )
    wrong = first_difference(pairs, P, 0, H, e)
    if wrong is not None:
        raise RuntimeError(f"quadratic certificate disagrees with the pairing at {positions[wrong]}")


def _check_samples(T: EquivariantTriple, cert: QuadraticCertificate) -> None:
    """Two seeded end-to-end evaluations, through from_coords, the involution
    and the pairing, of what _check_forms proves from the generator grid:
    the stored parts' value (_certificate_value) and pair_values' value of
    pair(x, tau x) are compared by laurent.same_class, with no canonical
    class."""
    basis = cert.basis
    rng = random.Random(cert.seed)
    for _ in range(2):
        v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(basis.dimension)]
        stored, over = _certificate_value(cert, v)
        x = basis.from_coords(v)
        (direct,), den, e = pair_values(T.pairing, [x], [T.involution.apply(x)])
        if not same_class(stored, over, 0, direct, den, e):
            raise RuntimeError("quadratic certificate disagrees with direct evaluation")


def _certificate_value(cert: QuadraticCertificate, v: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """(total, over) on integer coefficient lists, lowest first, with the
    stored parts' value at rational coordinates v equal to total / over.

    The part denominators are pairwise coprime, so the sum of the parts is
    one fraction over their product P.  Its numerator is summed from v
    cleared to integers, v = w / m, and each part's integer layers, over
    m^2 * P (see QuadraticCertificate.common).
    """
    P, weights = cert.common
    w, m = _cleared(v)
    total = list_dot([[_eval_form(Q, w) for Q in part.layers] for part in cert.parts], weights)
    return total, [m * m * c for c in P]


def evaluate_certificate(cert: QuadraticCertificate, v: Sequence[Fraction]) -> TorsionClass:
    """Evaluate the stored coprime-part representation at rational
    coordinates: one classes_over call makes _certificate_value canonical."""
    total, over = _certificate_value(cert, v)
    return classes_over([total], over)[0]


def certify_k0(T: EquivariantTriple, seed: int = 0) -> QuadraticCertificate:
    """Certify that only the zero element pairs to zero against its image.

    Tries (1) a support partition with each form definite on its support,
    (2) positive-definiteness of sign-normalized nonnegative combinations
    of the forms, then (3) a randomized falsifier over bounded-height
    rational vectors.  UNDECIDED is a legitimate outcome.

    Every route reads the integer layers: a layer is its form times the
    part's q > 0, which keeps each pivot's sign, and a combination
    sum_j w_j Q_j is sum_j w_j (S / q_j) layer_j over S = lcm q_j, whose
    Gaussian pivots D_k / (S * D_(k-1)) are reported from its leading
    minors D_k.
    """
    base = tau_quadratic(T, seed=seed)
    dim = base.basis.dimension
    if dim == 0:
        return replace(base, verdict=CERTIFIED_K0, evidence={"reason": "trivial module"})
    # (q, layer) for every nonzero form, part by part
    forms = [(part.q, Q) for part in base.parts for Q in part.layers if any(any(row) for row in Q)]

    if forms:
        # (1) support partition
        covered: set[int] = set()
        partition = []
        for fi, (_, Q) in enumerate(forms):
            supp = _support(Q)
            d = _definiteness([[Q[i][j] for j in supp] for i in supp])
            if d is not None:
                partition.append({"form": fi, "sign": d[0], "support": supp})
                covered.update(supp)
        if covered == set(range(dim)):
            return replace(base, verdict=CERTIFIED_K0, evidence={"support_partition": partition})

        # (2) sign-normalized nonnegative combinations; with no weight
        # flipped the plain sum is the same matrix, so it is not tried again
        signs = [-1 if next((Q[i][i] for i in range(dim) if Q[i][i]), 0) < 0 else 1 for _, Q in forms]
        combinations = [("sign_normalized_sum", signs)]
        if -1 in signs:
            combinations.append(("plain_sum", [1] * len(forms)))
        S = lcm(*(q for q, _ in forms))
        for label, weights in combinations:
            total = [[0] * dim for _ in range(dim)]
            for w, (q, Q) in zip(weights, forms):
                c = w * (S // q)
                for row, total_row in zip(Q, total):
                    for j, entry in enumerate(row):
                        if entry:
                            total_row[j] += c * entry
            d = _definiteness(total)
            if d is not None and d[0] > 0:
                minors = d[1]
                pivots = [Fraction(D, S * prev) for D, prev in zip(minors, [1] + minors)]
                return replace(
                    base,
                    verdict=CERTIFIED_K0,
                    evidence={
                        "combination": {
                            "kind": label,
                            "weights": weights,
                            "pivots": [str(p) for p in pivots],
                        }
                    },
                )

    # (3) falsifier
    layers = [Q for _, Q in forms]
    for v in _falsifier_candidates(dim, FALSIFIER_SAMPLES, seed):
        if not any(v):
            continue
        w, _ = _cleared(v)
        if all(_eval_form(Q, w) == 0 for Q in layers):
            x = base.basis.from_coords(v)
            if not x.is_zero() and pair(T.pairing, x, T.involution.apply(x)).is_zero():
                return replace(
                    base,
                    verdict=COUNTEREXAMPLE,
                    counterexample=x,
                    evidence={"coordinates": [str(c) for c in v]},
                )
    return replace(base, verdict=UNDECIDED, evidence={"falsifier_samples": FALSIFIER_SAMPLES})


def _falsifier_candidates(dim: int, samples: int, seed: int):
    """Unit vectors, then e_k +- e_l for k < l, then seeded random vectors.

    A generator, so a falsifier that stops at an early counterexample never
    draws the random vectors it would not try.
    """
    for k in range(dim):
        e = [Fraction(0)] * dim
        e[k] = Fraction(1)
        yield e
    for k in range(dim):
        for l in range(k + 1, dim):
            for sgn in (1, -1):
                e = [Fraction(0)] * dim
                e[k] = Fraction(1)
                e[l] = Fraction(sgn)
                yield e
    rng = random.Random(seed)
    for _ in range(samples):
        yield [Fraction(rng.randint(-32, 32), rng.randint(1, 32)) for _ in range(dim)]


@dataclass(frozen=True)
class GenusBound:
    grk: int
    k_upper: int
    bound_rational: Fraction
    bound_integer: int
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "grk": self.grk,
            "k_upper": self.k_upper,
            "bound_rational": str(self.bound_rational),
            "bound_integer": self.bound_integer,
            "seed": self.seed,
        }


def genus_lower_bound(
    T: EquivariantTriple,
    cert: QuadraticCertificate,
    k_upper: int | None = None,
) -> GenusBound:
    """Lower bound (grk - 2k)/4 for the equivariant 4-genus.

    k = 0 when the certificate rules out nonzero isotropic elements: any
    relevant submodule P pairs to zero against its (invariant) image, so
    every x in P has vanishing self-pairing against the involuted x, forcing
    P = 0.  Otherwise a user-supplied upper bound is accepted, and the
    vacuous k = grk is used as the safe default.
    """
    if cert.basis.module is not T.module and cert.basis.module != T.module:
        raise ValueError("certificate was not derived from this triple")
    grk = T.module.grk
    if cert.verdict == CERTIFIED_K0:
        k = 0
    elif k_upper is not None:
        if not 0 <= k_upper:
            raise ValueError("k_upper must be nonnegative")
        k = min(k_upper, grk)
    else:
        k = grk
    bound = Fraction(grk - 2 * k, 4)
    if bound < 0:
        bound = Fraction(0)
    return GenusBound(
        grk=grk,
        k_upper=k,
        bound_rational=bound,
        bound_integer=ceil(bound),
        seed=cert.seed,
    )


@dataclass(frozen=True)
class SliceReport:
    verdict: str
    reason: str
    certificate: QuadraticCertificate
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "certificate": self.certificate.to_dict(),
            "seed": self.seed,
        }


def equivariant_slice_verdict(T: EquivariantTriple, seed: int = 0) -> SliceReport:
    """Obstruct equivariant (algebraic) sliceness via the k = 0 certificate.

    An invariant metabolizer P must pair to zero against the image of P,
    which equals P; a certified triple then forces P = 0, contradicting the
    order identity |P| * conj|P| = |H| whenever |H| is not a unit.
    """
    cert = certify_k0(T, seed=seed)
    if T.module.order.is_unit():
        return SliceReport(
            verdict=INCONCLUSIVE,
            reason="module order is a unit; the obstruction sees nothing",
            certificate=cert,
            seed=seed,
        )
    if cert.verdict == CERTIFIED_K0:
        return SliceReport(
            verdict=NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE,
            reason=(
                "no nonzero element pairs to zero against its involution image, "
                "so an invariant metabolizer would be zero, contradicting "
                "|P|*conj|P| = |H| with |H| not a unit"
            ),
            certificate=cert,
            seed=seed,
        )
    return SliceReport(
        verdict=INCONCLUSIVE,
        reason="no k = 0 certificate was found",
        certificate=cert,
        seed=seed,
    )


@dataclass(frozen=True)
class AmphichiralReport:
    verdict: str
    a: int
    n: int
    branch: str
    checks: tuple[AxiomCheck, ...]
    witness: Fraction

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "a": self.a,
            "n": self.n,
            "branch": self.branch,
            "witness": str(self.witness),
            "checks": [c.to_dict() for c in self.checks],
        }


def amphichiral_obstruction(a: int, n: int) -> AmphichiralReport:
    """Obstruct n-fold sums of the twist family from equivariant sliceness.

    Odd n: the sum is concordant to one copy, and the order polynomial fails
    the Fox-Milnor square condition, so the knot is not even slice.  Even n:
    machine-check the hypotheses of the invariant-metabolizer argument (the
    order polynomial is irreducible, the involution fixes the cyclic
    generator up to conjugation, and the generator's self-pairing is a
    nonzero torsion class), then conclude.  Any failed hypothesis reports
    INCONCLUSIVE rather than guessing.

    The hypotheses are checked on the triple `catalog.build` makes for the
    `twist_ka` spec, with g = b2.  This is sound: an irreducible order p makes
    M = Lambda/p a simple module, and a nonzero self-pairing makes g nonzero,
    so g generates M; tau(g) = g is equality in M.  So "tau fixes a cyclic
    generator with nonzero self-pairing" is checked on the knot's own module.
    """
    if a < 1 or n < 1:
        raise ValueError("parameters must be positive")
    from .catalog import build, builtin, twist_order

    p = twist_order(a)
    rep = symmetric_quadratic_tests(p)
    witness = rep.witness
    if n % 2:
        ok = not rep.fox_milnor_possible
        branch = "odd: sum concordant to one copy, which is not slice"
        checks = (
            AxiomCheck(
                "fox_milnor_fails",
                ok,
                f"|p(-1)| = {witness} is {'not ' if ok else ''}a perfect square",
            ),
        )
    else:
        triple = build(builtin("twist_ka", a=a))
        structural = validate(triple)
        gen = triple.module.generator(1)
        branch = "even: any invariant metabolizer contains an element with nonzero self-pairing"
        checks = (
            AxiomCheck(
                "order_irreducible",
                rep.irreducible,
                f"discriminant non-square; |p(-1)| = {witness}",
            ),
            AxiomCheck("generator_fixed_up_to_conjugation", triple.involution.apply(gen) == gen),
            AxiomCheck("self_pairing_nonzero", not pair(triple.pairing, gen, gen).is_zero()),
            AxiomCheck(
                "triple_valid",
                structural.ok,
                "" if structural.ok else ", ".join(structural.failing()),
            ),
        )
    return AmphichiralReport(
        verdict=NOT_EQUIVARIANTLY_SLICE if all(c.passed for c in checks) else INCONCLUSIVE,
        a=a,
        n=n,
        branch=branch,
        checks=checks,
        witness=witness,
    )
