"""The linking pairing of a knot from its Seifert matrix.

The pairing on the module presented by t*A - A^T is
    (x, y) -> (t - 1) * x^T (A - t A^T)^{-1} conj(y),
with values in the torsion quotient.  The gram grid caches the classes of
(t - 1) * (A - t A^T)^{-1} over the generators; sesquilinearity makes that
grid determine the pairing everywhere.

Nonsingularity is decided by two ranks over Q rather than by Smith forms:
with den the lcm of the gram denominators, it holds iff den kills the module
and multiplication by den * gram^T on (Lambda/den)^n has rank dim_Q M more
than on the image of the relations.  The ranks come from Krylov spinning,
so no coefficient swell of unimodular transforms is paid.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .laurent import (
    ONE,
    TORSION_ZERO,
    ZERO,
    LaurentPoly,
    RationalFn,
    TorsionClass,
    _reduce_mod,
    divexact,
    divides,
    laurent_lcm,
)
from .matrices import (
    LambdaMatrix,
    SingularMatrixError,
    inverse_qt,
    mat_vec,
    seifert_pencil,
)
from .modules import ModuleElement, PresentedModule, from_seifert


@dataclass(frozen=True)
class GramPairing:
    """Hermitian pairing on a presented module, cached on generator pairs."""

    module: PresentedModule
    gram: tuple[tuple[TorsionClass, ...], ...]

    def pair(self, x: ModuleElement, y: ModuleElement) -> TorsionClass:
        return pair(self, x, y)


def gram_from_seifert(A: Sequence[Sequence[int]], module: PresentedModule | None = None) -> GramPairing:
    """Gram grid of the pairing for an integer Seifert matrix."""
    if module is None:
        module = from_seifert(A)
    try:
        inv = inverse_qt(-seifert_pencil(A).transpose())
    except SingularMatrixError:
        raise SingularMatrixError(
            "A - t*A^T is singular; the input is not a Seifert matrix of a knot"
        ) from None
    tm1 = LaurentPoly({1: 1, 0: -1})
    gram = tuple(
        tuple(TorsionClass(RationalFn(tm1 * f.num, f.den)) for f in row) for row in inv
    )
    return GramPairing(module=module, gram=gram)


def pair(B: GramPairing, x: ModuleElement, y: ModuleElement) -> TorsionClass:
    """Evaluate the pairing; sesquilinear in the ring coefficients."""
    n = B.module.generators
    if len(x.coeffs) != n or len(y.coeffs) != n:
        raise ValueError("element does not match the pairing's module")
    acc = TORSION_ZERO
    for j in range(n):
        yj = y.coeffs[j]
        if yj.is_zero():
            continue
        cj = yj.conjugate()
        for i in range(n):
            xi = x.coeffs[i]
            if xi.is_zero():
                continue
            g = B.gram[i][j]
            if g.is_zero():
                continue
            acc = acc + g.scale(xi * cj)
    return acc


def check_hermitian(B: GramPairing) -> bool:
    n = B.module.generators
    for i in range(n):
        for j in range(n):
            if B.gram[j][i] != B.gram[i][j].conjugate():
                return False
    return True


def vanishes_on_relations(B: GramPairing) -> bool:
    """Well-definedness: gram * conj(r) is zero for every relation column r."""
    R = B.module.relations
    n = B.module.generators
    for col in range(R.cols):
        r = [R.entry(i, col).conjugate() for i in range(n)]
        for i in range(n):
            acc = TORSION_ZERO
            for j in range(n):
                if not r[j].is_zero():
                    acc = acc + B.gram[i][j].scale(r[j])
            if not acc.is_zero():
                return False
    return True


def check_nonsingular(B: GramPairing) -> bool:
    """True iff the adjoint x -> pair(x, -) has trivial kernel.

    With den the lcm of the gram denominators and N = den * gram, the
    kernel is trivial iff L = {x : N^T x = 0 mod den} lies in R*Lambda^n,
    R the relations.  As den*Lambda^n lies in L, that needs den to kill the
    module, i.e. every Smith diagonal entry d_k to divide den.  Then in
    V = (Lambda/den)^n, L/den*Lambda^n is the kernel of phi = N^T and
    R*Lambda^n/den*Lambda^n the image of rho = R, of codimension
    d = sum deg d_k = dim_Q M; and ker phi lies in im rho iff
    rank phi - rank phi*rho = d, since phi*rho has the rank of phi on im rho.
    Both ranks are over Q, by spinning (see _spin_rank); no Smith form.
    """
    module = B.module
    if not module.is_torsion:
        return False
    n = module.generators
    if n == 0:
        return True
    den = ONE
    for row in B.gram:
        for g in row:
            if not g.is_zero() and not divides(g.rep.den, den):
                den = laurent_lcm(den, g.rep.den)
    if not all(divides(dk, den) for dk in module.snf.diagonal):
        return False
    N = [
        [
            ZERO if g.is_zero() else g.rep.num * divexact(den, g.rep.den)
            for g in row
        ]
        for row in B.gram
    ]
    # the columns of N^T are the rows of N
    Nt = LambdaMatrix(N).transpose()
    R = module.relations
    phi_rho = [mat_vec(Nt, R.col(c)) for c in range(R.cols)]
    d = sum(dk.degree() for dk in module.snf.diagonal)
    return _spin_rank(N, den) - _spin_rank(phi_rho, den) == d


def _spin_rank(vectors: Sequence[Sequence[LaurentPoly]], den: LaurentPoly) -> int:
    """Q-dimension of the submodule of (Lambda/den)^k the vectors generate.

    den is monic ordinary with nonzero constant term.  An entry is stored
    as its coefficients of t^0 .. t^(D-1) mod den, D = deg den, and a
    vector as the integer multiple of those coordinates with content 1.
    Krylov spinning: each vector is reduced against a fraction-free echelon
    basis; only an independent one joins it and queues its image under t.
    So every basis vector's image is in the final span, which is therefore
    t-stable, and it holds each input: handled are the k inputs plus one
    vector per rank, not the k*D of a direct elimination.
    """
    D = den.degree()
    if D == 0:
        return 0
    dense = den.dense()
    scale = lcm(*(c.denominator for c in dense))
    coeffs = [int(c * scale) for c in dense]

    def coords(v: Sequence[LaurentPoly]) -> list[int]:
        flat: list[Fraction] = []
        for e in v:
            r = _reduce_mod(e, den)
            flat.extend(r.coefficient(j) for j in range(D))
        common = lcm(*(c.denominator for c in flat))
        return _primitive([int(c * common) for c in flat])

    def times_t(v: list[int]) -> list[int]:
        # scale * (t*p mod den) for p of degree < D; scale is den's leading
        # coefficient after clearing denominators
        out = []
        for k in range(0, len(v), D):
            top = v[k + D - 1]
            out.append(-top * coeffs[0])
            out.extend(scale * v[k + j - 1] - top * coeffs[j] for j in range(1, D))
        return _primitive(out)

    basis: dict[int, list[int]] = {}  # by the position of the first nonzero
    queue = [coords(v) for v in vectors]
    while queue:
        v = queue.pop()
        p = _leading(v, 0)
        while p in basis:
            b = basis[p]
            v = _primitive([b[p] * x - v[p] * y for x, y in zip(v, b)])
            p = _leading(v, p + 1)
        if p is not None:
            basis[p] = v
            queue.append(times_t(v))
    return len(basis)


def _leading(v: list[int], start: int) -> int | None:
    return next((i for i in range(start, len(v)) if v[i]), None)


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return v if g <= 1 else [a // g for a in v]


def direct_sum_pairing(B1: GramPairing, B2: GramPairing, module: PresentedModule) -> GramPairing:
    n1 = B1.module.generators
    n2 = B2.module.generators
    gram = []
    for i in range(n1):
        gram.append(tuple(B1.gram[i]) + tuple(TORSION_ZERO for _ in range(n2)))
    for i in range(n2):
        gram.append(tuple(TORSION_ZERO for _ in range(n1)) + tuple(B2.gram[i]))
    return GramPairing(module=module, gram=tuple(gram))


def negate_pairing(B: GramPairing) -> GramPairing:
    return GramPairing(
        module=B.module,
        gram=tuple(tuple(-g for g in row) for row in B.gram),
    )


def pair_via_solve(A: Sequence[Sequence[int]], x: Sequence[LaurentPoly], y: Sequence[LaurentPoly]) -> TorsionClass:
    """Independent evaluation path: fresh linear solve of (A - t A^T) z = conj(y).

    Gaussian elimination over the fraction field, no adjugate and no cached
    gram; used as a cross-check oracle against the gram-based evaluation.
    """
    n = len(A)
    B = -seifert_pencil(A).transpose()
    rows = [[RationalFn(e) for e in B.row(i)] for i in range(n)]
    rhs = [RationalFn(c.conjugate()) for c in y]
    for k in range(n):
        piv = next((i for i in range(k, n) if not rows[i][k].is_zero()), None)
        if piv is None:
            raise SingularMatrixError("singular system")
        rows[k], rows[piv] = rows[piv], rows[k]
        rhs[k], rhs[piv] = rhs[piv], rhs[k]
        for i in range(k + 1, n):
            if rows[i][k].is_zero():
                continue
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
            rhs[i] = rhs[i] - f * rhs[k]
    z = [RationalFn(ZERO)] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc = acc - rows[i][j] * z[j]
        z[i] = acc / rows[i][i]
    tm1 = RationalFn(LaurentPoly({1: 1, 0: -1}))
    total = RationalFn(ZERO)
    for xi, zi in zip(x, z):
        total = total + RationalFn(xi) * zi
    return TorsionClass(tm1 * total)
