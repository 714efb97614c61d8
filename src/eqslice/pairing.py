"""The linking pairing of a knot from its Seifert matrix.

The pairing on the module presented by t*A - A^T is
    (x, y) -> (t - 1) * x^T (A - t A^T)^{-1} conj(y),
with values in the torsion quotient.  The gram grid caches the classes of
(t - 1) * (A - t A^T)^{-1} over the generators; sesquilinearity makes that
grid determine the pairing everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .laurent import (
    ONE,
    TORSION_ZERO,
    ZERO,
    LaurentPoly,
    RationalFn,
    TorsionClass,
    laurent_lcm,
    divexact,
)
from .matrices import (
    LambdaMatrix,
    SingularMatrixError,
    in_span,
    inverse_qt,
    kernel,
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

    Clears denominators to a common one, solves the resulting linear system
    over the ring, and tests that every solution maps to zero in the module.
    """
    if not B.module.is_torsion:
        return False
    n = B.module.generators
    if n == 0:
        return True
    den = ONE
    for row in B.gram:
        for g in row:
            if not g.is_zero():
                den = laurent_lcm(den, g.rep.den)
    N = [
        [
            ZERO if g.is_zero() else g.rep.num * divexact(den, g.rep.den)
            for g in row
        ]
        for row in B.gram
    ]
    # x^T * gram has entries in the ring iff N^T x = 0 mod den, i.e.
    # [N^T | den*I] (x; y) = 0 for some y
    Nt = LambdaMatrix(N).transpose()
    dI = LambdaMatrix([[den if i == j else ZERO for j in range(n)] for i in range(n)])
    K = kernel(Nt.hstack(dI))
    for jcol in range(K.cols):
        x = list(K.col(jcol))[:n]
        if in_span(x, B.module.relations, B.module.snf) is None:
            return False
    return True


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
