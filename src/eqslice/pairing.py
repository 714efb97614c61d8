"""The linking pairing of a knot from its Seifert matrix.

The pairing on the module presented by t*A - A^T is
    (x, y) -> (t - 1) * x^T (A - t A^T)^{-1} conj(y),
with values in the torsion quotient.  Its values on the generators, the
entries of (t - 1) * (A - t A^T)^{-1}, determine it everywhere by
sesquilinearity.

With det A != 0 the inverse comes from the module's exponent mu, of
degree d: A - t A^T = (I - t C) A with C = A^T A^-1, and mu(C) = 0 gives
(A - t A^T)^{-1} = A^-1 * sum_(j<d) c_j(t) C^j / rev mu(t), with
c_j(t) = sum_(k>j) a_k t^(d-k+j) and rev mu(t) = t^d mu(1/t).  The rational
model of the module computes it in integers, with d - 1 matrix products
(see modules._RationalModel.inverse_pencil).  inverse_qt, which
interpolates a determinant and adjugate of degree n, serves only det A = 0.
Both routes give the inverse as F / den on integer coefficient lists.  On
the exponent route deg (t - 1) * f = deg den, so each (t - 1) * f is
reduced modulo the primitive den in the pass that forms it, by one
pseudo-remainder step; inverse_qt's route takes one laurent.reduce_over
call.  Both work in integers, with no class made.

A pairing has one form, common = (den, N, scale) on integer coefficient
lists: den primitive with a nonzero constant term, every N[i][j] of degree
below deg den, and gram[i][j] the class of N[i][j] / (scale * den) for one
integer scale.  gram_from_seifert divides the content of (N, scale) out;
negation is (den, -N, scale), and a block sum puts both blocks over the
lcm of their dens (their den, when they share it) by exact integer
cofactors.  The canonical classes are a view, built only when the gram is
read.  A value is the class of x^T N conj(y) over scale * den, the entries
of x and of conj(y) cleared to integers by one scale and one power of t.
pair_values is the only evaluator, and no Laurent-polynomial one is kept:
it pairs a list of elements against another on integer lists, forming
each N * conj(y) once.  pair_grid makes its whole grid canonical by one
classes_over call, which takes that power, and pair is its 1 x 1 case.
The checks that only compare values make no class: check_hermitian,
the involution's anti-isometry and the certificate's sampled evaluations
read the integer lists and decide each comparison by laurent.same_class.
Well-definedness is den dividing N * conj(r), an exact integer
pseudo-remainder.

Nonsingularity is one determinant over Q.  Let eps send a class f/den,
f of degree below D = deg den, den monic, to the t^(D-1) coefficient of f;
that does not depend on the monic den chosen.  eps kills no nonzero
submodule of Q(t)/Lambda: if f is not 0 mod den, the submodule f/den
generates holds g/den for the monic g = gcd(f, den), of degree below D,
and eps takes 1 on t^(D-1-deg g) g/den (Trotter 1973, Invent. Math. 20;
Milnor 1969, Invent. Math. 8).  So for a Hermitian, well-defined
pairing, x is in the kernel of the adjoint iff eps(pair(x, t^k y)) = 0
for every k and y, i.e. iff x is in the kernel of the Q-form
eps(pair(-, -)), and the pairing is nonsingular iff that form's matrix
over a Q-basis is invertible.  On any other gram the verdict means
nothing.  When the generators are a Q-basis, eps is read off the integer
form: N_ij / den is the proper representative over the monic
den / den[D], so eps is N_ij[D - 1] / (scale * den[D]).  On a
RationalBasis it is read off pair_grid's canonical classes.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import floordiv
from typing import Sequence

from .laurent import (
    LaurentPoly,
    TorsionClass,
    _pseudo_divide,
    _pseudo_remainder,
    classes_over,
    integer_lists,
    laurent_lcm,
    list_dot,
    reduce_over,
    same_classes,
)
from .matrices import _eliminate, block_diag, inverse_qt, seifert_pencil
from .modules import ModuleElement, PresentedModule, RationalBasis, from_seifert


class GramPairing:
    """Hermitian pairing on a presented module, given on generator pairs by
    common = (den, N, scale) on integer coefficient lists, lowest first:
    den is primitive with a nonzero constant term, every N[i][j] has degree
    below deg den, and the pairing of generators i and j is the class of
    N[i][j] / (scale * den).  Every check reads common; gram is a view.
    """

    def __init__(self, module: PresentedModule, common: tuple[list[int], list[list[list[int]]], int]):
        self.module = module
        self.common = common

    @property
    def gram(self) -> tuple[tuple[TorsionClass, ...], ...]:
        """The canonical classes N[i][j] / (scale * den), by one classes_over
        call each time it is read; the pairing keeps integer lists only."""
        den, N, scale = self.common
        n = len(N)
        classes = classes_over([f for row in N for f in row], [scale * c for c in den])
        return tuple(tuple(classes[i * n : (i + 1) * n]) for i in range(n))


def gram_from_seifert(A: Sequence[Sequence[int]], module: PresentedModule | None = None) -> GramPairing:
    """The pairing of an integer Seifert matrix, held as its common form.

    module, when given, is from_seifert(A).  With det A != 0 its rational
    model gives (A - t*A^T)^-1 = A^-1 * sum_(j<d) c_j(t)*C^j / rev mu(t)
    from the exponent mu of degree d (see _RationalModel.inverse_pencil).
    inverse_qt, which interpolates a degree-n determinant and adjugate,
    serves only det A = 0.  Both give the inverse as F / den, on integer
    coefficient lists.  The content g that den and F share, large on the
    exponent route, is divided out first, so every step runs on small
    integers; g takes the sign of den's top coefficient.

    On the exponent route den(0) != 0 and deg (t - 1) * f = deg den, so
    with den / g = c * p, c > 0 and p primitive, each h = (t - 1) * f / g
    is reduced modulo p by one pseudo-remainder step, L * h - h_d * p with
    L = p[d], over the positive scale c * L.  Otherwise laurent.reduce_over
    reduces every h at once to r / (s * p), and N[i][j] is r * (scale / s)
    over the lcm scale of the s, a multiple of each, so the quotient keeps
    its sign.  Either way any content of (N, scale) left is divided out.
    No canonical class is made.
    """
    if module is None:
        module = from_seifert(A)
    if module.model is not None:
        den, F = module.model.inverse_pencil()
    else:
        den, F = inverse_qt(-seifert_pencil(A).transpose())
    n = len(F)
    g = gcd(*den, *(c for row in F for f in row for c in f))
    if den[-1] < 0:
        g = -g
    # (t - 1) * f / g on coefficient lists
    H = [[(b - a) // g for a, b in zip(f + [0], [0] + f)] for row in F for f in row]
    den = [c // g for c in den]
    if module.model is not None:
        c = gcd(*den)
        den = [x // c for x in den]
        L, low = den[-1], den[:-1]
        scale = c * L
        N = []
        for h in H:
            r = [L * x - h[-1] * y for x, y in zip(h, low)]
            N.append(r if any(r) else [])
    else:
        den, reduced = reduce_over(H, den)
        scale = lcm(*(s for _, s in reduced))
        N = [[c * (scale // s) for c in r] if any(r) else [] for r, s in reduced]
    g = gcd(scale, *(gcd(*f) for f in N))
    if g > 1:
        N = [[c // g for c in f] for f in N]
    return GramPairing(module, (den, [N[i * n : (i + 1) * n] for i in range(n)], scale // g))


def pair_values(B: GramPairing, xs: Sequence[ModuleElement], ys: Sequence[ModuleElement]) -> tuple[list[list[int]], list[int], int]:
    """(nums, H, e) with pair(xs[k], ys[l]) = t^e * nums[k * len(ys) + l] / H
    on integer coefficient lists, lowest first, forming each N * conj(y)
    once.

    The one place the pairing is evaluated, from common: the entries of
    all xs are cleared to integers by one scale and one power of t, and so
    are those of all conj(y), so every value is t^e * x^T N conj(y) /
    (c * den) for one exponent e and one integer c, and H = c * den keeps
    den's nonzero constant term.
    """
    n = B.module.generators
    if any(len(v.coeffs) != n for v in (*xs, *ys)):
        raise ValueError("element does not match the pairing's module")
    den, N, scale = B.common
    X, mx, vx = integer_lists([c for x in xs for c in x.coeffs])
    Y, my, vy = integer_lists([c.conjugate() for y in ys for c in y.coeffs])
    columns = [[list_dot(row, y) for row in N] for y in (Y[k * n : (k + 1) * n] for k in range(len(ys)))]
    nums = [list_dot(X[k * n : (k + 1) * n], col) for k in range(len(xs)) for col in columns]
    c = scale * mx * my
    return nums, [c * d for d in den], vx + vy


def pair_grid(B: GramPairing, xs: Sequence[ModuleElement], ys: Sequence[ModuleElement]) -> list[list[TorsionClass]]:
    """[[pair(x, y) for y in ys] for x in xs]: one classes_over call, which
    takes the t^e, makes the whole grid of pair_values canonical."""
    classes = classes_over(*pair_values(B, xs, ys))
    m = len(ys)
    return [classes[k * m : (k + 1) * m] for k in range(len(xs))]


def pair(B: GramPairing, x: ModuleElement, y: ModuleElement) -> TorsionClass:
    """Evaluate the pairing; sesquilinear in the ring coefficients."""
    return pair_grid(B, [x], [y])[0][0]


def check_hermitian(B: GramPairing) -> bool:
    """gram[j][i] = conj(gram[i][j]) for i <= j: conjugation is an
    involution, so the pairs j < i add nothing.

    Decided on the integer lists of common, with no canonical class: for
    gram[i][j] = N_ij / (scale * den), D = deg den and deg N_ij < D,
    conj(N_ij / den) = t * rev_D(N_ij) / rev(den), rev_D reversing N_ij
    padded to D coefficients, and laurent.same_class compares that with
    N_ji / den; the scale cancels, den * rev(den) is formed once, and a
    pair of zero entries costs nothing.
    """
    den, N, _ = B.common
    D = len(den) - 1
    n = len(N)
    pairs = (
        (N[j][i], (N[i][j] + [0] * (D - len(N[i][j])))[::-1])
        for i in range(n)
        for j in range(i, n)
        if N[i][j] or N[j][i]
    )
    return same_classes(pairs, den, 0, den[::-1], 1)


def vanishes_on_relations(B: GramPairing) -> bool:
    """Well-definedness: gram * conj(r) is zero for every relation column r,
    i.e. den divides every entry of N * conj(r), with conj(r) cleared to
    integers by a scale and a power of t (units, as den(0) != 0): an exact
    integer pseudo-remainder decides each entry."""
    den, N, _ = B.common
    R = B.module.relations
    columns = [integer_lists([e.conjugate() for e in R.col(c)])[0] for c in range(R.cols)]
    return not any(any(_pseudo_remainder(list_dot(row, r), den)[0]) for r in columns for row in N)


def check_nonsingular(B: GramPairing) -> bool:
    """True iff the adjoint x -> pair(x, -) has trivial kernel.

    B must be Hermitian and well defined (check_hermitian,
    vanishes_on_relations).  The verdict is det E != 0 for
    E_kl = eps(pair(b_k, b_l)) over a Q-basis b of the module (see the
    module docstring).  With a rational model the generators are a Q-basis,
    and E is read off common: N_kl / den, with den(0) != 0 and
    deg N_kl < D = deg den, is the proper representative over the monic
    den / den[D], so eps(gram_kl) = N_kl[D - 1] / (scale * den[D]), and E
    is the integer matrix of the N_kl[D - 1] up to one nonzero factor.  Any
    other module takes a RationalBasis and reads eps off pair_grid's
    classes, each row of E cleared to integers, which does not change
    whether det E vanishes.  One fraction-free elimination decides it.
    """
    module = B.module
    if not module.is_torsion:
        return False
    if module.model is not None:
        den, N, _ = B.common
        D = len(den) - 1
        rows = [[f[D - 1] if 0 < D == len(f) else 0 for f in row] for row in N]
    else:
        basis = RationalBasis(module)
        xs = [basis.basis_element(k) for k in range(basis.dimension)]
        rows = []
        for row in pair_grid(B, xs, xs):
            E = [g.num.coefficient(g.den.degree() - 1) for g in row]
            # a positive row scaling keeps det E != 0
            m = lcm(*(x.denominator for x in E))
            rows.append([x.numerator * (m // x.denominator) for x in E])
    return _eliminate(rows, 0, 1, floordiv, abs)[0] != 0


def direct_sum_pairing(B1: GramPairing, B2: GramPairing, module: PresentedModule) -> GramPairing:
    """The block sum of B1 and B2 on module, the direct_sum of their modules:
    block i is N_i * (den / den_i) * (scale / scale_i) over den, the lcm of
    the two dens (their den, when they share it), and scale, the lcm of the
    two scales.  The dens are primitive, so by Gauss's lemma den / den_i is
    integral, _pseudo_divide's quotient over L_i^k (L_i = den_i's leading
    coefficient), and a sum of content-free forms is content-free.
    """
    (d1, N1, s1), (d2, N2, s2) = B1.common, B2.common
    den = d1
    if d1 != d2:
        # the monic lcm cleared by the lcm of its denominators is primitive
        (den,), _, _ = integer_lists([laurent_lcm(LaurentPoly(enumerate(d1)), LaurentPoly(enumerate(d2)))])
    scale = lcm(s1, s2)
    blocks = []
    for d, N, s in ((d1, N1, s1), (d2, N2, s2)):
        q, _, k = _pseudo_divide(den, d)
        cofactor = [c // d[-1] ** k * (scale // s) for c in q]
        blocks.append([[list_dot([f], [cofactor]) for f in row] for row in N])
    return GramPairing(module, (den, [list(row) for row in block_diag(blocks, [])], scale))


def negate_pairing(B: GramPairing) -> GramPairing:
    """-B on B's module: (den, -N, scale)."""
    den, N, scale = B.common
    return GramPairing(B.module, (den, [[[-c for c in f] for f in row] for row in N], scale))
