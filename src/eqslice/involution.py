"""Semilinear involutions of presented modules.

A strong inversion acts on the knot module by an additive bijection tau with
tau(p(t) * x) = p(t^-1) * tau(x).  Here that action is a matrix applied after
conjugating coefficients.  The matrix is input data (from the catalog or a
file); this module verifies the axioms rather than deriving the map from a
diagram.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .laurent import ONE, ZERO, same_classes
from .matrices import LambdaMatrix, _product, block_diag, mat_vec
from .modules import ModuleElement, PresentedModule, _combine
from .pairing import GramPairing, pair_values


@dataclass(frozen=True)
class SemilinearMap:
    """Matrix acting with coefficient conjugation: x -> M * conj(x)."""

    module: PresentedModule
    matrix: LambdaMatrix

    def __post_init__(self):
        n = self.module.generators
        if self.matrix.rows != n or self.matrix.cols != n:
            raise ValueError("involution matrix must be square of generator size")

    def apply(self, x: ModuleElement) -> ModuleElement:
        if len(x.coeffs) != self.module.generators:
            raise ValueError("element does not match the map's module")
        conj = [c.conjugate() for c in x.coeffs]
        return ModuleElement(self.module, mat_vec(self.matrix, conj))

    @cached_property
    def well_defined(self) -> bool:
        """is_well_defined of this map, decided once."""
        return is_well_defined(self)

    @cached_property
    def model_images(self) -> tuple[list[list[int]], int, int]:
        """(W, c, v): W[i] = c * C^-v * phi(tau e_i), the vector of column i
        on the module's rational model, for one positive integer c and one
        exponent v (see modules._combine), made once for both axiom checks."""
        return _combine(self.module.model, [self.matrix.col(i) for i in range(self.module.generators)])


def is_well_defined(T: SemilinearMap) -> bool:
    """Relation columns must map to zero in the module.

    On the rational model (Q^n with t acting by C, and phi the map from
    Lambda^n whose kernel is the relation span; see
    modules._RationalModel) let V hold the columns v_i = phi(tau e_i), so
    phi(tau y) = sum_i y_i(C^-1) v_i.  tau is well defined iff C V C = V.
    If so, C^-1 V = V C, so y_i(C^-1) V = V y_i(C) and
    phi(tau y) = V phi(y) vanishes on ker phi.  Conversely, if it vanishes
    there, phi(tau y) = U phi(y) for a matrix U, U = V on the unit
    vectors, and tau(t y) = t^-1 tau(y) gives V C = C^-1 V.  _combine
    makes W = c * C^-v * V, and C W C = W iff C V C = V, so the test is
    num W num = scale^2 W, two matrices._product calls in which zero
    entries cost nothing (a swap is a permutation).  Without a model each
    relation column's image is tested against the relation span.
    """
    M = T.module
    model = M.model
    if model is None:
        R = M.relations
        for col in range(R.cols):
            r = [R.entry(i, col).conjugate() for i in range(R.rows)]
            if not ModuleElement(M, mat_vec(T.matrix, r)).is_zero():
                return False
        return True
    W, _, _ = T.model_images
    # the list W holds W's columns, the rows of W^T: test the transpose,
    # num^T W^T num^T = scale^2 W^T
    num_t, square = list(zip(*model.num)), model.scale**2
    return _product(num_t, _product(W, num_t)) == [[square * x for x in w] for w in W]


def is_involutive(T: SemilinearMap) -> bool:
    """tau composed with itself is the identity modulo relations.

    tau(tau e_j) = sum_i conj(T_ij) tau(e_i), so on the rational model
    (see is_well_defined) the test is x_j = e_j for every j, with
    x_j = sum_i conj(T_ij)(C) v_i.  From W = c * C^-v * V, one more
    _combine, over the columns of conj(T) and the vectors w_i, gives
    G[j] = c2 * C^-v2 * sum_i conj(T_ij)(C) w_i = c * c2 * C^k * x_j, with
    k = -v - v2 >= 0 the span of the exponents in T.  So x_j = e_j iff
    scale^k * G[j] = c * c2 * num^k e_j, which stays right for a map that
    is not well defined (for one that is, it reduces to W^2 = c^2 I); the
    targets are the rows of c * c2 * (num^T)^k, by matrices._product.
    Without a model the columns of T * conj(T) - I are tested against the
    relation span.
    """
    M = T.module
    n = M.generators
    model = M.model
    if model is None:
        square = T.matrix * T.matrix.conjugate()
        for j in range(n):
            diff = tuple(square.entry(i, j) - (ONE if i == j else ZERO) for i in range(n))
            if not ModuleElement(M, diff).is_zero():
                return False
        return True
    W, c, v = T.model_images
    conj = T.matrix.conjugate()
    G, c2, v2 = _combine(model, [conj.col(j) for j in range(n)], W)
    k = -v - v2
    lift = model.scale**k
    num_t = list(zip(*model.num))
    targets = [[c * c2 * int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(k):
        targets = _product(targets, num_t)
    return [[lift * x for x in g] for g in G] == targets


def verify_anti_isometry(T: SemilinearMap, B: GramPairing) -> bool:
    """pair(x, y) = conj(pair(tau x, tau y)), checked on generator pairs.

    tau e_i is column i of the matrix, so one pair_values call pairs every
    image with every image, as t^e * x_ij / H.  With every x_ij padded to
    w coefficients and D = deg H, its conjugate is
    t^(D + 1 - e - w) * rev(x_ij) / rev(H), and laurent.same_class
    compares that with gram[i][j] = N_ij / (scale * den), on the integer
    lists of B.common, with no canonical class.  Sesquilinearity of the
    pairing and semilinearity of tau propagate the generator-pair identity
    to all elements.
    """
    if B.module.generators != T.module.generators:
        raise ValueError("pairing and involution live on different modules")
    n = T.module.generators
    images = [ModuleElement(T.module, T.matrix.col(i)) for i in range(n)]
    nums, H, e = pair_values(B, images, images)
    den, N, scale = B.common
    w = max(map(len, nums), default=0)
    pairs = (
        (N[i][j], (x + [0] * (w - len(x)))[::-1])
        for i in range(n)
        for j, x in enumerate(nums[i * n : (i + 1) * n])
        if N[i][j] or any(x)
    )
    return same_classes(pairs, [scale * c for c in den], 0, H[::-1], len(H) - e - w)


def swap_involution(M: PresentedModule) -> SemilinearMap:
    """Factor-swapping involution on a two-block direct sum.

    Requires the relation matrix to be a block sum whose blocks are mutually
    conjugate presentations (each block's conjugated relations lie in the
    other block's span), which is exactly what makes the swap well defined.
    The relations being block diagonal, the swap sends a block-one relation
    (c, 0) to (0, conj c), which lies in their span iff conj c lies in the
    span of block two, and symmetrically; so is_well_defined on the swap is
    that test.  The map keeps the verdict, so validate does not repeat it.
    """
    n = M.generators
    if n % 2:
        raise ValueError("module is not an even-split direct sum")
    h = n // 2
    R = M.relations
    two_blocks = any(
        all(R.entry(i, j).is_zero() for i in range(h) for j in range(m1, R.cols))
        and all(R.entry(i, j).is_zero() for i in range(h, n) for j in range(m1))
        for m1 in range(R.cols + 1)
    )
    if not two_blocks:
        raise ValueError("relation matrix is not a two-block sum")
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(h):
        entries[i][h + i] = ONE
        entries[h + i][i] = ONE
    swap = SemilinearMap(module=M, matrix=LambdaMatrix(entries))
    if not swap.well_defined:
        raise ValueError("blocks are not conjugate presentations; swap is not well defined")
    return swap


def direct_sum_involution(T1: SemilinearMap, T2: SemilinearMap, module: PresentedModule) -> SemilinearMap:
    """T1 + T2 on module, the direct sum of their modules."""
    matrix = LambdaMatrix(block_diag([T1.matrix.to_lists(), T2.matrix.to_lists()], ZERO))
    return SemilinearMap(module=module, matrix=matrix)
