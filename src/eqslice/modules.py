"""Finitely presented torsion modules over the Laurent ring.

A module is given by a generator count and a relation matrix whose columns
are relators.  The Smith normal form of the relations is computed eagerly
and cached; invariant factors, order, and generating rank come from it.
Presentations are not canonical, so module comparisons go through invariant
factors rather than through the presentation itself.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    _reduce_mod,
    as_poly,
    divexact,
)
from .matrices import (
    LambdaMatrix,
    SnfResult,
    in_span,
    kernel,
    mat_vec,
    seifert_form_det,
    seifert_pencil,
    snf,
)


class PresentedModule:
    """Cokernel of a relation matrix, with cached normal-form data."""

    def __init__(self, generators: int, relations: LambdaMatrix | None = None):
        if relations is None:
            relations = LambdaMatrix.zeros(generators, 0)
        if relations.rows != generators:
            raise ValueError("relation matrix must have one row per generator")
        self.generators = generators
        self.relations = relations
        self.snf: SnfResult = snf(relations)
        self.invariant_factors: tuple[LaurentPoly, ...] = self.snf.invariant_factors
        self.free_rank = generators - self.snf.rank
        if self.free_rank:
            self.order = ZERO
        else:
            order = ONE
            for f in self.invariant_factors:
                order = order * f
            self.order = order
        self.grk = self.free_rank + len(self.invariant_factors)

    @property
    def is_torsion(self) -> bool:
        return self.free_rank == 0

    def element(self, coeffs: Sequence) -> "ModuleElement":
        coeffs = tuple(as_poly(c) for c in coeffs)
        if len(coeffs) != self.generators:
            raise ValueError("coefficient vector length mismatch")
        return ModuleElement(self, coeffs)

    def zero_element(self) -> "ModuleElement":
        return self.element([ZERO] * self.generators)

    def generator(self, i: int) -> "ModuleElement":
        return self.element([ONE if j == i else ZERO for j in range(self.generators)])

    def is_zero_element(self, x: "ModuleElement") -> bool:
        if x.coeffs and all(c.is_zero() for c in x.coeffs):
            return True
        return in_span(list(x.coeffs), self.relations, self.snf) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PresentedModule):
            return NotImplemented
        return self.generators == other.generators and self.relations == other.relations

    def __hash__(self):
        return hash((self.generators, self.relations))

    def __repr__(self):
        facs = ", ".join(str(f) for f in self.invariant_factors)
        free = f" + free^{self.free_rank}" if self.free_rank else ""
        return f"PresentedModule(grk={self.grk}, invariant_factors=[{facs}]{free})"


class ModuleElement:
    """Element of a presented module, as coefficients over the generators.

    Equality is congruence modulo the relation span.
    """

    __slots__ = ("module", "coeffs")

    def __init__(self, module: PresentedModule, coeffs: tuple[LaurentPoly, ...]):
        self.module = module
        self.coeffs = coeffs

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(self.module, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(self.module, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.module, tuple(-a for a in self.coeffs))

    def scale(self, p) -> "ModuleElement":
        p = as_poly(p)
        return ModuleElement(self.module, tuple(p * a for a in self.coeffs))

    def __rmul__(self, p) -> "ModuleElement":
        return self.scale(p)

    def is_zero(self) -> bool:
        return self.module.is_zero_element(self)

    def _check(self, other: "ModuleElement"):
        if self.module != other.module:
            raise ValueError("elements live in different modules")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        self._check(other)
        return (self - other).is_zero()

    def __repr__(self):
        return f"ModuleElement({', '.join(str(c) for c in self.coeffs)})"


def element_equal(module: PresentedModule, x: ModuleElement, y: ModuleElement) -> bool:
    if len(x.coeffs) != len(y.coeffs) or len(x.coeffs) != module.generators:
        raise ValueError("generator count mismatch")
    diff = tuple(a - b for a, b in zip(x.coeffs, y.coeffs))
    return in_span(list(diff), module.relations, module.snf) is not None


def from_seifert(A: Sequence[Sequence[int]]) -> PresentedModule:
    """Module presented by t*A - A^T for an integer Seifert matrix A."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("Seifert matrix must be square")
    d = seifert_form_det(A)
    if d not in (1, -1):
        raise ValueError(f"det(A - A^T) = {d}, expected +-1: not a Seifert matrix")
    return PresentedModule(n, seifert_pencil(A))


def direct_sum(M1: PresentedModule, M2: PresentedModule) -> PresentedModule:
    return PresentedModule(
        M1.generators + M2.generators,
        LambdaMatrix.block_diag(M1.relations, M2.relations),
    )


def generating_rank(M: PresentedModule) -> int:
    return M.grk


def submodule_presentation(M: PresentedModule, gens: Sequence[ModuleElement]) -> PresentedModule:
    """Presentation of the submodule generated by the given elements.

    The relations are the projections onto the generator coordinates of the
    kernel of [G | -R], where G stacks the given elements as columns and R
    is the ambient relation matrix.
    """
    k = len(gens)
    if k == 0:
        return PresentedModule(0)
    for g in gens:
        if len(g.coeffs) != M.generators:
            raise ValueError("generator does not live in the module")
    G = LambdaMatrix(zip(*[g.coeffs for g in gens]))
    K = kernel(G.hstack(-M.relations))
    rel = LambdaMatrix([K.row(i) for i in range(k)]) if K.cols else LambdaMatrix.zeros(k, 0)
    return PresentedModule(k, rel)


class RationalBasis:
    """Rational vector-space basis of a torsion module.

    Uses the cyclic decomposition from the Smith normal form: for each
    invariant factor d the powers t^0 .. t^(deg d - 1) of its cyclic
    generator.  Also carries the matrix of multiplication by t in this
    basis (block companion form), which is invertible since t is a unit.
    """

    def __init__(self, module: PresentedModule):
        if not module.is_torsion:
            raise ValueError("rational basis requires a torsion module")
        self.module = module
        s = module.snf
        n = module.generators
        self._U = s.U
        # U R V = D and a torsion module has rank n, so the first n columns
        # of R V are those of U^-1 scaled by the nonzero diagonal entries.
        cols = [
            [divexact(e, s.diagonal[j]) for e in mat_vec(module.relations, s.V.col(j))]
            for j in range(n)
        ]
        self._Uinv = LambdaMatrix(zip(*cols))
        self.blocks: list[tuple[int, LaurentPoly]] = []
        for i in range(n):
            d = s.diagonal[i]
            if not d.is_unit():
                self.blocks.append((i, d))
        self.factors = tuple(d for _, d in self.blocks)
        self.dimension = sum(d.degree() for d in self.factors)
        self.t_matrix = self._companion_blocks()

    def _companion_blocks(self) -> list[list[Fraction]]:
        dim = self.dimension
        T = [[Fraction(0)] * dim for _ in range(dim)]
        off = 0
        for _, d in self.blocks:
            s = d.degree()
            c = d.dense()
            for j in range(s - 1):
                T[off + j + 1][off + j] = Fraction(1)
            for j in range(s):
                T[off + j][off + s - 1] = -c[j]
            off += s
        return T

    def from_coords(self, coords: Sequence[Fraction]) -> ModuleElement:
        if len(coords) != self.dimension:
            raise ValueError("coordinate length mismatch")
        y = [ZERO] * self.module.generators
        off = 0
        for i, d in self.blocks:
            s = d.degree()
            y[i] = LaurentPoly({j: coords[off + j] for j in range(s)})
            off += s
        x = mat_vec(self._Uinv, y)
        return self.module.element(x)

    def to_coords(self, x: ModuleElement) -> tuple[Fraction, ...]:
        if len(x.coeffs) != self.module.generators:
            raise ValueError("element does not live in the module")
        y = mat_vec(self._U, list(x.coeffs))
        out: list[Fraction] = []
        for i, d in self.blocks:
            r = _reduce_mod(y[i], d)
            for j in range(d.degree()):
                out.append(r.coefficient(j))
        return tuple(out)

    def basis_element(self, k: int) -> ModuleElement:
        coords = [Fraction(0)] * self.dimension
        coords[k] = Fraction(1)
        return self.from_coords(coords)


def q_basis(M: PresentedModule) -> RationalBasis:
    return RationalBasis(M)
