"""Finitely presented torsion modules over the Laurent ring.

A module is given by a generator count and a relation matrix whose columns
are relators.  Invariant factors, order and generating rank are computed
at construction; presentations are not canonical, so module comparisons go
through invariant factors rather than through the presentation itself.

A module of a Seifert matrix A with det A != 0 carries its rational model:
Q^n with t acting by C = A^T A^-1 (see _RationalModel), which gives the
invariant factors, decides whether an element is zero and inverts
A - t*A^T for the pairing.  Every other presentation reads the first two
off the Smith normal form of its relations, taken at construction.  A
module with a model builds its relations t*A - A^T only when they are
first read (by the Smith form, a direct sum with a module that has no
model, the well-definedness checks, == and hash; the dense pipeline reads
none), and takes the Smith form,
with its unimodular transforms, on first use: a RationalBasis reads its
cyclic block generators off it.

The rational model is the one Krylov space: its integer arithmetic is the
Horner sum _combine, which maps elements to their vectors (and the
involution's columns to theirs, for its axiom checks), the fraction-free
echelon step _reduce, which spins its chains, and the integer matrix
product matrices._product, which makes num and the pencil inverse.  Both
it and times_t take a dense row as one C-level dot product per entry.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    _pseudo_divide,
    as_poly,
    divexact,
    integer_lists,
    laurent_gcd,
    list_dot,
)
from .matrices import (
    LambdaMatrix,
    SnfResult,
    _eliminate,
    _product,
    block_diag,
    in_span,
    kernel,
    seifert_form_det,
    seifert_pencil,
    snf,
)


class PresentedModule:
    """Cokernel of a relation matrix, with cached normal-form data.

    model, when given, is the rational model of these relations (see
    from_seifert); it then replaces the Smith form for the invariant factors
    and for deciding whether an element is zero, and relations left out are
    built from its Seifert matrix on first read.
    """

    def __init__(
        self,
        generators: int,
        relations: LambdaMatrix | None = None,
        model: "_RationalModel | None" = None,
    ):
        if relations is None and model is None:
            relations = LambdaMatrix.zeros(generators, 0)
        if relations is not None:
            if relations.rows != generators:
                raise ValueError("relation matrix must have one row per generator")
            self.relations = relations
        self.generators = generators
        self.model = model
        if model is None:
            self.invariant_factors: tuple[LaurentPoly, ...] = self.snf.invariant_factors
            self.free_rank = generators - self.snf.rank
        else:
            self.invariant_factors = model.invariant_factors
            self.free_rank = 0
        if self.free_rank:
            self.order = ZERO
        else:
            order = ONE
            for f in self.invariant_factors:
                order = order * f
            self.order = order
        self.grk = self.free_rank + len(self.invariant_factors)

    @cached_property
    def relations(self) -> LambdaMatrix:
        """t*A - A^T for the model's Seifert matrix A, built on first read
        when the module was given its model and no relations."""
        return seifert_pencil(self.model.seifert)

    @cached_property
    def snf(self) -> SnfResult:
        """Smith normal form of the relations, taken on first use."""
        return snf(self.relations)

    @property
    def is_torsion(self) -> bool:
        return self.free_rank == 0

    def element(self, coeffs: Sequence) -> "ModuleElement":
        coeffs = tuple(as_poly(c) for c in coeffs)
        if len(coeffs) != self.generators:
            raise ValueError("coefficient vector length mismatch")
        return ModuleElement(self, coeffs)

    def generator(self, i: int) -> "ModuleElement":
        return self.element([ONE if j == i else ZERO for j in range(self.generators)])

    def is_zero_element(self, x: "ModuleElement") -> bool:
        if all(c.is_zero() for c in x.coeffs):
            return True
        if self.model is not None:
            return not any(_combine(self.model, [x.coeffs])[0][0])
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

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        return ModuleElement(self.module, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, p) -> "ModuleElement":
        p = as_poly(p)
        return ModuleElement(self.module, tuple(p * a for a in self.coeffs))

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


def check_seifert(A: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless A is square with det(A - A^T) = +-1."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("Seifert matrix must be square")
    d = seifert_form_det(A)
    if d not in (1, -1):
        raise ValueError(f"det(A - A^T) = {d}, expected +-1: not a Seifert matrix")


def from_seifert(A: Sequence[Sequence[int]]) -> PresentedModule:
    """Module presented by t*A - A^T for an integer Seifert matrix A.

    With det A != 0 the module carries its rational model and builds the
    pencil only when its relations are first read; a singular A builds it
    at once and keeps the Smith form.
    """
    check_seifert(A)
    A = [list(r) for r in A]
    d, adj = _eliminate(A, adjugate=True)
    if not d:
        return PresentedModule(len(A), seifert_pencil(A))
    return PresentedModule(len(A), model=_RationalModel(A, d, adj))


class _RationalModel:
    """coker(t*A - A^T) for det A != 0, as Q^n with t acting by C = A^T A^-1.

    Relation column j says t*(A e_j) = A^T e_j, so t*u = C*u for every
    constant vector u, and t^-1 acts by C^-1.  The constant vectors
    therefore span the module over Q, and since deg det(t*A - A^T) = n
    they are a basis: the module is Q^n with t acting by C (Trotter 1973,
    Invent. Math. 20; Levine 1977, "Knot modules. I").  So an element
    sum_k v_k t^k is zero iff sum_k C^k v_k = 0, and the invariant factors
    are those of C.  C is kept as the integer matrix num = A^T adj(A) over
    the positive integer scale = det A, reduced by their common content,
    so a vector stands for its Q-span (see _combine).  det A and adj(A)
    are kept for inverse_pencil, and A for the module's relations.
    """

    def __init__(self, A: Sequence[Sequence[int]], d: int, adj: list[list[int]]):
        self.n = len(A)
        self.seifert = A
        self.det, self.adj = d, adj
        num = _product(list(zip(*A)), adj)
        g = gcd(d, *(e for row in num for e in row))
        if d < 0:
            g = -g
        self.num = [[e // g for e in row] for row in num]
        self.scale = d // g

    def times_t(self, v: list[int]) -> list[int]:
        """num * v, that is scale * C * v: one dot product per row when more
        than half of v is nonzero, else a sum over v's nonzero entries only."""
        nonzero = [(j, b) for j, b in enumerate(v) if b]
        if 2 * len(nonzero) > len(v):
            return [sum(map(mul, row, v)) for row in self.num]
        return [sum(row[j] * b for j, b in nonzero) for row in self.num]

    @cached_property
    def invariant_factors(self) -> tuple[LaurentPoly, ...]:
        """The invariant factors of C, from its Krylov chains.

        The k chain generators present the module by the upper triangular
        k x k matrix of _chains.  One chain (every dense draw tried) makes
        its polynomial the only factor.  A diagonal matrix (n-fold sums)
        becomes a divisibility chain by replacing every pair (a, b) by
        (gcd, lcm), coprime pairs included, since Lambda/a + Lambda/b is
        Lambda/gcd + Lambda/lcm.  Any other takes the Smith form of the
        small matrix.
        """
        T = self._chains()
        k = len(T)
        if any(not T[l][j].is_zero() for j in range(k) for l in range(j)):
            return snf(LambdaMatrix(T)).invariant_factors
        diag = [T[j][j] for j in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                a, b = diag[i], diag[j]
                if a.is_one():
                    break
                if a != b:
                    # when g = a the pair is already (gcd, lcm)
                    g = laurent_gcd(a, b)
                    if g != a:
                        diag[i], diag[j] = g, divexact(a * b, g)
        return tuple(p for p in diag if not p.is_unit())

    def inverse_pencil(self) -> tuple[list[int], list[list[list[int]]]]:
        """(den, F) with (A - t*A^T)^-1 = F / den, from the module's exponent.

        The exponent mu = sum_k a_k x^k, of degree d, is the last invariant
        factor: the minimal polynomial of C.  As A - t*A^T = (I - t*C)*A and
        mu(C) = 0, the quotient (mu(x) - mu(y)) / (x - y) at x = 1/t, y = C
        gives (I - t*C) * sum_(j<d) c_j(t)*C^j = rev mu(t) * I, with
        c_j(t) = sum_(k>j) a_k t^(d-k+j) and rev mu(t) = t^d mu(1/t).  So
        (A - t*A^T)^-1 = A^-1 * sum_(j<d) c_j(t)*C^j / rev mu(t).  With
        A^-1 = adj/det, C = num/scale and the a_k made integers, the t^m
        coefficient of F is F_m = scale^(d-1-m) * G_m over
        den = det * scale^(d-1) * rev mu, where G_m runs by Horner:
        G_0 = a_d * adj and G_m = a_(d-m) * scale^m * adj + G_(m-1) * num.
        That is d - 1 integer matrix products and no determinant of
        degree n.  den and each entry of F are integer coefficient lists,
        lowest first, of lengths d + 1 and d.
        """
        if not self.n:
            return [1], []
        a = self.invariant_factors[-1].dense()
        clear = lcm(*(c.denominator for c in a))
        a = [c.numerator * (clear // c.denominator) for c in a]
        d = len(a) - 1
        powers = [self.scale**m for m in range(d)]
        G = [[[a[d] * x for x in row] for row in self.adj]]
        for m in range(1, d):
            w = a[d - m] * powers[m]
            G.append([[w * x + y for x, y in zip(r, s)] for r, s in zip(self.adj, _product(G[-1], self.num))])
        # F[r][s] lists scale^(d-1-m) * G[m][r][s] over m
        F = [[[p * g for p, g in zip(reversed(powers), entry)] for entry in zip(*rows)] for rows in zip(*G)]
        return [self.det * powers[-1] * c for c in reversed(a)], F

    def _chains(self) -> list[list[LaurentPoly]]:
        """Presentation of the module by Krylov chains of C, over Q[t].

        Spin e_0, e_1, ... in turn: each vector C^i e_s is reduced against
        one echelon basis of the vectors spun so far, with its combination
        of them riding as n + 1 trailing entries.  An e_s in the span
        starts no chain; otherwise its chain x_j = e_s runs until
        C^(d_j) x_j depends on the basis, and that dependency is relation j,
        p_j(t) x_j + sum_(l<j) q_lj(t) x_l = 0 with p_j monic of degree d_j.
        The chains' vectors are a basis of Q^n and these relations have
        determinant of degree n = dim M, so they present M: column j of the
        returned matrix holds q_0j .. q_(j-1)j, p_j and zeros below.  Each
        vector's scale is kept as an integer pair a / b, and each relation
        coefficient is one Fraction over the lead's.
        """
        n = self.n
        basis: dict[int, list[int]] = {}
        spun: list[tuple[int, int, int, int]] = []  # chain, power, scale = a / b of each basis vector
        columns: list[list[LaurentPoly]] = []
        for s in range(n):
            if len(basis) == n:
                break
            # w is (a / b) * C^power e_s, kept primitive
            w = [int(i == s) for i in range(n)]
            a, b, power = 1, 1, 0
            while True:
                v, p = _reduce(basis, w + [int(i == len(spun)) for i in range(n + 1)], n)
                if p is None:
                    break
                basis[p] = v
                spun.append((len(columns), power, a, b))
                w = self.times_t(w)
                c = gcd(*w)
                w = [x // c for x in w]
                a, b, power = a * self.scale, b * c, power + 1
            if power:
                # sum over the spun vectors and w of combo * (a / b) * t^power x_chain
                # is 0; each coefficient over the lead's is one Fraction
                terms: list[dict[int, tuple[int, int]]] = [{} for _ in range(len(columns) + 1)]
                for (j, i, sa, sb), c in zip(spun + [(len(columns), power, a, b)], v[n:]):
                    if c:
                        terms[j][i] = c * sa, sb
                la, lb = terms[-1][power]
                columns.append([LaurentPoly({i: Fraction(x * lb, y * la) for i, (x, y) in t.items()}) for t in terms])
        k = len(columns)
        return [[columns[j][l] if l < len(columns[j]) else ZERO for j in range(k)] for l in range(k)]


def _combine(
    model: _RationalModel, columns: Sequence[Sequence[LaurentPoly]], vectors: Sequence[list[int]] | None = None
) -> tuple[list[list[int]], int, int]:
    """(out, c, v) with out[k] = c * C^-v * sum_j columns[k][j](C) * vectors[j]
    for every k, by one Horner in t over all the columns.

    v is the least exponent in the columns and c a positive integer that
    clears their denominators and the scale of num, both shared by every
    column.  vectors default to the unit vectors, when out[k] stands for the
    element columns[k] of the module: it is zero iff the element is.  A zero
    coefficient costs nothing.
    """
    lists, m, v = integer_lists([e for column in columns for e in column])
    terms, start = [], 0
    for column in columns:
        terms.append([(j, f) for j, f in enumerate(lists[start : start + len(column)]) if f])
        start += len(column)
    top = max((len(f) for column in terms for _, f in column), default=1)
    out = [[0] * model.n for _ in columns]
    # times_t multiplies by scale, so the terms added after i steps carry
    # scale^i to keep one multiple throughout
    weight = 1
    for i in range(top - 1, -1, -1):
        for k, column in enumerate(terms):
            x = out[k] = model.times_t(out[k])
            for j, f in column:
                a = f[i] * weight if i < len(f) else 0
                if not a:
                    continue
                if vectors is None:
                    x[j] += a
                else:
                    for r, u in enumerate(vectors[j]):
                        if u:
                            x[r] += a * u
        if i:
            weight *= model.scale
    return out, m * weight, v


def _reduce(basis: dict[int, list[int]], v: list[int], width: int) -> tuple[list[int], int | None]:
    """v reduced against a fraction-free echelon basis, and its pivot.

    basis maps a pivot p < width to a primitive vector whose first nonzero
    entry is at p.  The entries of v from width on are never pivoted on:
    they ride along and record the combination subtracted.  The pivot is
    None when the first width entries of the result vanish.
    """
    p = -1
    while True:
        p = next((i for i in range(p + 1, width) if v[i]), None)
        if p not in basis:
            return v, p
        b = basis[p]
        v = _primitive([b[p] * x - v[p] * y for x, y in zip(v, b)])


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return v if g <= 1 else [a // g for a in v]


def direct_sum(M1: PresentedModule, M2: PresentedModule) -> PresentedModule:
    """M1 + M2 on the block sum of their relations: the module of the block
    sum of their Seifert matrices when both have a rational model."""
    if M1.model is not None and M2.model is not None:
        return from_seifert(block_diag([M1.model.seifert, M2.model.seifert], 0))
    return PresentedModule(
        M1.generators + M2.generators,
        LambdaMatrix(block_diag([M1.relations.to_lists(), M2.relations.to_lists()], ZERO)),
    )


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
    """Rational vector-space basis of a torsion module, in cyclic blocks.

    With U R V = D the Smith form, blocks holds (u_i, d_i) for each d_i
    that is not a unit: u_i, column i of U^-1, generates a summand
    Lambda/d_i and gives the basis elements t^0 u_i .. t^(deg d_i - 1) u_i.
    R has rank n, so u_i = (R V e_i) / d_i, an exact pseudo-division on
    integer coefficient lists.
    """

    def __init__(self, module: PresentedModule):
        if not module.is_torsion:
            raise ValueError("rational basis requires a torsion module")
        self.module = module
        s, R = module.snf, module.relations
        # R = t^vr * flat / mr, V e_i = t^v * col / m and d_i = p / md on
        # integer lists, d_i monic and ordinary
        flat, mr, vr = integer_lists([e for row in R.to_lists() for e in row])
        self.blocks: list[tuple[ModuleElement, LaurentPoly]] = []
        for i, d in enumerate(s.diagonal):
            if d.is_unit():
                continue
            # the diagonal entry is monic and ordinary: (0, p, md) with p[-1] = md
            (col, m, v), (_, p, md) = s.integer_column(i), s.entries[1][i][i]
            u = []
            for k in range(R.rows):
                # L^j * w = q * p, so w / (mr * m) over p / md is q * md / (L^j * mr * m)
                q, rest, j = _pseudo_divide(list_dot(flat[k * R.cols : (k + 1) * R.cols], col), p)
                if any(rest):
                    raise ValueError(f"{d} does not divide R V e_{i}")
                u.append(LaurentPoly((vr + v + a, Fraction(c * md, p[-1] ** j * mr * m)) for a, c in enumerate(q)))
            self.blocks.append((module.element(u), d))
        self.factors = tuple(d for _, d in self.blocks)
        self.dimension = sum(d.degree() for d in self.factors)

    def from_coords(self, coords: Sequence[Fraction]) -> ModuleElement:
        if len(coords) != self.dimension:
            raise ValueError("coordinate length mismatch")
        x = [ZERO] * self.module.generators
        off = 0
        for u, d in self.blocks:
            p = LaurentPoly((j, coords[off + j]) for j in range(d.degree()))
            off += d.degree()
            if not p.is_zero():
                x = [a + p * c for a, c in zip(x, u.coeffs)]
        return self.module.element(x)

    def basis_element(self, k: int) -> ModuleElement:
        coords = [Fraction(0)] * self.dimension
        coords[k] = Fraction(1)
        return self.from_coords(coords)
