"""Independent and per-term evaluations of the pairing, kept as test oracles.

The library sums pairing values over the gram's common denominator; these
follow the definitions term by term instead, with the arithmetic of torsion
classes (sums, differences, ring multiples, conjugates) as the constructor
applied to the cross-multiplied fraction.  Also kept: a naive fraction
field, the symmetrised tau-grid, the per-entry quadratic parts and the
part-by-part certificate sum that tau_quadratic and evaluate_certificate
replaced, the block-by-block Fraction certificate (tau_parts_fraction,
certify_k0_fraction) that tau_quadratic and certify_k0 made before they
worked on integer lists, the block-by-block swap check that the library
replaced, the batched conjugation the Hermitian and anti-isometry
checks used before they compared values without canonical classes, and
the eager gram of canonical classes and the class-based nonsingularity
check that the pairing's integer form replaced, the table-and-weights
pencil inverse that the model's Horner form replaced, the reduce_over
normalization of the exponent route that its one-pass reduction replaced,
and pairing_from_gram, the pairing of a grid of classes, for pairings built
by hand.
"""
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from eqslice.laurent import (
    ONE,
    TORSION_ZERO,
    ZERO,
    LaurentPoly,
    TorsionClass,
    as_poly,
    classes_over,
    divexact,
    gcd_free_basis,
    integer_lists,
    laurent_lcm,
    reduce_over,
)
from eqslice.matrices import LambdaMatrix, SingularMatrixError, in_span, inverse_qt, seifert_pencil, snf
from eqslice.modules import RationalBasis
from eqslice.obstruction import (
    CERTIFIED_K0,
    COUNTEREXAMPLE,
    FALSIFIER_SAMPLES,
    UNDECIDED,
    CoprimePart,
    _falsifier_candidates,
)
from eqslice.pairing import GramPairing, pair, pair_grid
from laurent_oracle import coprime_split_class, oracle_divexact, oracle_divides, oracle_laurent_gcd, poly_divmod, poly_mod, poly_pow


class Frac:
    """num/den in the fraction field Q(t), in lowest terms.

    A reference for the library's TorsionClass, so deliberately plain: sums
    cross-multiply, n1/d1 + n2/d2 = (n1*d2 + n2*d1)/(d1*d2), and every
    result cancels one full gcd.  The denominator is then made monic and
    ordinary, with the t-power slack in the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num, den = as_poly(num), as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        else:
            g = oracle_laurent_gcd(num, den)
            num, den = oracle_divexact(num, g), oracle_divexact(den, g)
            v, lc = den.valuation(), den.leading_coefficient()
            num, den = num.shift(-v).scale(1 / lc), den.shift(-v).scale(1 / lc)
        self.num, self.den = num, den

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.is_one()

    def __add__(self, other):
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return Frac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return Frac(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return self.num == other.num and self.den == other.den

    def torsion(self):
        """(num mod den, den): the class in Q(t)/Lambda.  A numerator
        t^v * n with v < 0 is n times the inverse of t^-v mod den."""
        if self.is_polynomial():
            return ZERO, ONE
        v = min(self.num.valuation(), 0)
        r = poly_mod(self.num.shift(-v), self.den)
        if v:
            r = poly_mod(r * _inverse_mod(LaurentPoly({-v: 1}), self.den), self.den)
        return r, self.den


def _inverse_mod(a, m):
    """b with a*b = 1 mod m, by the extended Euclidean algorithm over Q[t];
    a and m are ordinary and coprime."""
    r0, r1, s0, s1 = m, poly_mod(a, m), ZERO, ONE
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    # s0 * a = r0 mod m, and r0 is a nonzero constant
    return poly_mod(s0.scale(1 / r0.coefficient(0)), m)


def class_add(x, y):
    """x + y for torsion classes: the constructor on the cross-multiplied
    fraction."""
    return TorsionClass(x.num * y.den + y.num * x.den, x.den * y.den)


def class_sub(x, y):
    return TorsionClass(x.num * y.den - y.num * x.den, x.den * y.den)


def class_scale(x, p):
    """p * x for a ring element or rational p."""
    return TorsionClass(x.num * as_poly(p), x.den)


def class_conjugate(x):
    """The ring involution t -> t^-1 applied to x."""
    return TorsionClass(x.num.conjugate(), x.den.conjugate())


def conjugates(xs):
    """[class_conjugate(x) for x in xs], by one classes_over call per
    denominator: the canonical route the Hermitian and anti-isometry checks
    took before they compared values by same_class.

    For a canonical num/den with D = deg den, the conjugate is
    t^D conj(num) / t^D conj(den), a fraction of ordinary polynomials: the
    coefficient lists reversed, cleared to integers by one common scale.
    """
    groups = {}
    for i, x in enumerate(xs):
        if not x.is_zero():
            groups.setdefault(x.den, []).append(i)
    out = [TORSION_ZERO] * len(xs)
    for den, members in groups.items():
        # the least exponent is -D, from conj(den), as deg num < D
        (rev, *nums), _, _ = integer_lists([den.conjugate()] + [xs[i].num.conjugate() for i in members])
        for i, x in zip(members, classes_over(nums, rev)):
            out[i] = x
    return out


def pairing_from_gram(module, gram):
    """The GramPairing on module whose gram is the given grid of classes:
    den is the lcm of their denominators, each numerator is put over it by
    its cofactor, and one integer_lists call clears them all to integers."""
    classes = [g for row in gram for g in row]
    den = reduce(laurent_lcm, {g.den for g in classes}, ONE)
    (den_list, *N), _, _ = integer_lists([den, *(g.num * divexact(den, g.den) for g in classes)])
    content = gcd(*den_list)
    n = len(gram)
    return GramPairing(module, ([c // content for c in den_list], [N[i * n : (i + 1) * n] for i in range(n)], content))


def pair_per_term(B, x, y):
    """sum over i, j of gram[i][j] * x_i * conj(y_j), one torsion class per term."""
    n, gram = B.module.generators, B.gram
    acc = TORSION_ZERO
    for j in range(n):
        cj = y.coeffs[j].conjugate()
        for i in range(n):
            acc = class_add(acc, class_scale(gram[i][j], x.coeffs[i] * cj))
    return acc


def vanishes_per_term(B):
    """gram * conj(r) is the zero class for every relation column r."""
    R, n, gram = B.module.relations, B.module.generators, B.gram
    for col in range(R.cols):
        r = [R.entry(i, col).conjugate() for i in range(n)]
        for i in range(n):
            acc = TORSION_ZERO
            for j in range(n):
                acc = class_add(acc, class_scale(gram[i][j], r[j]))
            if not acc.is_zero():
                return False
    return True


def pair_via_solve(A, x, y):
    """Fresh linear solve of (A - t A^T) z = conj(y), then (t - 1) * x^T z.

    Gaussian elimination over the fraction field, no adjugate and no cached
    gram.
    """
    n = len(A)
    B = -seifert_pencil(A).transpose()
    rows = [[Frac(e) for e in B.row(i)] for i in range(n)]
    rhs = [Frac(c.conjugate()) for c in y]
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
    z = [Frac(ZERO)] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc = acc - rows[i][j] * z[j]
        z[i] = acc / rows[i][i]
    total = Frac(ZERO)
    for xi, zi in zip(x, z):
        total = total + Frac(xi) * zi
    value = Frac(LaurentPoly({1: 1, 0: -1})) * total
    return TorsionClass(*value.torsion())


def symmetrised_grid(B, xs, ys):
    """(pair(x_k, y_l) + pair(x_l, y_k))/2, per term, for equally long xs, ys.

    With ys the involution images of xs, this is the grid tau_quadratic
    averaged before it required pair(x_k, y_l) itself to be symmetric.
    """
    return [
        [
            class_scale(class_add(pair_per_term(B, xs[k], ys[l]), pair_per_term(B, xs[l], ys[k])), Fraction(1, 2))
            for l in range(len(ys))
        ]
        for k in range(len(xs))
    ]


def grid_lists(G):
    """(nums, H, 0) for a square grid of classes, in the form pair_values
    returns, nums flattened row by row: each class over H, the lcm of the
    grid's denominators, on integer coefficient lists."""
    classes = [g for row in G for g in row]
    H = reduce(laurent_lcm, (g.den for g in classes), ONE)
    (den, *nums), _, _ = integer_lists([H] + [g.num * divexact(H, g.den) for g in classes])
    return nums, den, 0


def part_from_forms(denominator, forms):
    """The CoprimePart whose rational forms are forms: integer layers over
    the least positive q that clears every entry."""
    q = lcm(*(c.denominator for Q in forms for row in Q for c in row))
    layers = tuple(tuple(tuple(c.numerator * (q // c.denominator) for c in row) for row in Q) for Q in forms)
    return CoprimePart(denominator, q, layers)


def factor_powers_fraction(T):
    """f^e, monic, for f in the gcd-free basis of the invariant factors and
    e its multiplicity in the order, by Fraction division."""
    out = []
    for f in gcd_free_basis(list(T.module.invariant_factors)):
        e, rest = 0, T.module.order
        while oracle_divides(f, rest):
            rest = oracle_divexact(rest, f)
            e += 1
        out.append(poly_pow(f, e).monic_ordinary())
    return out


def tau_parts_per_entry(T):
    """The parts of tau_quadratic as it made them before pairing only the
    block generators: the full grid pair(b_k, tau b_l) over every pair of
    rational basis elements, and one coprime_split per entry k <= l."""
    basis = RationalBasis(T.module)
    dim = basis.dimension
    beta = [basis.basis_element(k) for k in range(dim)]
    grid = pair_grid(T.pairing, beta, [T.involution.apply(b) for b in beta])
    factor_powers = factor_powers_fraction(T)
    forms = [[[[Fraction(0)] * dim for _ in range(dim)] for _ in range(F.degree())] for F in factor_powers]
    for k in range(dim):
        for l in range(k, dim):
            if grid[k][l].is_zero():
                continue
            for idx, piece in enumerate(coprime_split_class(grid[k][l], factor_powers)):
                if piece.is_zero():
                    continue
                num = piece.num * divexact(factor_powers[idx], piece.den)
                for m, coeff in num.items():
                    forms[idx][m][k][l] += coeff
                    if l != k:
                        forms[idx][m][l][k] += coeff
    parts = []
    for F, layers in zip(factor_powers, forms):
        if any(any(any(row) for row in Q) for Q in layers):
            parts.append(part_from_forms(F, layers))
    return tuple(parts)


def tau_parts_fraction(T):
    """The parts of tau_quadratic as it made them before it worked on
    integer lists: the canonical generator grid G_ij = pair(u_i, tau u_j),
    one per-class coprime split per nonzero G_ij, and the Hankel fill by
    companion steps h <- t h mod F on Fraction coefficients."""
    basis = RationalBasis(T.module)
    dim = basis.dimension
    gens = [u for u, _ in basis.blocks]
    sizes = [d.degree() for d in basis.factors]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    G = pair_grid(T.pairing, gens, [T.involution.apply(u) for u in gens])
    factor_powers = factor_powers_fraction(T)
    part_forms = [[[[Fraction(0)] * dim for _ in range(dim)] for _ in range(F.degree())] for F in factor_powers]
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            if G[i][j].is_zero():
                continue
            for idx, piece in enumerate(coprime_split_class(G[i][j], factor_powers)):
                if piece.is_zero():
                    continue
                F = factor_powers[idx]
                f = F.dense()
                D = len(f) - 1
                h = (piece.num * divexact(F, piece.den)).dense()
                h += [Fraction(0)] * (D - len(h))
                forms = part_forms[idx]
                for s in range(sizes[i] + sizes[j] - 1):
                    if s:
                        top = h[-1]
                        h = [Fraction(0)] + h[:-1]
                        if top:
                            h = [c - top * fm for c, fm in zip(h, f)]
                    for a in range(max(0, s - sizes[j] + 1), min(s, sizes[i] - 1) + 1):
                        k, l = offsets[i] + a, offsets[j] + s - a
                        for m, coeff in enumerate(h):
                            if coeff:
                                forms[m][k][l] = forms[m][l][k] = coeff
    parts = []
    for F, layers in zip(factor_powers, part_forms):
        if any(any(any(row) for row in Q) for Q in layers):
            parts.append(part_from_forms(F, layers))
    return basis, tuple(parts)


def definiteness_fraction(Q):
    """Sign and pivots of symmetric Gaussian reduction on Fraction entries
    when Q is definite, else None: the LDL^T that certify_k0 ran before its
    fraction-free elimination."""
    n = len(Q)
    if n == 0:
        return None
    A = [list(row) for row in Q]
    sign = 0
    pivots = []
    for k in range(n):
        piv = A[k][k]
        if piv == 0:
            return None
        s = 1 if piv > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return None
        pivots.append(piv)
        for i in range(k + 1, n):
            f = A[i][k] / piv
            if f:
                for j in range(k + 1, n):
                    A[i][j] -= f * A[k][j]
                A[i][k] = Fraction(0)
    return sign, pivots


def certify_k0_fraction(T, seed=0):
    """(parts, verdict, evidence, counterexample) as certify_k0 made them
    before it worked on integer lists."""
    basis, parts = tau_parts_fraction(T)
    return (parts, *fraction_routes(T, basis, parts, seed))


def fraction_routes(T, basis, parts, seed=0):
    """(verdict, evidence, counterexample) of certify_k0's routes on the
    parts' Fraction forms: (1) and (2) by definiteness_fraction, then the
    falsifier, each candidate tried on every form by eval_form_fraction."""
    dim = basis.dimension
    if dim == 0:
        return CERTIFIED_K0, {"reason": "trivial module"}, None
    forms = [Q for part in parts for Q in part.forms if any(any(row) for row in Q)]
    if forms:
        covered, partition = set(), []
        for fi, Q in enumerate(forms):
            supp = [i for i, row in enumerate(Q) if any(row)]
            d = definiteness_fraction([[Q[i][j] for j in supp] for i in supp])
            if d is not None:
                partition.append({"form": fi, "sign": d[0], "support": supp})
                covered.update(supp)
        if covered == set(range(dim)):
            return CERTIFIED_K0, {"support_partition": partition}, None
        signs = [-1 if next((Q[i][i] for i in range(dim) if Q[i][i]), 0) < 0 else 1 for Q in forms]
        combinations = [("sign_normalized_sum", signs)]
        if -1 in signs:
            combinations.append(("plain_sum", [1] * len(forms)))
        for label, weights in combinations:
            total = [[sum((w * Q[i][j] for w, Q in zip(weights, forms)), Fraction(0)) for j in range(dim)] for i in range(dim)]
            d = definiteness_fraction(total)
            if d is not None and d[0] > 0:
                evidence = {"combination": {"kind": label, "weights": weights, "pivots": [str(p) for p in d[1]]}}
                return CERTIFIED_K0, evidence, None
    for v in _falsifier_candidates(dim, FALSIFIER_SAMPLES, seed):
        if any(v) and all(eval_form_fraction(Q, v) == 0 for Q in forms):
            x = basis.from_coords(v)
            if not x.is_zero() and pair(T.pairing, x, T.involution.apply(x)).is_zero():
                return COUNTEREXAMPLE, {"coordinates": [str(c) for c in v]}, x
    return UNDECIDED, {"falsifier_samples": FALSIFIER_SAMPLES}, None


def eval_form_fraction(Q, v):
    """v^T Q v over the rationals, entry by entry: the reference for the
    library's integer _eval_form."""
    total = Fraction(0)
    for i, row in enumerate(Q):
        if not v[i]:
            continue
        s = Fraction(0)
        for j, entry in enumerate(row):
            if entry and v[j]:
                s += entry * v[j]
        total += v[i] * s
    return total


def evaluate_by_fold(cert, v):
    """The certificate's value at v summed part by part from the zero class,
    each sum made canonical."""
    total = TORSION_ZERO
    for part in cert.parts:
        num = LaurentPoly({m: eval_form_fraction(Q, v) for m, Q in enumerate(part.forms)})
        if not num.is_zero():
            total = class_add(total, TorsionClass(num, part.denominator))
    return total


def swap_by_block_smith_forms(M):
    """The swap matrix on a two-block sum, checked block by block.

    Each block's conjugated relation columns must lie in the other block's
    span, tested against a Smith form of each block.  Raises ValueError with
    the library's messages.
    """
    n = M.generators
    if n % 2:
        raise ValueError("module is not an even-split direct sum")
    h = n // 2
    R = M.relations
    split = None
    for m1 in range(R.cols + 1):
        top_right_zero = all(R.entry(i, j).is_zero() for i in range(h) for j in range(m1, R.cols))
        bottom_left_zero = all(R.entry(i, j).is_zero() for i in range(h, n) for j in range(m1))
        if top_right_zero and bottom_left_zero:
            split = m1
            break
    if split is None:
        raise ValueError("relation matrix is not a two-block sum")
    R1 = LambdaMatrix([[R.entry(i, j) for j in range(split)] for i in range(h)])
    R2 = LambdaMatrix([[R.entry(i, j) for j in range(split, R.cols)] for i in range(h, n)])
    for block, other in ((R1, R2), (R2, R1)):
        s = snf(other)
        for col in range(block.cols):
            c = [block.entry(i, col).conjugate() for i in range(h)]
            if in_span(c, other, s) is None:
                raise ValueError("blocks are not conjugate presentations; swap is not well defined")
    entries = [[ZERO] * n for _ in range(n)]
    for i in range(h):
        entries[i][h + i] = ONE
        entries[h + i][i] = ONE
    return LambdaMatrix(entries)


def eager_gram(A, module):
    """The gram as gram_from_seifert made it before it kept the integer
    form: one classes_over call over the inverse's den, on the model's
    exponent route or, for det A = 0, inverse_qt's."""
    if module.model is not None:
        den, F = module.model.inverse_pencil()
    else:
        den, F = inverse_qt(-seifert_pencil(A).transpose())
    n = len(F)
    classes = classes_over([[b - a for a, b in zip(f + [0], [0] + f)] for row in F for f in row], den)
    return tuple(tuple(classes[i * n : (i + 1) * n]) for i in range(n))


def inverse_pencil_table(model):
    """_RationalModel.inverse_pencil as it was before the Horner form: the
    table W_j = adj * num^j, then the t^m coefficient of F as the weighted
    sum over j <= m of a_(d-m+j) * scale^(d-1-j) * W_j."""
    if not model.n:
        return [1], []
    a = model.invariant_factors[-1].dense()
    clear = lcm(*(c.denominator for c in a))
    a = [c.numerator * (clear // c.denominator) for c in a]
    d = len(a) - 1
    W = [model.adj]
    for _ in range(d - 1):
        rows = []
        for row in W[-1]:
            out = [0] * model.n
            for x, nrow in zip(row, model.num):
                if x:
                    out = [o + x * y for o, y in zip(out, nrow)]
            rows.append(out)
        W.append(rows)
    powers = [model.scale ** (d - 1 - j) for j in range(d)]
    weights = [[(j, a[d - m + j] * powers[j]) for j in range(m + 1)] for m in range(d)]
    F = [
        [[sum(w * W[j][r][s] for j, w in terms) for terms in weights] for s in range(model.n)]
        for r in range(model.n)
    ]
    return [model.det * powers[0] * c for c in reversed(a)], F


def common_via_reduce_over(den, F):
    """gram_from_seifert's common form of (den, F) = (A - t*A^T)^-1 as the
    exponent route made it before it fused the reduction into one pass:
    the content of (den, F) divided out, one reduce_over call for every
    (t - 1) * f, each r put over the lcm scale of the s, and the content
    of (N, scale) divided out."""
    n = len(F)
    g = gcd(*den, *(c for row in F for f in row for c in f))
    den, reduced = reduce_over([[(b - a) // g for a, b in zip(f + [0], [0] + f)] for row in F for f in row], [c // g for c in den])
    scale = lcm(*(s for _, s in reduced))
    N = [[c * (scale // s) for c in r] if any(r) else [] for r, s in reduced]
    g = gcd(scale, *(c for f in N for c in f))
    if g > 1:
        N = [[c // g for c in f] for f in N]
    return den, [N[i * n : (i + 1) * n] for i in range(n)], scale // g


def fraction_rank(rows):
    """The rank of a matrix of rationals, by Fraction Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank, width = 0, len(rows[0]) if rows else 0
    for c in range(width):
        p = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def eps_nonsingular(B):
    """check_nonsingular as it read eps off canonical classes: the t^(D-1)
    coefficient of each class over its own monic denominator, on the gram
    when the module has a rational model and on pair_grid over a
    RationalBasis otherwise; det E != 0 by Fraction elimination."""
    module = B.module
    if not module.is_torsion:
        return False
    if module.model is not None:
        grid = B.gram
    else:
        basis = RationalBasis(module)
        xs = [basis.basis_element(k) for k in range(basis.dimension)]
        grid = pair_grid(B, xs, xs)
    E = [[g.num.coefficient(g.den.degree() - 1) for g in row] for row in grid]
    return fraction_rank(E) == len(E)
