"""Inputs that several test files share: the catalog grid, seeded dense
Seifert matrices and the assembled triples the certificate and involution
tests run on.

This is not a test file, and nothing here is computed at import: a case
list is built when a test asks for it, so a fault in the library shows up
as named failing tests, not as a collection error of every file that
imports the cases.
"""
import random
from fractions import Fraction

from eqslice.catalog import KnotSpec, assemble, builtin, sum_specs
from eqslice.laurent import ONE, ZERO
from eqslice.matrices import LambdaMatrix, block_diag

CATALOG_GRID = [
    ("nine46", {}),
    ("figure_eight", {}),
    ("stevedore", {}),
    ("trefoil", {}),
    ("genus_one_slice", {"m": 1, "l": 1}),
    ("genus_one_slice", {"m": -2, "l": 3, "c": 2}),
    ("genus_one_slice", {"m": 3, "l": 5, "c": Fraction(1, 2)}),
    ("twist_ka", {"a": 1}),
    ("twist_ka", {"a": 2}),
    ("pretzel", {"a": 3}),
    ("pretzel", {"a": 5}),
    ("generalized_twist", {"b": 2}),
    ("generalized_twist", {"b": 4}),
    ("swap_double", {"inner": "trefoil"}),
    ("swap_double", {"inner": "nine46"}),
]

# a dense genus-2 draw with det A = 0: dense_seifert(2, random.Random(57))
SINGULAR_DENSE = [[-3, 0, 1, 1], [-1, -3, -2, 1], [1, -2, -1, 1], [1, 1, 0, -1]]


def identity(n):
    """The n x n identity LambdaMatrix."""
    return LambdaMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def dense_seifert(genus, rng):
    """Symmetric part with entries in [-3, 3] plus a symplectic block sum."""
    n = 2 * genus
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(-3, 3)
    for k in range(genus):
        A[2 * k][2 * k + 1] += 1
    return A


def swap_double(A):
    """A + A^T as one block-diagonal Seifert matrix."""
    return block_diag([A, list(zip(*A))], 0)


def swap_double_of(A, name):
    return assemble(KnotSpec(name=name, seifert=swap_double(A), involution="swap"))


def check_cases():
    """(label, triple): every CATALOG_GRID builtin and its doubled sum, and
    swap doubles of dense genus 1 and 2, each assembled as it is reached."""
    for name, params in CATALOG_GRID:
        spec = builtin(name, **params)
        yield f"{name}{params}", assemble(spec)
        yield f"{name}{params} doubled", assemble(sum_specs([spec, spec]))
    rng = random.Random(52)
    for genus, count in ((1, 3), (2, 2)):
        for i in range(count):
            yield f"swap dense g{genus} #{i}", swap_double_of(dense_seifert(genus, rng), f"swap_g{genus}_{i}")


def seeded_swap_matrices():
    """(label, name, A): the Seifert matrices of the benchmark's
    swap_doubles workload at seed 0, 15 of genus 1 and 45 of genus 2, drawn
    as bench/workloads.py draws them, then its genus-3 probe."""
    rng = random.Random("swap_doubles:0")
    for genus, count in ((1, 15), (2, 45)):
        for i in range(count):
            yield f"swap g{genus} #{i}", f"swap_g{genus}_{i}", swap_double(dense_seifert(genus, rng))
    yield "swap g3 probe", "swap_g3_0", swap_double(dense_seifert(3, random.Random("swap_doubles:probe:0")))


def seeded_swap_doubles():
    """(label, triple): the triples of seeded_swap_matrices."""
    for label, name, A in seeded_swap_matrices():
        yield label, assemble(KnotSpec(name=name, seifert=A, involution="swap"))
