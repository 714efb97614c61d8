"""Equivariant linking-form triples and their Witt-group operations.

A triple bundles a torsion module, a Hermitian nonsingular pairing, and a
semilinear involution acting as an anti-isometry.  The group operations are
block sums and sign flips; metabolizers are certified one-sidedly: exhibiting
one proves the class is trivial, while the obstruction engine proves
nontriviality.  Deciding Witt equality in general is out of scope.
"""
from __future__ import annotations

from dataclasses import dataclass

from .laurent import ONE, unit_equal
from .matrices import LambdaMatrix
from .modules import (
    ModuleElement,
    PresentedModule,
    direct_sum,
    submodule_presentation,
)
from .involution import (
    SemilinearMap,
    direct_sum_involution,
    is_involutive,
    verify_anti_isometry,
)
from .pairing import (
    GramPairing,
    check_hermitian,
    check_nonsingular,
    direct_sum_pairing,
    negate_pairing,
    pair_grid,
    vanishes_on_relations,
)


@dataclass(frozen=True)
class EquivariantTriple:
    module: PresentedModule
    pairing: GramPairing
    involution: SemilinearMap


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    """Named pass/fail checks: the structural axioms or the metabolizer
    conditions."""

    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }


def validate(T: EquivariantTriple) -> ValidationReport:
    """Run every structural axiom and report pass/fail per check.

    nonsingular is checked only on a torsion module with a Hermitian,
    well-defined pairing, as check_nonsingular requires, and reports a skip
    otherwise, as the involution checks are gated on involution_well_defined.
    """
    checks: list[AxiomCheck] = []

    torsion = T.module.is_torsion
    checks.append(
        AxiomCheck("torsion", torsion, "" if torsion else f"free rank {T.module.free_rank}")
    )
    hermitian = check_hermitian(T.pairing)
    checks.append(AxiomCheck("hermitian", hermitian))
    well_defined = vanishes_on_relations(T.pairing)
    checks.append(AxiomCheck("pairing_well_defined", well_defined))
    if not torsion:
        skipped = "skipped: module not torsion"
    elif not (hermitian and well_defined):
        skipped = "skipped: pairing not hermitian and well defined"
    else:
        skipped = ""
    checks.append(AxiomCheck("nonsingular", not skipped and check_nonsingular(T.pairing), skipped))
    wd = T.involution.well_defined
    checks.append(AxiomCheck("involution_well_defined", wd))
    checks.append(AxiomCheck("involutive", is_involutive(T.involution) if wd else False))
    checks.append(
        AxiomCheck(
            "anti_isometry",
            verify_anti_isometry(T.involution, T.pairing) if wd else False,
        )
    )
    # t - 1 divides the order iff the order vanishes at 1
    if not torsion:
        reason = "module not torsion"
    elif T.module.order.evaluate(1) == 0:
        reason = "order shares a factor with t - 1"
    else:
        reason = ""
    checks.append(AxiomCheck("one_minus_t_invertible", not reason, reason))
    return ValidationReport(tuple(checks))


def triple_sum(T1: EquivariantTriple, T2: EquivariantTriple) -> EquivariantTriple:
    module = direct_sum(T1.module, T2.module)
    return EquivariantTriple(
        module=module,
        pairing=direct_sum_pairing(T1.pairing, T2.pairing, module),
        involution=direct_sum_involution(T1.involution, T2.involution, module),
    )


def negate(T: EquivariantTriple) -> EquivariantTriple:
    return EquivariantTriple(
        module=T.module,
        pairing=negate_pairing(T.pairing),
        involution=T.involution,
    )


def is_metabolizer(T: EquivariantTriple, P: tuple[ModuleElement, ...]) -> ValidationReport:
    """Check the three metabolizer conditions for the submodule P generates.

    (a) the pairing vanishes on generator pairs (sesquilinearity extends
    this to the whole submodule); (b) |P| * conj|P| equals |H| up to units;
    (c) the submodule is invariant under the involution: the images of the
    generators lie in it, and the generators lie in the submodule the
    images generate.
    """
    n = T.module.generators
    for g in P:
        if len(g.coeffs) != n:
            raise ValueError("witness generator does not live in the module")

    grid = pair_grid(T.pairing, P, P)
    check_a = AxiomCheck("pairwise_vanishing", all(v.is_zero() for row in grid for v in row))

    sub = submodule_presentation(T.module, list(P))
    if sub.is_torsion and T.module.is_torsion:
        product = sub.order * sub.order.conjugate()
        order_ok = unit_equal(product, T.module.order)
        detail = f"|P| = {sub.order}"
    else:
        order_ok = False
        detail = "submodule or module not torsion"
    check_b = AxiomCheck("order_identity", order_ok, detail)

    images = [T.involution.apply(g) for g in P]
    tau_ok = _in_submodule(T.module, P, images) and _in_submodule(T.module, images, P)
    check_c = AxiomCheck("tau_invariant", tau_ok)

    return ValidationReport((check_a, check_b, check_c))


def _in_submodule(M: PresentedModule, gens, xs) -> bool:
    """Whether every x lies in the submodule of M generated by gens, tested
    as zero in the quotient of M by gens, whose Smith form serves every x."""
    if not xs:
        return True
    G = LambdaMatrix(zip(*[g.coeffs for g in gens]))
    quotient = PresentedModule(M.generators, G.hstack(M.relations))
    return all(quotient.element(x.coeffs).is_zero() for x in xs)


def diagonal_metabolizer(T: EquivariantTriple) -> tuple[ModuleElement, ...]:
    """The generators (g_i, g_i) of the diagonal inside T + (-T)."""
    double = triple_sum(T, negate(T))
    n = T.module.generators
    return tuple(
        double.module.element([ONE if j in (i, n + i) else 0 for j in range(2 * n)])
        for i in range(n)
    )
