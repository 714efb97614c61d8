"""Seed-independent output checks, made with sympy and without eqslice.

They hold for every seed, so they judge runs whose seed has no committed
digests.  They run after the timed passes, in the parent process.
"""
from __future__ import annotations

import sympy
from sympy.polys.matrices import DomainMatrix

t = sympy.Symbol("t")


def canonical(expr) -> tuple:
    """Coefficients of a nonzero Laurent polynomial up to units c * t^k."""
    num, den = sympy.fraction(sympy.together(sympy.sympify(expr)))
    if not sympy.Poly(den, t).is_monomial:
        raise ValueError(f"{expr} is not a Laurent polynomial")
    coeffs = sympy.Poly(num, t).all_coeffs()
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(c / coeffs[0] for c in coeffs)


def seifert_order(A) -> tuple:
    """Canonical det(t*A - A^T), the order of the module A presents."""
    n = len(A)
    M = sympy.Matrix(n, n, lambda i, j: t * A[i][j] - A[j][i])
    return canonical(DomainMatrix.from_Matrix(M).det().as_expr() if n else 1)


def poly_text(text: str) -> str:
    return text.replace("^", "**")


def check_case(workload: str, check: dict) -> list[str]:
    """Problems found in one case's output; empty when it passes."""
    problems = []
    if "alexander" in check and "seifert" in check:
        if canonical(poly_text(check["alexander"])) != seifert_order(check["seifert"]):
            problems.append("module order differs from det(t*A - A^T)")
    if workload == "dense_seifert" and check.get("nonsingular") is not True:
        problems.append("pairing of a Seifert matrix reported singular")
    if workload == "swap_doubles" and check.get("verdict") != "INCONCLUSIVE":
        problems.append(
            f"swap double got {check.get('verdict')}; its diagonal is an invariant metabolizer"
        )
    return problems
