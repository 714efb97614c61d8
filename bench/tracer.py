"""Span tracing for the benchmark's traced pass.

Each traced function of eqslice is replaced by a wrapper that records one
span per call: name, start, end, parent span and case index.  The modules
import each other's functions with `from .x import y`, so the wrapper is
rebound in every `eqslice.*` namespace that holds the original object, not
only in the defining module.  Spans stay in memory until the pass ends.
"""
from __future__ import annotations

import functools
import sys
import time

# Public functions wrapped in the traced pass, as `<module>.<name>`.
# A class is traced through its constructor.
TRACED = (
    "matrices.det",
    "matrices.inverse_qt",
    "matrices.snf",
    "matrices.in_span",
    "matrices.kernel",
    "modules.from_seifert",
    "modules.RationalBasis",
    "pairing.gram_from_seifert",
    "pairing.check_nonsingular",
    "pairing.pair",
    "pairing.vanishes_on_relations",
    "pairing.check_hermitian",
    "involution.swap_involution",
    "involution.is_well_defined",
    "involution.is_involutive",
    "involution.verify_anti_isometry",
    "witt.validate",
    "obstruction.tau_quadratic",
    "obstruction.evaluate_certificate",
    "obstruction.certify_k0",
    "obstruction.amphichiral_obstruction",
    "laurent.laurent_gcd",
    "laurent.coprime_split",
    "laurent.gcd_free_basis",
    "catalog.load",
    "catalog.assemble",
    "catalog.sum_specs",
    "cli.main",
)

ROUTES = ("support_partition", "combination", "counterexample", "undecided", "trivial")


def coeff_bits(x) -> int:
    """Bit length of a rational coefficient: the larger of numerator and denominator."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def certificate_route(cert) -> str:
    """Which `certify_k0` route decided, read from the certificate's evidence."""
    if cert.verdict == "COUNTEREXAMPLE":
        return "counterexample"
    if cert.verdict == "UNDECIDED":
        return "undecided"
    if "support_partition" in cert.evidence:
        return "support_partition"
    if "combination" in cert.evidence:
        return "combination"
    return "trivial"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, case index]
        self.case = -1
        self.routes = dict.fromkeys(ROUTES, 0)
        self.u_max_bits = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _after_snf(self, result):
        for row in result.U.to_lists():
            for entry in row:
                for _, c in entry.items():
                    bits = coeff_bits(c)
                    if bits > self.u_max_bits:
                        self.u_max_bits = bits

    def _after_certify(self, cert):
        self.routes[certificate_route(cert)] += 1

    def install(self):
        """Rebind every traced function in all loaded eqslice namespaces."""
        namespaces = [
            m for n, m in list(sys.modules.items()) if n == "eqslice" or n.startswith("eqslice.")
        ]
        hooks = {"matrices.snf": self._after_snf, "obstruction.certify_k0": self._after_certify}
        for qualname in TRACED:
            module_name, attr = qualname.split(".")
            original = getattr(sys.modules["eqslice." + module_name], attr)
            if isinstance(original, type):
                original.__init__ = self.wrap(qualname, original.__init__)
                continue
            wrapper = self.wrap(qualname, original, hooks.get(qualname))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Total self time and call count per span name.

    A span's self time is its duration minus the time covered by its child
    spans.  Calls are synchronous, so the children of a span are disjoint
    and nested inside it, and the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - covered[i], calls + 1)
    return out
