"""Seeded inputs and case lists of the benchmark's workloads.

eqslice sees only what is generated here: CLI argument lists, spec files
and Seifert matrices.  The benchmark seed never reaches it.  Functions are
called through their modules (`modules.from_seifert`, not a name imported
from it), so the traced pass sees the wrappers it installs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from eqslice import catalog, cli, laurent, modules, pairing

# The acceptance grid of builtins, as CLI spec references.
CATALOG_GRID = (
    "nine46",
    "figure_eight",
    "stevedore",
    "trefoil",
    "genus_one_slice:m=1,l=1",
    "genus_one_slice:m=-2,l=3,c=2",
    "genus_one_slice:m=3,l=5,c=1/2",
    "twist_ka:a=1",
    "twist_ka:a=2",
    "pretzel:a=3",
    "pretzel:a=5",
    "generalized_twist:b=2",
    "generalized_twist:b=4",
    "swap_double:inner=trefoil",
    "swap_double:inner=nine46",
)
GRID_COMMANDS = ("obstruct", "genus-bound", "verify", "alexander")
SUM_BASES = (("nine46", "nine46"), ("g1s35", "genus_one_slice:m=3,l=5"))
SUM_COUNTS = range(2, 9)
AMPHICHIRAL_GRID = tuple((a, n) for a in range(1, 13) for n in range(1, 5))
AMPHICHIRAL_DRAWS = 6

# Cases per genus.  Case time jumps by about ten times from one genus to
# the next, so the counts keep the median and the 75th percentile inside
# one genus, away from a jump (ranks 20.5 and 30.75 of 40; 30.5 and 45.75
# of 60).  At least 10 cases lie beyond the 75th percentile.  One pass
# takes 11 to 13 s on a quiet 2-core machine.
DENSE_GENERA = {2: 10, 3: 25, 4: 5}
SWAP_GENERA = {1: 15, 2: 45}
# The next genus up costs so differently from seed to seed (dense genus 5:
# 14 to 61 s; swap genus 3: 2.3 to 7.6 s) that one or two such cases would
# move wall_s more than any useful bound.  Traced runs time one of them,
# untraced, as a probe.
PROBE_GENUS = {"dense_seifert": 5, "swap_doubles": 3}


@dataclass
class Case:
    id: str
    argv: list[str] | None = None  # CLI case
    seifert: list[list[int]] | None = None  # library case, or the input a check needs
    genus: int = 0


def dense_seifert_matrix(genus: int, rng: random.Random) -> list[list[int]]:
    """A = S + (block sum of [[0,1],[0,0]]), S symmetric with entries in [-3, 3].

    A - A^T is the standard symplectic form, so det(A - A^T) = 1 and A is a
    Seifert matrix of a knot whatever S is.
    """
    n = 2 * genus
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = rng.randint(-3, 3)
    for k in range(genus):
        S[2 * k][2 * k + 1] += 1
    return S


def catalog_cases(rng: random.Random, workdir: str, full_grid: bool = False) -> list[Case]:
    # The order is fixed: cases share laurent_gcd cache entries, so which
    # case pays for a miss would otherwise change with the seed.
    cases: list[Case] = []
    for ref in CATALOG_GRID:
        seifert = [list(r) for r in cli.resolve_spec(ref).seifert]
        for command in GRID_COMMANDS:
            cases.append(
                Case(
                    id=f"{command} {ref}",
                    argv=[command, "--json", ref],
                    seifert=seifert if command == "alexander" else None,
                )
            )
    draws = AMPHICHIRAL_GRID if full_grid else sorted(rng.sample(AMPHICHIRAL_GRID, AMPHICHIRAL_DRAWS))
    for a, n in draws:
        cases.append(
            Case(id=f"amphichiral a={a} n={n}", argv=["amphichiral", "--json", "--a", str(a), "--n", str(n)])
        )
    for label, ref in SUM_BASES:
        for n in SUM_COUNTS:
            path = f"{workdir}/{label}x{n}.knot"
            cases.append(Case(id=f"sum {label}x{n}", argv=["sum", "--json", *[ref] * n, "-o", path]))
            cases.append(Case(id=f"obstruct {label}x{n}", argv=["obstruct", "--json", path]))
    return cases


def _genus_list(genera: dict[int, int]) -> list[tuple[int, int]]:
    return [(g, i) for g, count in genera.items() for i in range(count)]


def dense_cases(rng: random.Random, genera: dict[int, int]) -> list[Case]:
    return [
        Case(id=f"dense g{g} #{i}", seifert=dense_seifert_matrix(g, rng), genus=g)
        for g, i in _genus_list(genera)
    ]


def swap_cases(rng: random.Random, workdir: str, genera: dict[int, int]) -> list[Case]:
    cases = []
    for g, i in _genus_list(genera):
        A = dense_seifert_matrix(g, rng)
        n = len(A)
        double = tuple(tuple(A[r]) + (0,) * n for r in range(n)) + tuple(
            (0,) * n + tuple(A[c][r] for c in range(n)) for r in range(n)
        )
        path = f"{workdir}/swap_g{g}_{i}.knot"
        catalog.save(
            catalog.KnotSpec(
                name=f"swap_g{g}_{i}",
                seifert=double,
                involution="swap",
                notes="A + A^T of a seeded dense Seifert matrix with the factor-swapping inversion",
            ),
            path,
        )
        cases.append(Case(id=f"swap g{g} #{i}", argv=["obstruct", "--json", path], seifert=A, genus=g))
    return cases


def build(workload: str, seed: int, workdir: str, full_grid: bool = False, probe: bool = False) -> list[Case]:
    """The workload's case list for a seed; writes its spec files under workdir.

    With probe, the single case of the workload's probe genus, or none.
    """
    Path(workdir).mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{'probe:' if probe else ''}{seed}")
    if probe:
        if workload not in PROBE_GENUS:
            return []
        genera = {PROBE_GENUS[workload]: 1}
    else:
        genera = {"dense_seifert": DENSE_GENERA, "swap_doubles": SWAP_GENERA}.get(workload)
    if workload == "catalog_sums":
        return catalog_cases(rng, workdir, full_grid)
    if workload == "dense_seifert":
        return dense_cases(rng, genera)
    if workload == "swap_doubles":
        return swap_cases(rng, workdir, genera)
    raise ValueError(f"unknown workload {workload!r}")


def run_library_case(case: Case, clock):
    """The dense pipeline on one Seifert matrix, timing each call.

    Returns the module, normalized Alexander polynomial, pairing,
    nonsingularity flag and the seconds spent in each call.
    """
    A = case.seifert
    calls = {}
    t = clock()
    M = modules.from_seifert(A)
    calls["from_seifert"] = clock() - t
    t = clock()
    alexander = laurent.normalize_alexander(M.order)
    calls["normalize_alexander"] = clock() - t
    t = clock()
    B = pairing.gram_from_seifert(A, M)
    calls["gram_from_seifert"] = clock() - t
    t = clock()
    nonsingular = pairing.check_nonsingular(B)
    calls["check_nonsingular"] = clock() - t
    return M, alexander, B, nonsingular, calls


def library_output(M, alexander, B, nonsingular) -> dict:
    """What a library case is judged by: invariant factors, gram strings, nonsingular flag."""
    return {
        "alexander": laurent.format_poly(alexander),
        "invariant_factors": [laurent.format_poly(f) for f in M.invariant_factors],
        "gram": [[str(g) for g in row] for row in B.gram],
        "nonsingular": nonsingular,
    }
