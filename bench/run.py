"""Seeded benchmark of the eqslice pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of a workload runs in a fresh
worker process (worker.py) that runs the seeded case list once, one case at
a time.  With --trace 0 the last stdout line holds the end-to-end metrics;
with --trace 1 it runs an untraced pass, a traced pass and the workload's
probe case, and holds the per-layer metrics.  Outputs are judged by committed digests (expected/)
and by seed-independent checks (checks.py).  The full result, with run
metadata and per-case rows, goes to bench/results/.  See README.md.

    python3 bench/run.py --workload NAME --record

records the digests of seed 0 after its checks pass.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_case
from tracer import ROUTES, TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("catalog_sums", "dense_seifert", "swap_doubles")
DEFAULT_SEED = 0
CASE_BUDGET_S = 30.0
# A pass whose window closes skips its remaining cases.  The window is wide
# enough for a pass on a host running at half speed, and narrow enough that
# two passes and a probe end within 180 s.
PASS_WINDOW_S = 50.0
PROBE_BUDGET_S = 45.0  # the probe case of a traced run
SETUP_REPEATS = 5
MIN_PASSES = 2  # untraced passes of a --trace 0 run, at the least
DENSE_CALLS = ("from_seifert", "gram_from_seifert", "check_nonsingular")
PER_GENUS = (2, 3, 4, 5)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by statistics.quantiles' default method."""
    if len(values) < 2:
        raise BenchError(f"need at least two samples for quartiles, got {len(values)}")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_worker(workload, seed, workdir: Path, *flags, seconds=PASS_WINDOW_S, budget=CASE_BUDGET_S) -> dict:
    """Run one worker process to completion and return its report."""
    workdir.mkdir(parents=True, exist_ok=True)
    report = workdir / "report.json"
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--budget", str(budget),
        "--workdir", workdir.relative_to(ROOT).as_posix(),
        "--report", str(report),
        *flags,
    ]
    # A worker ends by its own window and alarm; the timeout is a backstop.
    proc = subprocess.run(cmd, cwd=ROOT, timeout=seconds + budget + 60)
    if proc.returncode != 0 or not report.exists():
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(report.read_text())


def load_expected(workload: str, seed: int) -> dict[str, str]:
    """Committed digests that apply to this seed (catalog_sums' apply to every seed)."""
    path = BENCH / "expected" / f"{workload}.json"
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    if data["seed"] is not None and data["seed"] != seed:
        return {}
    return data["digests"]


def judge(workload: str, cases: list[dict], expected: dict[str, str]) -> dict:
    """Mark each case failed or not and say whether every output was right.

    A case fails on a wrong digest, a failed check, an exception, a nonzero
    exit, a timeout or a window that closed before it started.  Only the
    last two leave the outputs correct.
    """
    correct = True
    for case in cases:
        problems = []
        if case["status"] == "ok":
            want = expected.get(case["id"])
            if want is not None and want != case["digest"]:
                problems.append("digest differs from the committed one")
            problems += check_case(workload, case["check"])
        elif not case["status"].startswith(("timeout", "skipped")):
            problems.append(case["status"])
        case["problems"] = problems
        case["failed"] = bool(problems) or case["status"] != "ok"
        correct = correct and not problems
    failed = sum(c["failed"] for c in cases)
    return {"correct": correct, "attempted": len(cases), "failed": failed}


def end_to_end(setup: list[float], passes: list[dict], verdict: dict) -> dict:
    """The user-visible metrics of a run, from the merged per-case rows."""
    times = [c["seconds"] for c in passes[0]["cases"] if not c["failed"]]
    _, p50, p75 = quartiles(times)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(times), "s"),
        "case_s.p50": (p50, "s"),
        "case_s.p75": (p75, "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": (1 - verdict["failed"] / verdict["attempted"], "fraction"),
    }


def per_layer(plain: dict, traced: dict, probe: dict) -> dict:
    trace = traced["trace"]
    self_time = trace["self"]
    metrics = {}
    for name in TRACED:
        s, calls = self_time.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = (s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    metrics["matrices.snf.u_max_bits"] = (trace["u_max_bits"], "bits")
    for route in ROUTES:
        metrics[f"obstruction.certify_k0.route.{route}"] = (trace["routes"][route], "count")
    gcd = traced["gcd_cache"]  # base: laurent.laurent_gcd.calls of the same pass
    lookups = gcd["hits"] + gcd["misses"]
    metrics["laurent.laurent_gcd.hit_ratio"] = (gcd["hits"] / lookups if lookups else 0.0, "fraction")
    metrics["laurent.max_coeff_bits"] = (
        max((c.get("max_coeff_bits", 0) for c in plain["cases"]), default=0),
        "bits",
    )
    metrics["bench.case.self_s"] = (self_time.get("bench.case", (0.0, 0))[0], "s")
    timed = [c["pass_seconds"] for c in plain["cases"] if not c["failed"]]
    metrics["trace.overhead_ratio"] = (sum(t for _, t in timed) / sum(u for u, _ in timed), "ratio")
    metrics["trace.spans"] = (trace["spans"], "count")

    rows = [c for c in plain["cases"] + probe["cases"] if not c["failed"] and "calls" in c]
    for g in PER_GENUS:
        for call in DENSE_CALLS:
            values = [c["calls"][call] for c in rows if c["genus"] == g]
            metrics[f"dense.g{g}.{call}_s"] = (statistics.median(values) if values else 0.0, "s")
    done = [c for c in probe["cases"] if not c["failed"]]
    metrics["probe.completed"] = (len(done), "count")
    metrics["probe.case_s"] = (sum(c["seconds"] for c in done), "s")
    return metrics


def metadata(workload, seed, seconds, trace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pass_window_s": PASS_WINDOW_S,
        "case_budget_s": CASE_BUDGET_S,
        "probe_budget_s": PROBE_BUDGET_S,
        "src_lines": src_lines,
        "loop": "closed, one client, single thread",
    }


def merge_passes(workload: str, passes: list[dict], expected: dict[str, str]) -> dict:
    """Judge every pass and fold them into one row per case.

    A case fails if it fails in any pass, and the passes must agree on its
    output.  Its time is the fastest of its passes: contention from other
    tenants of the machine only ever adds time.
    """
    verdicts = [judge(workload, p["cases"], expected) for p in passes]
    correct = all(v["correct"] for v in verdicts)
    cases = passes[0]["cases"]
    for i, case in enumerate(cases):
        rows = [p["cases"][i] for p in passes]
        if case["status"] == "ok" and any(r["status"] == "ok" and r["digest"] != case["digest"] for r in rows):
            case["problems"].append("passes disagree on the output")
            correct = False
        case["failed"] = any(r["failed"] or r["problems"] for r in rows)
        case["pass_seconds"] = [r.get("seconds") for r in rows]
        if not case["failed"]:
            case["seconds"] = min(r["seconds"] for r in rows)
    return {"correct": correct, "attempted": len(cases), "failed": sum(c["failed"] for c in cases)}


def run_workload(workload, seed, seconds, trace, expected=None, full_grid=False) -> dict:
    """Every pass of one run; returns the full result."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if expected is None:
        expected = load_expected(workload, seed)
    work = BENCH / "work" / f"{workload}-{os.getpid()}"
    try:
        setups = [
            run_worker(workload, seed, work / f"setup{i}", "--setup-only")["setup"]
            for i in range(SETUP_REPEATS)
        ]
        grid = ("--full-grid",) if full_grid else ()
        plain = []
        spent = 0.0
        while True:
            t = time.perf_counter()
            plain.append(run_worker(workload, seed, work / f"plain{len(plain)}", *grid))
            spent += time.perf_counter() - t
            # A traced run takes one untraced pass.  Otherwise the passes fill
            # the window: at least two, and another while one more of the
            # mean length still fits.
            if trace or len(plain) >= MIN_PASSES and spent * (len(plain) + 1) / len(plain) > seconds:
                break
        result = {"meta": metadata(workload, seed, seconds, trace), "setup": setups}
        if not trace:
            verdict = merge_passes(workload, plain, expected)
            metrics = end_to_end([s["setup_s"] for s in setups], plain, verdict)
        else:
            (BENCH / "results").mkdir(exist_ok=True)
            spans = BENCH / "results" / f"{workload}-seed{seed}.spans.jsonl.gz"
            traced = run_worker(workload, seed, work / "traced", "--trace", "--spans", str(spans))
            verdict = merge_passes(workload, [plain[0], traced], expected)
            probe = run_worker(
                workload, seed, work / "probe", "--probe", seconds=PROBE_BUDGET_S, budget=PROBE_BUDGET_S
            )
            verdict["correct"] = verdict["correct"] and judge(workload, probe["cases"], {})["correct"]
            result["probe"] = probe["cases"]
            metrics = per_layer(plain[0], traced, probe)
        result["meta"]["passes"] = len(plain) + trace
        result.update(verdict, gcd_cache=plain[0]["gcd_cache"], cases=plain[0]["cases"])
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record(workload: str, result: dict):
    if not result["correct"] or result["failed"]:
        raise BenchError("refusing to record digests of a run with failed cases")
    path = BENCH / "expected" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    data = {
        # catalog_sums' inputs do not depend on the seed, so its digests hold for every seed
        "seed": None if workload == "catalog_sums" else DEFAULT_SEED,
        "digests": {c["id"]: c["digest"] for c in result["cases"]},
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="how long the untraced passes of a run measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write expected/<workload>.json from seed 0")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eqslice" / "__init__.py").is_file():
        print(f"error: no eqslice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: --record runs seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            expected={} if args.record else None, full_grid=args.record,
        )
        if args.record:
            record(args.workload, result)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    (BENCH / "results").mkdir(exist_ok=True)
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"meta": result["meta"], "gcd_cache": result["gcd_cache"], "results_file": str(out.relative_to(ROOT))}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
