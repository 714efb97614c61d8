"""Workload process of the benchmark, started by run.py once per pass.

It imports eqslice, builds one workload's seeded inputs, runs the case list
once in a closed loop (one case at a time, single thread) and writes a JSON
report.  With --setup-only it stops after set-up.  With --trace it first
wraps eqslice's public functions (see tracer.py) and also writes the spans.
"""
from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import re
import resource
import signal
import sys
import time
from pathlib import Path

from speed import Speedometer
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter


class CaseTimeout(BaseException):
    """Raised by the alarm when a case runs past its budget; a BaseException
    so that no `except Exception` inside eqslice swallows it."""


def _on_alarm(signum, frame):
    raise CaseTimeout


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def max_integer_bits(text: str) -> int:
    """Largest bit length of an integer written in the text.

    Python refuses to convert integers of more than 4300 digits from text,
    so longer ones are sized from their digit count.
    """
    bits = 0
    for d in re.findall(r"\d+", text):
        d = d.lstrip("0") or "0"
        n = int(d).bit_length() if len(d) <= 4000 else math.ceil(len(d) * math.log2(10))
        bits = max(bits, n)
    return bits


def peak_rss_mb() -> float:
    """Peak resident set of this process.

    Read from VmHWM: on Linux, ru_maxrss also counts the parent's resident
    set at fork time, which it carries across exec.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_case(case, workloads, cli):
    """Run one case; returns (exit code, stdout or library results, per-call seconds)."""
    if case.argv is None:
        M, alexander, B, nonsingular, calls = workloads.run_library_case(case, clock)
        return 0, (M, alexander, B, nonsingular), calls
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(case.argv)
    return rc, out.getvalue(), {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="window for the whole case list")
    parser.add_argument("--budget", type=float, required=True, help="limit for one case")
    parser.add_argument("--workdir", required=True, help="relative to the checkout root")
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", help="with --trace: where to write the spans")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--full-grid", action="store_true", help="catalog_sums: every amphichiral case")
    parser.add_argument("--probe", action="store_true", help="run the workload's probe case instead")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    speed = Speedometer(clock)
    speed.sample(force=True)
    t0 = clock()
    import eqslice  # noqa: F401  (the package imports every module but cli)
    from eqslice import cli, laurent
    import_s = clock() - t0
    import workloads

    t1 = clock()
    cases = workloads.build(args.workload, args.seed, args.workdir, args.full_grid, args.probe)
    t2 = clock()
    speed.sample(force=True)
    slowdown = speed.slowdown(t0, t2)
    report = {
        "setup": {
            "import_s": import_s,
            "generate_s": t2 - t1,
            "raw_setup_s": t2 - t0,
            "slowdown": slowdown,
            "setup_s": (t2 - t0) / slowdown,
        }
    }
    if args.setup_only:
        Path(args.report).write_text(json.dumps(report))
        return 0

    gcd = laurent.laurent_gcd  # the lru_cache object, before any wrapper replaces it
    tracer = None
    run = run_case
    if args.trace:
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("bench.case", run_case)

    signal.signal(signal.SIGALRM, _on_alarm)
    records, outputs = [], []
    gcd_before = gcd.cache_info()
    start = clock()
    for i, case in enumerate(cases):
        rec = {"id": case.id, "genus": case.genus}
        records.append(rec)
        outputs.append(None)
        remaining = args.seconds - (clock() - start)
        if remaining <= 0:
            rec["status"] = "skipped: window closed"
            continue
        if tracer is not None:
            tracer.case = i
        speed.sample()
        t = clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, min(args.budget, remaining))
            try:
                rc, outputs[i], calls = run(case, workloads, cli)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            rec["status"] = "ok" if rc == 0 else f"exit {rc}"
            if calls:
                rec["calls"] = calls
        except CaseTimeout:
            rec["status"] = "timeout"
        except Exception as e:  # a crashing case is recorded and the loop goes on
            rec["status"] = f"error: {type(e).__name__}: {e}"
        rec["interval"] = (t, clock())
    wall_s = clock() - start
    gcd_after = gcd.cache_info()
    speed.sample(force=True)

    # Everything below is outside the timed region.
    for rec in records:
        if "interval" in rec:
            start_t, end_t = rec.pop("interval")
            rec["raw_seconds"] = end_t - start_t
            rec["slowdown"] = speed.slowdown(start_t, end_t)
            rec["seconds"] = rec["raw_seconds"] / rec["slowdown"]
    for case, rec, out in zip(cases, records, outputs):
        if rec["status"] != "ok":
            continue
        if case.argv is None:
            M, alexander, B, nonsingular = out
            facts = workloads.library_output(M, alexander, B, nonsingular)
            text = json.dumps(facts, sort_keys=True)
            check = {"alexander": facts["alexander"], "nonsingular": nonsingular}
        else:
            text = out.replace(args.workdir + "/", "<work>/")
            payload = json.loads(text)
            check = {k: payload[k] for k in ("alexander", "verdict") if k in payload}
        if case.seifert is not None:
            check["seifert"] = case.seifert
        rec["digest"] = digest(text)
        rec["max_coeff_bits"] = max_integer_bits(text)
        rec["check"] = check

    report.update(
        wall_s=wall_s,
        cases=records,
        peak_rss_mb=peak_rss_mb(),
        gcd_cache={
            "hits": gcd_after.hits - gcd_before.hits,
            "misses": gcd_after.misses - gcd_before.misses,
            "end_of_process": gcd_after._asdict(),
        },
    )
    if tracer is not None:
        report["trace"] = {
            "self": self_times(tracer.spans),
            "routes": tracer.routes,
            "u_max_bits": tracer.u_max_bits,
            "spans": len(tracer.spans),
        }
        if args.spans:
            with gzip.open(args.spans, "wt") as f:
                for span in tracer.spans:
                    f.write(json.dumps(span) + "\n")
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
