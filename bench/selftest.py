"""Self-test of the benchmark harness.

    python3 bench/selftest.py [--quick]

Checks the percentile, self-time and slowdown arithmetic, span nesting,
the seed-independent output checks, and (unless --quick) a mutation check: a
catalog_sums run against a corrupted expected digest must fail exactly the
corrupted case, so the failure fraction rises above 0.
"""
from __future__ import annotations

import sys
import time

import run
from checks import check_case
from speed import REFERENCE_S, Speedometer
from tracer import Tracer, self_times


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def test_quartiles():
    expect(run.quartiles([float(x) for x in range(1, 9)]) == (2.25, 4.5, 6.75), "quartiles of 1..8")
    values = [float(x) for x in range(40)]
    _, p50, p75 = run.quartiles(values)
    expect(p50 == 19.5, "median of 0..39")
    expect(sum(v > p75 for v in values) >= 10, "ten samples beyond the 75th percentile of 40")


def test_self_times():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a [5, 6]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 6.0, 0, 0],
    ]
    got = self_times(spans)
    expect(got == {"root": (6.0, 1), "a": (3.0, 2), "b": (1.0, 1)}, f"self times {got}")


def test_slowdown():
    speed = Speedometer()
    speed.times = [1.0, 2.0, 3.0]
    speed.durations = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    expect(abs(speed.slowdown(1.5, 1.8) - 1.5) < 1e-12, "mean of the samples around a case")
    expect(abs(speed.slowdown(2.2, 3.5) - 2.0) < 1e-12, "no sample after the case: the one before")
    expect(abs(speed.slowdown(0.5, 0.7) - 1.0) < 1e-12, "no sample before the case: the one after")


def test_span_nesting():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    expect(names == ["outer", "inner", "inner"] and parents == [-1, 0, 0], f"spans {tracer.spans}")
    got = self_times(tracer.spans)
    expect(got["inner"][1] == 2 and got["inner"][0] >= 0.02, "inner calls and time")
    expect(0 <= got["outer"][0] < 0.01, "outer self time excludes its children")


def test_checks():
    trefoil = [[-1, 1], [0, -1]]
    expect(check_case("catalog_sums", {"alexander": "t - 1 + t^-1", "seifert": trefoil}) == [], "trefoil order")
    expect(check_case("catalog_sums", {"alexander": "t - 2 + t^-1", "seifert": trefoil}) != [], "wrong order caught")
    expect(check_case("dense_seifert", {"nonsingular": False}) != [], "singular pairing caught")
    expect(check_case("swap_doubles", {"verdict": "NOT_EQUIVARIANTLY_ALGEBRAICALLY_SLICE"}) != [], "swap verdict caught")


def test_corrupted_digest():
    expected = run.load_expected("catalog_sums", run.DEFAULT_SEED)
    expect(len(expected) > 0, "committed catalog_sums digests")
    victim = "obstruct nine46"
    corrupted = dict(expected, **{victim: "0" * 64})
    result = run.run_workload("catalog_sums", run.DEFAULT_SEED, 1, False, expected=corrupted)
    failed = [c["id"] for c in result["cases"] if c["failed"]]
    expect(failed == [victim], f"failed cases {failed}")
    expect(not result["correct"], "a wrong digest makes the run incorrect")
    expect(result["metrics"]["ok_frac"]["value"] < 1, "failure fraction above 0")


def main() -> int:
    tests = [test_quartiles, test_self_times, test_slowdown, test_span_nesting, test_checks]
    if "--quick" not in sys.argv[1:]:
        tests.append(test_corrupted_digest)
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
