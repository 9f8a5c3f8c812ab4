#!/usr/bin/env python3
"""Benchmark-regression gate: compare two google-benchmark JSON files.

    bench_diff.py baseline.json current.json [--threshold 0.20] [--calibrate]

Compares per-benchmark real_time of `current` against `baseline` and fails
(exit 1) if any benchmark regressed by more than the threshold (default
20%).  A file run with --benchmark_repetitions=N holds N runs of each
benchmark; their median is its time.  Benchmarks present in only one file
are reported but never fail the gate (they are new or retired, not
regressed).  A gated benchmark of `current` that reports a
`cache_hit_rate` counter of 1 also fails the gate: every lookup hit, so it
timed a warm cache, not the cold work the gate exists for.

Cross-machine noise: the checked-in baseline (BENCH_fixpoint.json) was
recorded on a different machine than CI runs on.  `--calibrate` rescales
the baseline by the *median* ratio current/baseline across all shared
benchmarks before applying the threshold, so a uniformly slower (or
faster) machine cancels out and only benchmarks that regressed *relative
to the rest of the suite* trip the gate.  A real regression in a few
benchmarks barely moves the median; a regression in every benchmark at
once is indistinguishable from a slow machine, which is the price of a
checked-in cross-machine baseline.

CI override: a PR that intentionally trades speed for a feature applies
the `perf-regression-ok` label, which skips this gate (see
.github/workflows/ci.yml) and should say why in the PR description.

    bench_diff.py --self-test

runs the built-in unit test: a synthetic 25% single-benchmark regression
must fail the gate (with and without --calibrate), a uniform 2x machine
slowdown must pass under --calibrate, one outlier among three
repetitions must not move a benchmark's time, and a gated rung with a
cache hit rate of 1 must fail.  Exits 0 when the self-test passes.
"""

import argparse
import json
import statistics
import sys


class CalibrationError(Exception):
    """--calibrate had no usable (positive-time) shared benchmarks."""


def times_of(data):
    """name -> median real_time over the runs of that name, aggregate
    entries (mean/median/stddev) skipped."""
    runs = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        runs.setdefault(bench["name"], []).append(float(bench["real_time"]))
    return {name: statistics.median(ts) for name, ts in runs.items()}


def hit_rates_of(data):
    """name -> highest cache_hit_rate counter over the runs of that name,
    for the benchmarks that report one."""
    rates = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate" or \
                "cache_hit_rate" not in bench:
            continue
        rate = float(bench["cache_hit_rate"])
        rates[bench["name"]] = max(rates.get(bench["name"], rate), rate)
    return rates


def load(path):
    """The times and the cache hit rates of a benchmark JSON file."""
    with open(path) as f:
        data = json.load(f)
    return times_of(data), hit_rates_of(data)


def compare(baseline, current, threshold, calibrate, out=sys.stdout,
            hit_rates=None):
    """Returns the names of the gated benchmarks that fail: those that
    regressed, and those whose cache hit rate in \p hit_rates (the current
    run's) is 1."""
    hit_rates = hit_rates or {}
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("bench_diff: no shared benchmarks; nothing to gate", file=out)
        return []

    scale = 1.0
    if calibrate:
        # A benchmark whose baseline time is 0 (clock granularity, or a
        # corrupt file) contributes no ratio; if NONE contribute, the
        # median is undefined and calibration is impossible -- fail with
        # a clear message instead of a StatisticsError traceback.
        ratios = [current[n] / baseline[n] for n in shared
                  if baseline[n] > 0]
        if not ratios:
            raise CalibrationError(
                "cannot calibrate: every shared benchmark has a zero "
                "baseline time (corrupt or truncated baseline file?)")
        scale = statistics.median(ratios)
        print(f"bench_diff: calibration scale {scale:.3f} "
              f"(median current/baseline over {len(ratios)} of "
              f"{len(shared)} shared benchmarks)",
              file=out)

    regressed = []
    for name in shared:
        base = baseline[name] * scale
        cur = current[name]
        if base <= 0:
            # No meaningful ratio against a zero baseline: report it but
            # never gate on it (mirrors the new/retired policy).
            print(f"  {name:<50} (zero baseline, not gated)", file=out)
            continue
        ratio = cur / base
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSED"
            regressed.append(name)
        elif hit_rates.get(name, 0.0) >= 1.0:
            status = "WARM (cache_hit_rate 1: times a warm cache)"
            regressed.append(name)
        print(f"  {name:<50} {base:10.3f} -> {cur:10.3f}  "
              f"({(ratio - 1.0) * 100.0:+6.1f}%)  {status}", file=out)

    for name in sorted(set(current) - set(baseline)):
        print(f"  {name:<50} (new, not gated)", file=out)
    for name in sorted(set(baseline) - set(current)):
        print(f"  {name:<50} (retired, not gated)", file=out)
    return regressed


def self_test():
    names = [f"BM_Synthetic/{i}" for i in range(8)]
    baseline = {n: 100.0 + 10.0 * i for i, n in enumerate(names)}

    import io

    # (a) One benchmark 25% slower must trip the 20% gate.
    regression = dict(baseline)
    regression[names[3]] *= 1.25
    for calibrate in (False, True):
        bad = compare(baseline, regression, 0.20, calibrate, out=io.StringIO())
        assert bad == [names[3]], (calibrate, bad)

    # (b) A uniformly 2x slower machine passes with --calibrate and would
    # (correctly, for a same-machine comparison) fail without it.
    slow = {n: t * 2.0 for n, t in baseline.items()}
    assert compare(baseline, slow, 0.20, True, out=io.StringIO()) == []
    assert len(compare(baseline, slow, 0.20, False, out=io.StringIO())) == len(names)

    # (c) 25% regression still caught on the 2x-slower machine under
    # calibration.
    slow_regressed = dict(slow)
    slow_regressed[names[5]] *= 1.25
    bad = compare(baseline, slow_regressed, 0.20, True, out=io.StringIO())
    assert bad == [names[5]], bad

    # (d) Within-threshold noise passes.
    noisy = {n: t * (1.0 + 0.02 * (i % 5)) for i, (n, t) in
             enumerate(baseline.items())}
    assert compare(baseline, noisy, 0.20, False, out=io.StringIO()) == []

    # (e) Zero baseline times: a single zero-baseline benchmark is
    # reported but never gates (no infinite-regression false positive),
    # while an all-zero baseline makes --calibrate fail with a clear
    # CalibrationError instead of a StatisticsError traceback.
    one_zero = dict(baseline)
    one_zero[names[2]] = 0.0
    assert compare(one_zero, baseline, 0.20, False, out=io.StringIO()) == []
    assert compare(one_zero, baseline, 0.20, True, out=io.StringIO()) == []
    all_zero = {n: 0.0 for n in names}
    try:
        compare(all_zero, baseline, 0.20, True, out=io.StringIO())
    except CalibrationError:
        pass
    else:
        raise AssertionError("all-zero baseline must fail calibration")

    # (f) Repetitions: the median of three runs is the time, so one
    # outlier neither trips the gate nor hides among the aggregates.
    def run(name, t, kind="iteration"):
        return {"name": name, "run_type": kind, "real_time": t}
    reps = {"benchmarks": [run("BM_Rep/1", 100.0), run("BM_Rep/1", 104.0),
                           run("BM_Rep/1", 400.0),
                           run("BM_Rep/1_mean", 201.3, "aggregate"),
                           run("BM_Rep/1_median", 104.0, "aggregate"),
                           run("BM_Once/1", 50.0)]}
    times = times_of(reps)
    assert times == {"BM_Rep/1": 104.0, "BM_Once/1": 50.0}, times
    assert compare({"BM_Rep/1": 100.0, "BM_Once/1": 50.0}, times, 0.20,
                   False, out=io.StringIO()) == []

    # (g) A gated rung whose every cache lookup hit times a warm cache and
    # fails, however fast; a partial hit rate, or a warm rung that is not
    # gated (absent from the baseline), passes.
    def counted(name, t, rate):
        return {"name": name, "run_type": "iteration", "real_time": t,
                "cache_hit_rate": rate}
    warm = {"benchmarks": [counted("BM_Cold/1", 100.0, 0.6),
                           counted("BM_Warm/1", 100.0, 1.0),
                           counted("BM_New/1", 10.0, 1.0)]}
    rates = hit_rates_of(warm)
    assert rates == {"BM_Cold/1": 0.6, "BM_Warm/1": 1.0, "BM_New/1": 1.0}
    base = {"BM_Cold/1": 100.0, "BM_Warm/1": 100.0}
    for calibrate in (False, True):
        bad = compare(base, times_of(warm), 0.20, calibrate,
                      out=io.StringIO(), hit_rates=rates)
        assert bad == ["BM_Warm/1"], (calibrate, bad)
    fast = dict(times_of(warm), **{"BM_Warm/1": 10.0})
    assert compare(base, fast, 0.20, False, out=io.StringIO(),
                   hit_rates=rates) == ["BM_Warm/1"]
    rates["BM_Warm/1"] = 0.99
    assert compare(base, times_of(warm), 0.20, False, out=io.StringIO(),
                   hit_rates=rates) == []

    print("bench_diff: self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", nargs="?", help="baseline benchmark JSON")
    ap.add_argument("current", nargs="?", help="current benchmark JSON")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="fractional regression that fails the gate "
                         "(default 0.20 = 20%%)")
    ap.add_argument("--calibrate", action="store_true",
                    help="rescale baseline by the median current/baseline "
                         "ratio (cross-machine comparison)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in unit test and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("baseline and current JSON files are required")

    baseline, _ = load(args.baseline)
    current, hit_rates = load(args.current)
    try:
        regressed = compare(baseline, current, args.threshold,
                            args.calibrate, hit_rates=hit_rates)
    except CalibrationError as e:
        print(f"bench_diff: ERROR -- {e}", file=sys.stderr)
        return 2
    if regressed:
        print(f"bench_diff: FAIL -- {len(regressed)} benchmark(s) regressed "
              f"more than {args.threshold * 100:.0f}% or timed a warm "
              f"cache: {', '.join(regressed)}")
        print("bench_diff: if intentional, apply the 'perf-regression-ok' "
              "label to the PR and justify it in the description")
        return 1
    print("bench_diff: PASS -- no benchmark regressed more than "
          f"{args.threshold * 100:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
