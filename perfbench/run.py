#!/usr/bin/env python3
"""perfbench: cai-serve end to end, and layer by layer.

    python3 perfbench/run.py --workload tracks|loops|session --seed N \
        --seconds S --trace 0|1

Builds cai-serve and the pbtool helper from this checkout (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), generates the workload's request
stream from the seed, and then

  --trace 0  drives cai-serve over stdio with one closed-loop client and
             prints the end-to-end metrics;
  --trace 1  replays the same requests in-process, untraced and traced
             (layer timers and spans), and prints the per-layer metrics.

End-to-end times are reported at a fixed reference speed: the client runs
a speed yardstick between requests on the CPU it shares with the server,
and each time is scaled by the yardstick slices taken around it, which
divides the host's speed drift out.

Either way every answer is checked (perfbench/tool/Verify.cpp), the cache
counts are compared with the seeded plan, and the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 only when every check passed; a failed build exits 2 without a
result line.  Per-request rows, the server log, the Chrome trace and the
raw tool outputs stay in <build>/runs/<workload>-<seed>-<trace>/.

The request count is a fixed rate times --seconds, so a seed always gives
the same requests and the run lasts about --seconds on the reference VM;
see perfbench/NOTES.md for the workloads, metrics and steadiness record.
"""

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Timed requests per --seconds, measured on the reference VM (4 vCPU).
RATES = {"tracks": 35, "loops": 550, "session": 2000}
# Server lifetimes per run, each serving its share of the requests; the
# median lifetime's VmHWM is peak_rss_mb.  loops has the heaviest memory
# tail; session keeps few lifetimes because each restart empties the
# snapshot tier.
LIFETIMES = {"tracks": 5, "loops": 40, "session": 5}
WARMUP = 2       # Untimed warm-up requests per lifetime (a disjoint seed).
LAUNCHES = 15    # Set-up samples per run; setup_s is their median.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
# A yardstick slice time (perfbench/yardstick) typical of the
# reference VM, in ns.  Times are reported as if every slice had taken this
# long: each is multiplied by this over the median of the SLICE_WINDOW
# slices taken nearest to it.
YARDSTICK_REF_NS = 3.0e6
SLICE_WINDOW = 9


def tail_percentile(samples):
    """The highest ladder percentile with at least 10 samples strictly
    beyond its value: returns (percentile, value, samples_beyond)."""
    s = sorted(samples)
    n = len(s)
    for q in TAIL_LADDER:
        k = max(0, min(n - 1, math.ceil(q / 100.0 * n) - 1))
        beyond = n - bisect.bisect_right(s, s[k])
        if beyond >= 10:
            return q, s[k], beyond
    raise ValueError("no percentile leaves 10 samples beyond it (n=%d)" % n)


def speed_factors(slices, n):
    """For each of n timed requests, YARDSTICK_REF_NS over the median of
    the SLICE_WINDOW yardstick slices nearest to it; slices are
    [timed requests before the slice, ns] in the order taken."""
    before = [b for b, _ in slices]
    ns = [v for _, v in slices]
    factors, memo = [], {}
    for i in range(n):
        j = bisect.bisect_right(before, i)  # Slices taken before request i.
        lo = max(0, min(j - SLICE_WINDOW // 2, len(ns) - SLICE_WINDOW))
        if lo not in memo:
            memo[lo] = YARDSTICK_REF_NS / statistics.median(
                ns[lo:lo + SLICE_WINDOW])
        factors.append(memo[lo])
    return factors


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds cai-serve, pbtool and the yardstick; exits 2
    on failure."""
    os.makedirs(build_dir, exist_ok=True)
    out = os.path.join(build_dir, "build.log")
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "cai-serve",
              "pbtool", "yardstick", "-j", "4"]]
    with open(out, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                with open(out) as g:
                    sys.stderr.write(g.read()[-4000:])
                log("build failed: " + " ".join(cmd))
                sys.exit(2)
    return (os.path.join(build_dir, "cai", "tools", "cai-serve"),
            os.path.join(build_dir, "pbtool"),
            os.path.join(build_dir, "yardstick"))


def tool(pbtool, *args):
    """Runs one pbtool subcommand; returns its exit code."""
    return subprocess.run([pbtool] + list(args)).returncode


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_lines(path):
    with open(path) as f:
        return [l for l in f.read().splitlines() if l]


def fill_store(serve, work):
    """Runs the session history through cai-serve into a fresh persist
    store (untimed).  Returns (store path, problems)."""
    store = os.path.join(work, "store")
    history = read_lines(os.path.join(work, "history.jsonl"))
    feed = "\n".join(history + ['{"cmd":"shutdown"}']) + "\n"
    r = subprocess.run([serve, "--persist-dir=" + store], input=feed,
                       capture_output=True, text=True)
    answers = [json.loads(l) for l in r.stdout.splitlines() if l]
    bad = [a for a in answers
           if a.get("status") not in ("verified", "assertions-failed")]
    problems = []
    if r.returncode != 0 or len(answers) != len(history) or bad:
        problems.append("history did not fill the store cleanly "
                        "(exit %d, %d answers, %d bad)"
                        % (r.returncode, len(answers), len(bad)))
    return store, problems


def plan_guards(workload, expect, seen):
    """Compares observed cache counters with the seeded plan."""
    keys = (["cache_hits", "cache_misses"] if workload != "session" else
            ["cache_hits", "cache_misses", "snapshot_hits", "snapshot_misses",
             "edits", "fallbacks", "replayed", "persist_appends"])
    return ["%s: observed %s, plan %s" % (k, seen.get(k), expect[k])
            for k in keys if seen.get(k) != expect[k]]


def server_counts(stats):
    """The plan-relevant counters of cai-serve's stats line."""
    cache = stats.get("cache", {})
    snap = stats.get("snapshot_cache", {})
    inc = stats.get("incremental", {})
    persist = stats.get("persist", {})
    return {"cache_hits": cache.get("hits"),
            "cache_misses": cache.get("misses"),
            "snapshot_hits": snap.get("hits"),
            "snapshot_misses": snap.get("misses"),
            "edits": inc.get("edits"),
            "fallbacks": inc.get("fallbacks"),
            "replayed": persist.get("replayed"),
            "persist_appends": persist.get("appends")}


def end_to_end(args, serve, pbtool, yardstick, work, store, problems):
    f = lambda name: os.path.join(work, name)
    drive = ["drive", "--serve", serve, "--yardstick", yardstick,
             "--warmup", f("warmup.jsonl"),
             "--requests", f("requests.jsonl"),
             "--segments", str(LIFETIMES[args.workload]),
             "--launches", str(LAUNCHES), "--latencies", f("latencies.txt"),
             "--answers", f("answers.jsonl"), "--summary", f("summary.json"),
             "--server-log", f("server.log")]
    if store:
        drive += ["--persist-dir", store]
    if tool(pbtool, *drive) != 0:
        problems.append("drive failed (see server.log)")
        return None
    summary = read_json(f("summary.json"))
    raw_ms = [int(l) / 1e6 for l in read_lines(f("latencies.txt"))]
    speed = speed_factors(summary["slices"], len(raw_ms))
    lat_ms = [ms * k for ms, k in zip(raw_ms, speed)]
    check = verify(args, pbtool, work, "answers.jsonl", problems)
    plan = read_json(f("plan.json"))
    lives = summary["lifetimes"]
    for k, (life, expect) in enumerate(zip(lives, plan["lifetimes"])):
        problems += ["server lifetime %d: %s" % (k, p) for p in plan_guards(
            args.workload, expect, server_counts(life["stats"]))]

    q, tail_ms, beyond = tail_percentile(lat_ms)
    log("latency tail is p%g over %d requests (%d beyond it)"
        % (q, len(lat_ms), beyond))
    write_rows(work, plan["kinds"], raw_ms, speed, check)
    n = len(lat_ms)
    # Each lifetime's wall time, scaled by the latency-weighted mean speed
    # factor of its requests.
    wall_s, at = 0.0, 0
    for life in lives:
        k = at + life["requests"]
        wall_s += (life["wall_ns"] / 1e9 * sum(lat_ms[at:k])
                   / sum(raw_ms[at:k]))
        at = k
    setup_speed = YARDSTICK_REF_NS / statistics.median(
        summary["setup_slices_ns"])
    log("speed factor median %.4f (requests), %.4f (set-up); unscaled p50 "
        "%.6g ms, setup %.6g s" % (statistics.median(speed), setup_speed,
                                   statistics.median(raw_ms),
                                   statistics.median(summary["setup_ns"])
                                   / 1e9))
    return {
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_tail": tail_ms,
        "throughput_per_s": n / wall_s,
        "verified_frac": check["verified"] / max(1, check["assertions"]),
        "ok_frac": (n - check["failed"]) / n,
        "peak_rss_mb": statistics.median(l["peak_rss_kb"] for l in lives)
                       / 1024.0,
        "setup_s": statistics.median(summary["setup_ns"]) / 1e9
                   * setup_speed,
    }, check


def write_rows(work, kinds, raw_ms, speed, check):
    """One row per timed request: kind, measured latency, speed factor,
    verdict tallies, pass."""
    answers = read_lines(os.path.join(work, "answers.jsonl"))
    with open(os.path.join(work, "rows.jsonl"), "w") as out:
        for i, (kind, ms, k, ok) in enumerate(
                zip(kinds, raw_ms, speed, check["ok"])):
            a = json.loads(answers[i]) if i < len(answers) else {}
            out.write(json.dumps({
                "i": i, "kind": kind, "latency_ms": ms, "speed_factor": k,
                "status": a.get("status"), "cached": a.get("cached"),
                "verified": a.get("verified"),
                "assertions": len(a.get("assertions", [])), "ok": ok}) + "\n")


def verify(args, pbtool, work, answers, problems):
    f = lambda name: os.path.join(work, name)
    rc = tool(pbtool, "verify", "--workload", args.workload, "--seed",
              str(args.seed), "--requests", f("requests.jsonl"),
              "--answers", f(answers), "--out", f("verify.json"))
    if rc not in (0, 1):
        problems.append("verify crashed")
        n = len(read_lines(f("requests.jsonl")))
        return {"ok": [False] * n, "failed": n, "failures": [],
                "assertions": 0, "verified": 0}
    check = read_json(f("verify.json"))
    for fail in check["failures"]:
        problems.append("request %d: %s" % (fail["request"], fail["why"]))
    return check


def per_layer(args, pbtool, work, store, problems):
    f = lambda name: os.path.join(work, name)
    replay = ["replay", "--warmup", f("warmup.jsonl"),
              "--requests", f("requests.jsonl"),
              "--segments", str(LIFETIMES[args.workload]), "--answers",
              f("replay-answers.jsonl"), "--trace-out", f("trace.json"),
              "--out", f("replay.json")]
    if store:
        replay += ["--persist-dir", store, "--work", work]
    rc = tool(pbtool, *replay)
    if not os.path.exists(f("replay.json")):
        problems.append("replay crashed")
        return None
    out = read_json(f("replay.json"))
    if rc != 0 or not out["same"]:
        problems.append("traced and untraced replays disagree")
    check = verify(args, pbtool, work, "replay-answers.jsonl", problems)
    plan = read_json(f("plan.json"))
    problems += plan_guards(args.workload, plan["timed"], out["traced"])
    return out["metrics"], check


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    serve, pbtool, yardstick = build(build_dir)

    work = os.path.join(build_dir, "runs", "%s-%d-%d"
                        % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    count = max(100, round(args.seconds * RATES[args.workload]))
    if tool(pbtool, "gen", "--workload", args.workload, "--seed",
            str(args.seed), "--count", str(count), "--warmup", str(WARMUP),
            "--segments", str(LIFETIMES[args.workload]), "--out", work) != 0:
        log("request generation failed")
        sys.exit(2)

    problems = []
    store = None
    if args.workload == "session":
        store, problems = fill_store(serve, work)
    if args.trace == 0:
        result = end_to_end(args, serve, pbtool, yardstick, work, store,
                            problems)
        wanted = spec["end_to_end"]
    else:
        result = per_layer(args, pbtool, work, store, problems)
        wanted = spec["per_layer"]
    if result is None:
        print(json.dumps({"correct": False, "attempted": count,
                          "failed": count, "metrics": {}}))
        sys.exit(1)
    values, check = result
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for p in problems:
        log("FAILED " + p)
    print(json.dumps({"correct": not problems, "attempted": count,
                      "failed": check["failed"], "metrics": metrics}))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
