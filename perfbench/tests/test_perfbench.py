"""Self-tests of the perfbench benchmark.

    python3 -m unittest discover -s perfbench/tests

Builds cai-serve and pbtool the way perfbench/run.py does (first run
takes about a minute), then checks that

  * one seed gives a byte-identical request stream, and another seed a
    different one;
  * the tail-percentile helper always leaves at least 10 samples beyond
    the value it reports;
  * the speed factor of a request is the median of the yardstick slices
    nearest to it;
  * on a sample of each workload the traced and untraced in-process
    replays agree on every answer, AnalyzerStats, LatticeStats and
    registry counter (pbtool replay compares them; the test re-checks the
    memo and node-update counts);
  * a seed held out from tuning runs clean end to end on every workload.
"""

import filecmp
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("tracks", "loops", "session")
STREAM_FILES = ("requests.jsonl", "warmup.jsonl", "history.jsonl",
                "plan.json")


def build_dir():
    return os.path.join(run.ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.serve, cls.pbtool, _ = run.build(build_dir())
        cls.tmp = tempfile.TemporaryDirectory(dir=build_dir())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def gen(self, workload, seed, count, segments=2):
        out = tempfile.mkdtemp(dir=self.tmp.name)
        subprocess.run([self.pbtool, "gen", "--workload", workload, "--seed",
                        str(seed), "--count", str(count), "--warmup", "2",
                        "--segments", str(segments), "--out", out],
                       check=True)
        return out

    def test_same_seed_gives_identical_stream(self):
        for w in WORKLOADS:
            a, b = self.gen(w, 7, 60), self.gen(w, 7, 60)
            for name in STREAM_FILES:
                self.assertTrue(
                    filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                                shallow=False), "%s/%s differs" % (w, name))
            c = self.gen(w, 8, 60)
            self.assertFalse(
                filecmp.cmp(os.path.join(a, "requests.jsonl"),
                            os.path.join(c, "requests.jsonl"), shallow=False),
                "%s: seeds 7 and 8 gave the same requests" % w)

    def test_tail_leaves_ten_samples_beyond(self):
        rng = random.Random(1)
        for trial in range(2000):
            n = rng.randint(11, 3000)
            shape = trial % 3
            if shape == 0:    # Heavy tail.
                xs = [rng.paretovariate(1.2) for _ in range(n)]
            elif shape == 1:  # Many ties.
                xs = [float(rng.randint(0, 5)) for _ in range(n)]
            else:             # Two clusters.
                xs = [rng.choice((1.0, 40.0)) + rng.random() for _ in range(n)]
            try:
                q, value, beyond = run.tail_percentile(xs)
            except ValueError:
                # Justified only if even the lowest rung, the median, has
                # fewer than 10 samples beyond it.
                median = sorted(xs)[math.ceil(n / 2) - 1]
                self.assertLess(sum(1 for x in xs if x > median), 10)
                continue
            self.assertIn(value, xs)
            self.assertEqual(beyond, sum(1 for x in xs if x > value))
            self.assertGreaterEqual(beyond, 10, (n, q))
        with self.assertRaises(ValueError):
            run.tail_percentile([1.0] * 50)

    def test_speed_factor_uses_nearest_slices(self):
        ref = run.YARDSTICK_REF_NS
        # A steady yardstick at the reference speed scales nothing.
        steady = [[b, ref] for b in range(0, 100, 5)]
        self.assertEqual(run.speed_factors(steady, 100), [1.0] * 100)
        # The host halves its speed for requests 50-99: their slices take
        # twice as long, and the requests' times are halved back, except
        # near the switch, where the window of 9 slices straddles it.
        slices = [[b, ref if b < 50 else 2 * ref] for b in range(0, 100, 5)]
        factors = run.speed_factors(slices, 100)
        self.assertEqual(factors[:30], [1.0] * 30)
        self.assertEqual(factors[75:], [0.5] * 25)
        # One slow outlier slice does not move the median of its window.
        slices = [[b, 7 * ref if b == 40 else ref] for b in range(0, 100, 5)]
        self.assertEqual(run.speed_factors(slices, 100), [1.0] * 100)

    def test_traced_replay_matches_untraced(self):
        for w, count in (("tracks", 12), ("loops", 150), ("session", 300)):
            d = self.gen(w, 3, count)
            args = ["replay", "--warmup", os.path.join(d, "warmup.jsonl"),
                    "--requests", os.path.join(d, "requests.jsonl"),
                    "--segments", "2",
                    "--answers", os.path.join(d, "answers.jsonl"),
                    "--trace-out", os.path.join(d, "trace.json"),
                    "--out", os.path.join(d, "replay.json")]
            if w == "session":
                store, problems = run.fill_store(self.serve, d)
                self.assertEqual(problems, [])
                args += ["--persist-dir", store, "--work", d]
            rc = subprocess.run([self.pbtool] + args).returncode
            out = run.read_json(os.path.join(d, "replay.json"))
            self.assertEqual(rc, 0, w)
            self.assertTrue(out["same"], w)
            for key in ("memo_hits", "memo_misses", "lattice_memo_hits",
                        "lattice_memo_misses", "node_updates", "joins"):
                self.assertEqual(out["traced"][key], out["untraced"][key],
                                 "%s: %s" % (w, key))
            self.assertGreater(out["traced"]["memo_hits"], 0, w)
            with open(os.path.join(d, "trace.json")) as f:
                events = json.load(f)["traceEvents"]
            self.assertTrue(any(e["name"] == "Analyzer::run" for e in events))

    def test_held_out_seed_runs_clean(self):
        for w in WORKLOADS:
            r = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                 w, "--seed", "90001", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True)
            self.assertEqual(r.returncode, 0, r.stderr[-2000:])
            result = json.loads(r.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"], w)
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0, w)


if __name__ == "__main__":
    unittest.main()
