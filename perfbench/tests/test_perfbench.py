"""Tests of the campaign benchmark itself.

Run from the root of the repository (they build perfbench.exe with dune
first, into .bench_build/):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = 300


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tiny_campaign(workload, **kw):
    return run.campaign(workload, run.PANEL[0], iterations=TINY, **kw)


class InRoot(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._cwd = os.getcwd()
        os.chdir(ROOT)
        run.build()
        os.makedirs(run.WORK_DIR, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        os.chdir(cls._cwd)


class MetricNames(unittest.TestCase):
    def test_names_use_the_allowed_characters(self):
        bench = load_benchmark()
        names = [m["name"] for k in ("end_to_end", "per_layer") for m in bench[k]]
        names += [w["name"] for w in bench["workloads"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_what_run_py_prints(self):
        bench = load_benchmark()
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(max(m["bound"] for m in bench["end_to_end"]),
                         setup[0]["bound"])


class Campaigns(InRoot):
    def test_each_workload_completes_at_a_tiny_size(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                r = tiny_campaign(w)
                self.assertEqual(r["attempted"], TINY)
                self.assertEqual(r["executed"] + r["cache_hits"], TINY)
                self.assertEqual(r["op_failures"], 0)
                self.assertGreater(r["session_s"], 0.0)
                self.assertGreater(r["setup_s"], 0.0)
                self.assertGreater(r["calib_before_s"], 0.0)
                self.assertGreater(r["calib_after_s"], 0.0)
                self.assertEqual(r["observer"], True)

    def test_traced_and_untraced_histories_are_equal(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                untraced = tiny_campaign(w)
                traced = tiny_campaign(w, trace=True)
                for k in ("digest", "executed", "cache_hits", "crash_clusters",
                          "failure_clusters"):
                    self.assertEqual(untraced[k], traced[k], k)
                self.assertEqual(set(traced["layers"]),
                                 {n for n in run.PER_LAYER_UNITS
                                  if not n.startswith("self.")
                                  and n not in ("trace.wall_s",
                                                "trace.overhead_share")})

    def test_the_observer_leaves_the_history_unchanged(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                watched = tiny_campaign(w)
                unwatched = tiny_campaign(w, observer=False)
                self.assertEqual(watched["digest"], unwatched["digest"])
                self.assertEqual(unwatched["ttfv_s"], None)

    def test_per_layer_self_times_account_for_the_wall_time(self):
        r = tiny_campaign("apache-saturated", trace=True)
        self.assertAlmostEqual(sum(r["self_s"].values()), r["session_s"], places=6)

    def test_a_failed_check_raises(self):
        # 300 tests are too few for the panel to reach the planted bug.
        per_seed, checks = run.run_campaigns("replsim-fleet", 1, 0, False,
                                             iterations=TINY, min_passes=1)
        with self.assertRaisesRegex(run.CheckFailed, "planted bug"):
            run.check("replsim-fleet", per_seed, checks)


class Output(InRoot):
    def bench(self, cwd, *args):
        return subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd)

    def test_untraced_output_parses(self):
        p = self.bench(ROOT, "--workload", "apache-saturated", "--seed", "1",
                       "--seconds", "0", "--trace", "0")
        self.assertEqual(p.returncode, 0, p.stderr.decode())
        out = json.loads(p.stdout.decode().strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(out["correct"], True)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(list(out["metrics"]), [n for n, _ in run.END_TO_END])
        for name, unit in run.END_TO_END:
            self.assertEqual(out["metrics"][name]["unit"], unit)
            self.assertGreater(out["metrics"][name]["value"], 0)

    def test_without_the_repository_it_exits_non_zero_without_a_result(self):
        bare = os.path.join(ROOT, run.WORK_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            p = self.bench(bare, "--workload", "apache-saturated", "--seed",
                           "1", "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.decode().strip(), "")


if __name__ == "__main__":
    unittest.main()
