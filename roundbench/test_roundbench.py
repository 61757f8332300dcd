"""Tests of the round-cost benchmark itself.

    python3 -m unittest discover -s roundbench -p 'test_*.py'

The binary tests build roundbench (like run.py) and run short trajectories
of every workload, so they take about two minutes on a 4-core host.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402

SIMULATED = ("final_accuracy", "virtual_s_per_round", "upload_mb_per_round",
             "update_delivered_share", "virtual_s_to_target",
             "accuracy_curve", "virtual_time_curve")


class TailRuleTest(unittest.TestCase):
    def test_highest_grid_percentile_with_ten_beyond(self):
        cases = {20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0, 100: 90.0,
                 200: 95.0, 1000: 99.0, 10000: 99.9}
        for n, expected in cases.items():
            q, _, beyond = metrics.tail(list(range(n)))
            self.assertEqual(q, expected, n)
            self.assertGreaterEqual(beyond, metrics.TAIL_BEYOND, n)

    def test_nearest_rank_value_and_count(self):
        q, value, beyond = metrics.tail([float(i) for i in range(40, 0, -1)])
        self.assertEqual((q, value, beyond), (75.0, 30.0, 10))

    def test_short_run_falls_back_to_median_with_its_count(self):
        q, value, beyond = metrics.tail([3.0, 1.0, 2.0, 5.0, 4.0])
        self.assertEqual((q, value, beyond), (50.0, 3.0, 2))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.tail([])


class MetricTableTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_match_pattern_and_carry_units(self):
        for table in (metrics.END_TO_END, metrics.PER_LAYER):
            for name, spec in table.items():
                self.assertRegex(name, metrics.NAME_RE, name)
                self.assertRegex(spec[0], metrics.UNIT_RE, name)
                self.assertIn(spec[1], ("lower", "higher"), name)

    def test_benchmark_json_matches_tables(self):
        for key, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
            declared = [(m["name"], m["unit"], m["better"])
                        for m in self.bench[key]]
            self.assertEqual(declared,
                             [(n, s[0], s[1]) for n, s in table.items()])
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_per_layer_metric_names_what_it_moves(self):
        for name, (_, _, moves, workload) in metrics.PER_LAYER.items():
            self.assertTrue(moves and workload, name)


class BinaryTest(unittest.TestCase):
    """Short trajectories of every workload through the built binary."""

    @classmethod
    def setUpClass(cls):
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                    or os.path.join(ROOT, ".bench_build"))
        cls.binary = run.build(build_dir)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.workloads = [w["name"] for w in json.load(f)["workloads"]]

    def timed(self, workload, seed, threads):
        rounds = "2" if workload == "tree32k" else "4"
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", "0", "--threads", str(threads),
             "--rounds", rounds],
            stdout=subprocess.PIPE, text=True)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(raw["env"]["pool_threads"], threads)
        return raw["result"]

    def test_seed_fixes_inputs_and_simulated_metrics(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                one = self.timed(workload, 7, threads=1)
                two = self.timed(workload, 7, threads=2)
                self.assertEqual(one["input_digest"], two["input_digest"])
                for key in SIMULATED:
                    self.assertEqual(one[key], two[key], key)
                other = self.timed(workload, 8, threads=2)
                self.assertNotEqual(one["input_digest"],
                                    other["input_digest"])

    def test_refuses_pool_larger_than_nproc(self):
        proc = subprocess.run(
            [self.binary, "--workload", self.workloads[0], "--seed", "1",
             "--seconds", "0", "--trace", "0",
             "--threads", str((os.cpu_count() or 1) + 1)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
