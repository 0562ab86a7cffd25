#!/usr/bin/env python3
"""Pins tools/ab_pairs.py's statistics on fixed samples."""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_pairs  # noqa: E402


def run(ops, cpu_ratio=1.0):
    return {"ops_per_s": ops, "cpu_ratio": cpu_ratio}


def pair(base, head, base_cpu=1.0, head_cpu=1.0):
    return {"base": run(base, base_cpu), "head": run(head, head_cpu)}


class Statistics(unittest.TestCase):
    def test_spread_is_the_benchmarks_own(self):
        # bench/e2e/run.py's quartiles: statistics.quantiles, exclusive method.
        s = ab_pairs.summarize([pair(b, 2 * b) for b in (5, 1, 4, 2, 3)])
        self.assertEqual(s["base_ops_per_s"], {"median": 3, "p25_p75": [1.5, 4.5]})
        self.assertEqual(s["head_ops_per_s"], {"median": 6, "p25_p75": [3.0, 9.0]})
        self.assertEqual(ab_pairs.e2e.WORKLOADS,
                         ["lookup_8k", "sharded_churn", "sharded_open_25", "tc_paper"])
        row = {"reps": [{"ops": 1000, "wall_s": 0.5}, {"ops": 1000, "wall_s": 0.25}],
               "setup_s": {"median": 1e-6}, "peak_rss_mb": 3.0,
               "sim": {"cycles": 20, "ops": 10, "latency_p50": 8, "latency_p99": 9}}
        self.assertEqual(ab_pairs.e2e.e2e_metrics(row)["ops_per_s"], 4000)  # the fastest rep

    def test_bootstrap_is_seeded_and_brackets_the_median(self):
        xs = [1.21, 1.25, 1.19, 1.30, 1.24, 1.22, 1.27, 1.18]
        lo, hi = ab_pairs.bootstrap_ci(xs)
        self.assertEqual((lo, hi), ab_pairs.bootstrap_ci(xs))
        self.assertLessEqual(lo, statistics.median(xs))
        self.assertGreaterEqual(hi, statistics.median(xs))
        self.assertGreaterEqual(lo, min(xs))
        self.assertLessEqual(hi, max(xs))
        # A constant sample has a zero-width interval.
        self.assertEqual(ab_pairs.bootstrap_ci([1.5] * 6), (1.5, 1.5))

    def test_faster_pairs(self):
        pairs = [pair(100, h) for h in (121, 125, 119, 130, 124, 122, 127, 118)]
        s = ab_pairs.summarize(pairs)
        self.assertEqual(s["kept"], 8)
        self.assertEqual(s["dropped"], 0)
        self.assertAlmostEqual(s["median_ratio"], 1.23)
        self.assertEqual(s["head_wins"], 8)
        self.assertEqual(s["head_losses"], 0)
        self.assertGreater(s["ci95"][0], 1)
        self.assertEqual(s["verdict"], "faster")
        self.assertTrue(s["gain_shown"])
        self.assertEqual(s["base_ops_per_s"]["median"], 100)

    def test_gain_rule_needs_nine_wins_in_ten_and_a_gap_beyond_the_base_spread(self):
        # Ten wins, but base's p25..p75 (90..110) is wider than the median gap.
        wide = [pair(b, b + 15) for b in (80, 85, 90, 95, 100, 100, 105, 110, 115, 120)]
        s = ab_pairs.summarize(wide)
        self.assertEqual(s["head_wins"], 10)
        self.assertEqual(s["verdict"], "faster")
        self.assertFalse(s["gain_shown"])
        # A tight base and a clear gap, but only eight wins in ten.
        eight = [pair(100, h) for h in (130, 131, 132, 133, 134, 135, 136, 137, 99, 98)]
        s = ab_pairs.summarize(eight)
        self.assertEqual(s["head_wins"], 8)
        self.assertFalse(s["gain_shown"])
        # Nine in ten with the same gap is shown.
        nine = [pair(100, h) for h in (130, 131, 132, 133, 134, 135, 136, 137, 138, 98)]
        self.assertTrue(ab_pairs.summarize(nine)["gain_shown"])

    def test_descheduled_pairs_are_dropped(self):
        self.assertEqual(ab_pairs.MIN_CPU_RATIO, 0.95)
        pairs = [pair(100, 80), pair(100, 120, head_cpu=0.5), pair(100, 90, base_cpu=0.94),
                 pair(100, 81), pair(100, 79)]
        s = ab_pairs.summarize(pairs)
        self.assertEqual((s["kept"], s["dropped"]), (3, 2))
        self.assertAlmostEqual(s["median_ratio"], 0.80)
        self.assertEqual(s["head_losses"], 3)
        self.assertEqual(s["verdict"], "slower")
        self.assertFalse(s["gain_shown"])
        none = ab_pairs.summarize([pair(1, 2, 0.1)])
        self.assertEqual((none["verdict"], none["gain_shown"]), ("unresolved", False))

    def test_mixed_pairs_are_unresolved(self):
        pairs = [pair(100, h) for h in (104, 97, 101, 99, 103, 96, 100)]
        s = ab_pairs.summarize(pairs)
        self.assertEqual(s["head_wins"], 3)
        self.assertEqual(s["head_losses"], 3)  # the tie counts for neither side
        self.assertLessEqual(s["ci95"][0], 1)
        self.assertGreaterEqual(s["ci95"][1], 1)
        self.assertEqual(s["verdict"], "unresolved")
        self.assertFalse(s["gain_shown"])


if __name__ == "__main__":
    unittest.main()
