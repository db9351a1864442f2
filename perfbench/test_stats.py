"""Tests of the benchmark's own statistics and output checks.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_samples_needed(self):
        self.assertEqual(stats.samples_needed(0.90), 100)
        self.assertEqual(stats.samples_needed(0.99), 1000)
        self.assertEqual(stats.samples_needed(0.50), 20)

    def test_refuses_without_ten_samples_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.tail_percentile(list(range(99)), 0.90)
        with self.assertRaises(stats.TooFewSamples):
            stats.tail_percentile(list(range(999)), 0.99)

    def test_reports_at_the_threshold(self):
        values = list(range(100))  # 0..99
        self.assertAlmostEqual(stats.tail_percentile(values, 0.90), 89.1)
        self.assertEqual(sum(v > 89.1 for v in values), 10)

    def test_interpolates_and_ignores_input_order(self):
        values = [float(v) for v in range(1000, 0, -1)]  # 1000..1
        self.assertAlmostEqual(stats.tail_percentile(values, 0.99), 990.01)

    def test_grouped_pools_whole_groups_up_to_the_rule(self):
        # p90 needs 100 samples: groups of 60 pool in pairs, the odd last
        # group joins the final pool.
        groups = [[float(g)] * 60 for g in range(5)]
        pools = [[0.0] * 60 + [1.0] * 60, [2.0] * 60 + [3.0] * 60,
                 [4.0] * 60]
        expected = stats.median([stats.tail_percentile(pools[0], 0.9),
                                 stats.tail_percentile(
                                     pools[1] + pools[2], 0.9)])
        self.assertEqual(stats.grouped_percentile(groups, 0.9), expected)
        with self.assertRaises(stats.TooFewSamples):
            stats.grouped_percentile([[1.0] * 50, [2.0] * 49], 0.9)

    def test_median_needs_a_sample(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.median([])
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)


class FailureCounting(unittest.TestCase):
    def test_counts_failed_against_attempted(self):
        self.assertEqual(stats.failure_share([True, False, True, False]),
                         (4, 2))
        self.assertEqual(stats.failure_share([]), (0, 0))

    def test_wedge_tolerances(self):
        good = {"shock_valid": True, "shock_angle_deg": 44.9,
                "density_ratio": 3.71}
        off_angle = dict(good, shock_angle_deg=47.0)
        off_ratio = dict(good, density_ratio=3.2)
        no_fit = dict(good, shock_valid=False)
        raw = {"outputs": [good, off_angle, off_ratio, no_fit, good]}
        self.assertEqual(run.judge("wedge-tunnel", raw), (5, 3))

    def test_axisymmetric_checks(self):
        raw = {"outputs": [{"cd": 1.07, "cl": 0.0},
                           {"cd": 1.07, "cl": 1e-300},
                           {"cd": None, "cl": 0.0},
                           {"cd": -0.1, "cl": 0.0}]}
        self.assertEqual(run.judge("axi-biconic", raw), (4, 3))

    def test_biconic_cd_band(self):
        # Continuum lower limit ~0.16, free-molecular upper limit ~2.19.
        self.assertAlmostEqual(run.BICONIC_CD_MIN, 0.157, places=3)
        self.assertAlmostEqual(run.BICONIC_CD_MAX, 2.187, places=3)
        inside = [run.BICONIC_CD_MIN, 1.07, run.BICONIC_CD_MAX]
        outside = [0.5 * run.BICONIC_CD_MIN, 0.1, 2.5, float("inf"),
                   float("nan")]
        raw = {"outputs": [{"cd": cd, "cl": 0.0} for cd in inside + outside]}
        self.assertEqual(run.judge("axi-biconic", raw),
                         (len(inside) + len(outside), len(outside)))

    def test_fleet_counts(self):
        check = {"requests": 128, "not_run_once": 1, "repeat_mismatch": 2,
                 "missing": 0, "fresh_checked": 40, "fresh_mismatch": 3}
        self.assertEqual(run.judge("fleet-sweep", {"fleet_check": check}),
                         (128, 6))
        unchecked = dict(check, fresh_checked=0, fresh_mismatch=0)
        self.assertEqual(run.judge("fleet-sweep", {"fleet_check": unchecked}),
                         (128, 4))

if __name__ == "__main__":
    unittest.main()
