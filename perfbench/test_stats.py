"""Tests for the benchmark's statistics. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))
        self.assertEqual(stats.quartiles(values), (2.75, 8.25))

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 10.0, 10.0, 10.0]
        self.assertEqual(stats.spread(values), 0.0)
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertAlmostEqual(stats.spread(values), (4.5 - 1.5) / 3.0)


class TailPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile([5.0], 90), 5.0)

    def test_percentile_ignores_input_order(self):
        self.assertEqual(stats.percentile([3, 9, 1, 7, 5], 80), 7)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(40, 75), 10)

    def test_fast_side_support_is_the_rank(self):
        # Samples at or below a low percentile: its nearest rank.
        self.assertEqual(stats.rank(100, 10), 10)
        self.assertEqual(stats.rank(91, 10), 10)
        self.assertEqual(stats.rank(90, 10), 9)
        self.assertEqual(stats.rank(46, 20), 10)

    def test_selection_needs_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(199), 90)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(99), 80)
        self.assertEqual(stats.tail_percentile(40), 75)
        self.assertEqual(stats.tail_percentile(39), 50)
        self.assertIsNone(stats.tail_percentile(19))

    def test_selected_percentile_always_has_support(self):
        for n in range(1, 400):
            pct = stats.tail_percentile(n)
            if pct is not None:
                self.assertGreaterEqual(stats.samples_beyond(n, pct), stats.MIN_BEYOND)


class UnitRates(unittest.TestCase):
    def test_units_without_overhead(self):
        self.assertEqual(stats.unit_rates([[500.0, 20.0, 0], [250.0, 20.0, 0]], [[0.0, 0.0]]),
                         [40.0, 80.0])

    def test_cycle_overhead_is_shared_equally(self):
        # Two units of cycle 0 split 1 s / 10 sim-s of settle; cycle 1's
        # single unit carries all of its own.
        units = [[1000.0, 20.0, 0], [1000.0, 20.0, 0], [1000.0, 20.0, 1]]
        overhead = [[1.0, 10.0], [2.0, 40.0]]
        self.assertEqual(stats.unit_rates(units, overhead), [25.0 / 1.5, 25.0 / 1.5, 20.0])


class PairedCycles(unittest.TestCase):
    def test_cycle_walls_add_units_and_overhead(self):
        units = [[1000.0, 20.0, 0], [500.0, 20.0, 0], [250.0, 20.0, 2]]
        overhead = [[1.0, 10.0], [7.0, 0.0], [0.25, 0.0]]
        # Cycle 1 timed nothing (warm-up), so its overhead is left out.
        self.assertEqual(stats.cycle_walls(units, overhead), {0: 2.5, 2: 0.5})

    def test_paired_ratio_is_median_over_common_cycles(self):
        traced = {0: 1.2, 1: 3.3, 2: 1.0, 5: 9.0}
        untraced = {0: 1.0, 1: 3.0, 2: 1.0}
        ratio = stats.paired_ratio(traced, untraced)
        self.assertAlmostEqual(ratio["value"], 1.1)
        self.assertEqual(ratio["base"], 3)

    def test_paired_ratio_without_pairs(self):
        self.assertEqual(stats.paired_ratio({0: 1.0}, {}), {"value": 0.0, "base": 0})


class Ratio(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        self.assertEqual(stats.ratio(3, 4), {"value": 0.75, "base": 4})

    def test_empty_base_reads_zero(self):
        self.assertEqual(stats.ratio(0, 0), {"value": 0.0, "base": 0})


if __name__ == "__main__":
    unittest.main()
