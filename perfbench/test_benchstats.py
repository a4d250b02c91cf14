"""Unit tests for the benchmark's arithmetic (perfbench/benchstats.py).

Run: python3 perfbench/test_benchstats.py
"""

import statistics
import unittest

import benchstats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 10.5, 11.5, 14.0, 12.5]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchstats.quartiles(values), (q1, q3))

    def test_quartiles_exclusive_method_by_hand(self):
        # n=4: positions (n+1)/4 = 1.25 and 3.75 (1-based).
        self.assertEqual(benchstats.quartiles([1, 2, 3, 4]), (1.25, 3.75))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(benchstats.quartiles([7.0]), (7.0, 7.0))
        self.assertEqual(benchstats.spread([7.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchstats.spread([1, 2, 3, 4]), 2.5 / 2.5)
        self.assertEqual(benchstats.spread([5, 5, 5, 5]), 0.0)


class Percentiles(unittest.TestCase):
    def test_endpoints_and_middle(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(benchstats.percentile(values, 0), 1)
        self.assertEqual(benchstats.percentile(values, 100), 5)
        self.assertEqual(benchstats.percentile(values, 50), 3)

    def test_linear_between_ranks(self):
        self.assertAlmostEqual(benchstats.percentile([0, 10], 25), 2.5)
        self.assertAlmostEqual(
            benchstats.percentile(list(range(101)), 99), 99.0)

    def test_out_of_range_raises(self):
        with self.assertRaises(ValueError):
            benchstats.percentile([1], 101)
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)

    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(benchstats.tail_percentile(99))
        self.assertEqual(benchstats.tail_percentile(100), 90.0)
        self.assertEqual(benchstats.tail_percentile(999), 90.0)
        self.assertEqual(benchstats.tail_percentile(1000), 99.0)
        self.assertEqual(benchstats.tail_percentile(10000), 99.9)


class BestSegmentRate(unittest.TestCase):
    def test_each_slice_takes_its_fastest_pass(self):
        # Pass 1 was slowed in slice 0, pass 2 in slice 1.
        passes = [[2.0, 1.0], [1.0, 3.0]]
        self.assertEqual(benchstats.best_segment_rate(100, passes), 50.0)

    def test_one_pass(self):
        self.assertEqual(benchstats.best_segment_rate(10, [[0.5, 0.5]]), 10.0)

    def test_mismatched_slices_raise(self):
        with self.assertRaises(ValueError):
            benchstats.best_segment_rate(1, [[1.0], [1.0, 1.0]])
        with self.assertRaises(ValueError):
            benchstats.best_segment_rate(1, [])


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            {"id": 1, "parent": 0, "busy": 10.0},  # root
            {"id": 2, "parent": 1, "busy": 4.0},
            {"id": 3, "parent": 2, "busy": 1.5},   # grandchild
            {"id": 4, "parent": 1, "busy": 3.0},
        ]
        self.assertEqual(benchstats.self_times(spans),
                         {1: 3.0, 2: 2.5, 3: 1.5, 4: 3.0})

    def test_batch_records_subtract_their_summed_busy_time(self):
        # A batch record covers many calls; its busy time is their sum,
        # not its start-to-end interval.
        spans = [
            {"id": 1, "parent": 0, "busy": 2.0},
            {"id": 2, "parent": 1, "busy": 0.25},
        ]
        self.assertEqual(benchstats.self_times(spans)[1], 1.75)

    def test_parent_outside_the_list_is_ignored(self):
        spans = [{"id": 5, "parent": 3, "busy": 1.0}]
        self.assertEqual(benchstats.self_times(spans), {5: 1.0})


class FailRatio(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(benchstats.fail_ratio(0, 40), 0.0)
        self.assertEqual(benchstats.fail_ratio(1, 4), 0.25)

    def test_nothing_checked(self):
        self.assertEqual(benchstats.fail_ratio(0, 0), 0.0)

    def test_impossible_counts_raise(self):
        with self.assertRaises(ValueError):
            benchstats.fail_ratio(5, 4)
        with self.assertRaises(ValueError):
            benchstats.fail_ratio(-1, 4)


class ExactDiff(unittest.TestCase):
    def test_identical_maps_have_no_diff(self):
        a = {"chip.trace_hash": "a32303bcef642bf0", "sim.delivered": 14723}
        self.assertEqual(benchstats.exact_diff(a, dict(a)), [])

    def test_value_and_presence_differences(self):
        a = {"x": 1, "y": 2.5, "only_a": 0}
        b = {"x": 1, "y": 2.5000000000000004, "only_b": None}
        self.assertEqual(benchstats.exact_diff(a, b), [
            ("only_a", 0, None),
            ("only_b", None, None),
            ("y", 2.5, 2.5000000000000004),
        ])

    def test_no_tolerance_for_floats(self):
        self.assertEqual(len(benchstats.exact_diff({"g": 844.4625930704623},
                                                   {"g": 844.4625930704624})),
                         1)


if __name__ == "__main__":
    unittest.main()
