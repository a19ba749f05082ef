"""Tests of the benchmark's statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class TailTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, percentile, n = stats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(percentile, 90.0)
        self.assertEqual(n, 100)

    def test_order_does_not_matter(self):
        values = [5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11, 0]
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))
        self.assertEqual(stats.tail(values)[0], 1)

    def test_percentile_grows_with_samples(self):
        self.assertAlmostEqual(stats.tail(list(range(1000)))[1], 99.0)
        self.assertAlmostEqual(stats.tail(list(range(10000)))[1], 99.9)

    def test_smallest_sample_count_that_has_a_tail(self):
        value, percentile, n = stats.tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(percentile, 100.0 / 11)
        self.assertEqual(n, 11)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail(list(range(10))))
        self.assertIsNone(stats.tail([]))

    def test_ties_beyond_count_as_samples(self):
        values = [1.0] * 5 + [2.0] * 20
        self.assertEqual(stats.tail(values)[0], 2.0)


class BlockTailTest(unittest.TestCase):
    def test_one_block_below_two_hundred_samples(self):
        values = list(range(199))
        self.assertEqual(stats.block_tail(values),
                         stats.tail(values) + (1,))

    def test_blocks_hold_at_least_a_hundred_samples(self):
        self.assertEqual(stats.block_tail(list(range(200)))[2:], (100, 2))
        self.assertEqual(stats.block_tail(list(range(399)))[2:], (133, 3))
        self.assertEqual(stats.block_tail(list(range(1000)))[2:], (250, 4))

    def test_percentile_and_samples_of_the_smallest_block(self):
        # 401 values: blocks of 100, 100, 100 and 101 samples.
        _, percentile, samples, blocks = stats.block_tail([1.0] * 401)
        self.assertEqual((samples, blocks), (100, 4))
        self.assertAlmostEqual(percentile, 90.0)

    def test_median_of_the_block_tails(self):
        # Four blocks of 100 whose tails (10 beyond) are 1, 2, 3 and 4.
        values = []
        for level in (1.0, 2.0, 3.0, 4.0):
            values += [level] * 90 + [level * 100] * 10
        self.assertEqual(stats.block_tail(values)[0], 2.5)

    def test_a_burst_in_one_block_does_not_carry_the_tail(self):
        steady = [1.0 + (i % 7) / 100 for i in range(800)]
        burst = list(steady)
        burst[300:360] = [5.0] * 60
        self.assertGreater(stats.tail(burst)[0], 4.0)
        self.assertLess(stats.block_tail(burst)[0], 1.1)

    def test_too_few_samples(self):
        self.assertIsNone(stats.block_tail(list(range(10))))
        self.assertIsNone(stats.block_tail([]))


class MedianAndSpreadTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([7]), 7)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [12.0, 10.5, 11.25, 9.75, 13.0, 10.0, 11.0, 12.5, 9.5, 10.25]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = stats.quartiles(list(range(1, 10)))
        self.assertEqual((q1, q2, q3), (2.5, 5.0, 7.5))

    def test_spread_is_iqr_over_median(self):
        values = list(range(1, 10))
        self.assertAlmostEqual(stats.spread(values), (7.5 - 2.5) / 5.0)
        self.assertEqual(stats.spread([4.0] * 10), 0.0)

    def test_quartiles_need_two_samples(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class ErrorRateTest(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(stats.error_rate(0, 40), 0.0)
        self.assertEqual(stats.error_rate(1, 4), 0.25)

    def test_zero_attempts(self):
        self.assertIsNone(stats.error_rate(0, 0))


class SelfTimeTest(unittest.TestCase):
    def test_leaf(self):
        self.assertEqual(stats.self_times([(0, 10, -1)]), [10])

    def test_back_to_back_children(self):
        spans = [(0, 100, -1), (10, 30, 0), (30, 60, 0)]
        self.assertEqual(stats.self_times(spans), [50, 20, 30])

    def test_nested_children(self):
        # root -> a -> b: each level subtracts only its direct child.
        spans = [(0, 100, -1), (10, 90, 0), (20, 50, 1)]
        self.assertEqual(stats.self_times(spans), [20, 50, 30])

    def test_overlapping_children_count_once(self):
        spans = [(0, 100, -1), (10, 50, 0), (40, 70, 0)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_child_contained_in_sibling(self):
        spans = [(0, 100, -1), (10, 80, 0), (20, 30, 0)]
        self.assertEqual(stats.self_times(spans)[0], 30)

    def test_children_clipped_to_parent(self):
        spans = [(10, 20, -1), (5, 15, 0), (18, 40, 0)]
        self.assertEqual(stats.self_times(spans)[0], 3)

    def test_layer_of(self):
        self.assertEqual(stats.layer_of("relation.load"), "relation")
        self.assertEqual(stats.layer_of("service.sweep"), "service")
        self.assertEqual(stats.layer_of("bench"), "bench")


if __name__ == "__main__":
    unittest.main()
