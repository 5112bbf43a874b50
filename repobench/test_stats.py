"""Tests of stats.py: python3 -m unittest discover -s repobench"""

import unittest

import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_use_the_exclusive_method(self):
        self.assertEqual(stats.quartiles(range(10, 0, -1)), [2.75, 5.5, 8.25])
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5]), [1.5, 3.0, 4.5])
        self.assertEqual(stats.quartiles([2, 1]), [0.75, 1.5, 2.25])
        self.assertEqual(stats.quartiles([7]), [7, 7, 7])

    def test_relative_spread(self):
        self.assertAlmostEqual(stats.relative_spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(stats.relative_spread([7, 7, 7]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_percentile(self):
        value, beyond, supported = stats.tail_percentile(range(50, 0, -1), 0.8)
        self.assertAlmostEqual(value, 40.2)
        self.assertEqual(beyond, 10)
        self.assertTrue(supported)
        _, beyond, supported = stats.tail_percentile(range(1, 46), 0.8)
        self.assertEqual(beyond, 9)
        self.assertFalse(supported)

    def test_ties_are_not_beyond(self):
        value, beyond, supported = stats.tail_percentile([1.0] * 30, 0.5)
        self.assertEqual((value, beyond, supported), (1.0, 0, False))

    def test_interpolation_ends(self):
        self.assertEqual(stats.tail_percentile([1, 2, 3, 4, 5], 0.5)[0], 3)
        self.assertEqual(stats.tail_percentile([1, 2, 3, 4, 5], 1.0)[0], 5)
        self.assertEqual(stats.tail_percentile([9], 0.8)[0], 9)


if __name__ == "__main__":
    unittest.main()
