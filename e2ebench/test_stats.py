"""Known-answer tests of the benchmark's arithmetic (run before every run;
also `python3 -m unittest e2ebench/test_stats.py`)."""

import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(9), 50)
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(49), 75)
        self.assertEqual(stats.tail_percentile(50), 80)
        self.assertEqual(stats.tail_percentile(99), 80)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(999), 95)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile([5.0], 99), 5.0)

    def test_failures_sort_last(self):
        xs = [1.0] * 95 + [float("inf")] * 5
        self.assertEqual(stats.percentile(xs, 90), 1.0)
        self.assertEqual(stats.percentile(xs, 99), float("inf"))


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0,100): children A [10,40) and B [30,60) overlap; C [90,120)
        # sticks out of the root. A has a child [15,25).
        spans = [
            (-1, 0.0, 100.0),   # 0 root
            (0, 10.0, 40.0),    # 1 A
            (0, 30.0, 60.0),    # 2 B
            (0, 90.0, 120.0),   # 3 C
            (1, 15.0, 25.0),    # 4 A's child
        ]
        got = stats.self_times(spans)
        # root covered by [10,60) and [90,100): 50 + 10 = 60 -> self 40
        self.assertEqual(got, [40.0, 20.0, 30.0, 30.0, 10.0])

    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times([(-1, 2.0, 7.5)]), [5.5])


class FlopCounts(unittest.TestCase):
    def test_lenet_conv2(self):
        # 64 x 20 x 12 x 12 -> 50 x 8 x 8 with 5x5 kernels:
        # 2 * (64*50*8*8) * (20*5*5) = 204,800,000 forward FLOPs; the bottom
        # (pool1) needs a gradient, so backward is twice that.
        layer = {"type": "Convolution", "tops": [[64, 50, 8, 8]],
                 "params": [[50, 20, 5, 5], [50]],
                 "bottom_need_backward": [True]}
        self.assertEqual(stats.layer_flops(layer), (204_800_000, 409_600_000))

    def test_cifar_conv1(self):
        # 100 x 3 x 32 x 32 -> 32 x 32 x 32 (pad 2, 5x5):
        # 2 * (100*32*32*32) * (3*5*5) = 491,520,000; its bottom is the data,
        # so backward computes only the weight gradient.
        layer = {"type": "Convolution", "tops": [[100, 32, 32, 32]],
                 "params": [[32, 3, 5, 5], [32]],
                 "bottom_need_backward": [False]}
        self.assertEqual(stats.layer_flops(layer), (491_520_000, 491_520_000))

    def test_other_layers_have_none(self):
        self.assertIsNone(stats.layer_flops(
            {"type": "Pooling", "tops": [[1, 1]], "params": [],
             "bottom_need_backward": [True]}))


if __name__ == "__main__":
    unittest.main()
