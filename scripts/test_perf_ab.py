#!/usr/bin/env python3
"""Unit tests for scripts/perf_ab.py's summary arithmetic and output parsing,
on canned results (no builds, no benchmark runs).

    python3 scripts/test_perf_ab.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_ab  # noqa: E402


def pair(base_wall, change_wall, base_setup=1.0, change_setup=1.0, base_rss=10.0,
         change_rss=10.0):
    return {"base": {"wall_s": base_wall, "setup_s": base_setup, "peak_rss_mb": base_rss},
            "change": {"wall_s": change_wall, "setup_s": change_setup,
                       "peak_rss_mb": change_rss}}


class Arithmetic(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(perf_ab.median([3, 1, 2]), 2)
        self.assertEqual(perf_ab.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            perf_ab.median([])

    def test_quantiles_interpolate_linearly(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(perf_ab.quantile(xs, 0.25), 3.25)
        self.assertAlmostEqual(perf_ab.quantile(xs, 0.75), 7.75)
        self.assertAlmostEqual(perf_ab.iqr(xs), 4.5)
        self.assertEqual(perf_ab.iqr([5.0]), 0.0)
        self.assertEqual(perf_ab.quantile([2, 9], 0.0), 2)
        self.assertEqual(perf_ab.quantile([2, 9], 1.0), 9)

    def test_summary_counts_wins_losses_and_ties(self):
        pairs = [pair(1.0, 0.8), pair(1.2, 0.9), pair(0.9, 1.0), pair(1.1, 1.1)]
        s = perf_ab.summarize(pairs, "wall_s")
        self.assertEqual(s["wins"], 2)
        self.assertEqual(s["losses"], 1)
        self.assertAlmostEqual(s["base_median"], 1.05)
        self.assertAlmostEqual(s["change_median"], 0.95)
        self.assertAlmostEqual(s["rel"], (0.95 - 1.05) / 1.05)
        # base [0.9, 1.0, 1.1, 1.2]: quartiles 0.975 and 1.125.
        self.assertAlmostEqual(s["base_iqr"], 0.15)

    def test_claim_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr(self):
        base = [0.70, 0.72, 0.71, 0.69, 0.73, 0.70, 0.74, 0.68, 0.71, 0.72]
        faster = [b * 0.8 for b in base]
        pairs = [pair(b, c) for b, c in zip(base, faster)]
        s = perf_ab.summarize(pairs, "wall_s")
        self.assertEqual(s["wins"], 10)
        self.assertTrue(perf_ab.claim_holds(s, len(pairs)))

        # Two losses out of ten: 8/10 is short of 9/10.
        pairs[0] = pair(0.70, 0.75)
        pairs[1] = pair(0.72, 0.80)
        s = perf_ab.summarize(pairs, "wall_s")
        self.assertEqual(s["wins"], 8)
        self.assertFalse(perf_ab.claim_holds(s, len(pairs)))

        # Every pair won, but by less than the base's spread.
        noisy = [0.5, 0.9, 0.6, 1.0, 0.55, 0.95, 0.7, 0.8, 0.65, 0.85]
        pairs = [pair(b, b - 0.01) for b in noisy]
        s = perf_ab.summarize(pairs, "wall_s")
        self.assertEqual(s["wins"], 10)
        self.assertFalse(perf_ab.claim_holds(s, len(pairs)))


class Parsing(unittest.TestCase):
    CANNED = "\n".join([
        '{"provenance": {"workload": "long_flows", "seed": 3}}',
        "unit   0 untraced host 0.700000 s  calibration 0.010000 s  scaled 0.700000 s",
        "digest 3ea8f1ac9aa040dd over 3 units; outputs of unit 0:",
        "utilization 0.98",
        "wall_s      0.700000 s  (median of 3 untraced units; 0.700000 host s unscaled)",
        '{"correct": true, "attempted": 3, "failed": 0, "metrics": {'
        '"wall_s": {"value": 0.7, "unit": "s"}, "setup_s": {"value": 0.0084, "unit": "s"}, '
        '"peak_rss_mb": {"value": 28.4, "unit": "MB"}}}',
    ])

    def test_parse_run_reads_the_digest_and_the_result_line(self):
        digest, result = perf_ab.parse_run(self.CANNED)
        self.assertEqual(digest, "3ea8f1ac9aa040dd")
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["peak_rss_mb"]["value"], 28.4)

    def test_parse_run_rejects_output_without_a_digest(self):
        lines = [line for line in self.CANNED.splitlines() if not line.startswith("digest")]
        with self.assertRaises(ValueError):
            perf_ab.parse_run("\n".join(lines))
        with self.assertRaises(ValueError):
            perf_ab.parse_run("")


if __name__ == "__main__":
    unittest.main()
