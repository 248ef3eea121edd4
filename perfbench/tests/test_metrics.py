"""Unit tests for the metric rules in perfbench/metrics.py.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import metrics  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        value, pct, n = metrics.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_exactly_ten_samples_lie_beyond_the_tail(self):
        values = [(7 * i) % 150 for i in range(150)]  # 0..149, shuffled
        value, pct, n = metrics.tail(values)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 140 / 150)
        self.assertEqual(n, 150)

    def test_under_a_hundred_samples_give_nearest_rank_p90(self):
        values = [(7 * i) % 25 for i in range(25)]  # 0..24, shuffled
        value, pct, _ = metrics.tail(values)
        self.assertEqual(sum(1 for v in values if v > value), 2)
        self.assertEqual(pct, 92.0)

    def test_one_more_sample_moves_the_tail_by_at_most_one_rank(self):
        self.assertEqual(metrics.tail(list(range(10, 0, -1)))[0], 9)
        self.assertEqual(metrics.tail(list(range(11, 0, -1)))[0], 10)
        self.assertEqual(metrics.tail(list(range(20, 0, -1)))[0], 18)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 9.0, 1.0]), (9.0, 100.0, 3))
        self.assertEqual(metrics.tail([]), (0.0, 0.0, 0))

    def test_unsorted_input_is_not_mutated(self):
        values = [3, 1, 2] * 5
        metrics.tail(values)
        self.assertEqual(values, [3, 1, 2] * 5)


class CounterDeltaTest(unittest.TestCase):
    def test_cumulative_counters_become_interval_deltas(self):
        before = {"rounds": 2, "broadcast_bytes": 1000, "worker_busy_s": 1.5,
                  "fallback": 0}
        after = {"rounds": 3, "broadcast_bytes": 1600, "worker_busy_s": 2.0,
                 "fallback": 1}
        self.assertEqual(metrics.counter_deltas(before, after),
                         {"rounds": 1.0, "broadcast_bytes": 600.0,
                          "worker_busy_s": 0.5, "fallback": 1.0})

    def test_counter_new_in_interval_counts_from_zero(self):
        self.assertEqual(metrics.counter_deltas({}, {"alerts": 4}),
                         {"alerts": 4.0})

    def test_post_warmup_baseline_excludes_warmup_work(self):
        warm = {"evaluations": 8, "window_rebuilds": 1, "alerts": 0}
        end = {"evaluations": 20, "window_rebuilds": 1, "alerts": 2}
        d = metrics.counter_deltas(warm, end)
        self.assertEqual((d["evaluations"], d["window_rebuilds"],
                          d["alerts"]), (12.0, 0.0, 2.0))


class GapAttributionTest(unittest.TestCase):
    def test_gaps_are_charged_to_the_following_level(self):
        # find 0..100, prep 0..10, L2 eval 30..40, L3 eval 70..95.
        gen, tail = metrics.attribute_gaps(
            (0, 100), (0, 10), [(3, 70, 95), (2, 30, 40)])
        self.assertEqual(gen, {2: 20, 3: 30})
        self.assertEqual(tail, 5)

    def test_without_prep_the_first_gap_starts_at_the_find(self):
        gen, tail = metrics.attribute_gaps((100, 200), None, [(2, 150, 190)])
        self.assertEqual(gen, {2: 50})
        self.assertEqual(tail, 10)

    def test_split_accounts_for_the_whole_find(self):
        find, prep = (0, 1000), (0, 40)
        evals = [(2, 100, 300), (3, 650, 900)]
        gen, tail = metrics.attribute_gaps(find, prep, evals)
        eval_total = sum(e - b for _, b, e in evals)
        self.assertEqual((prep[1] - prep[0]) + sum(gen.values()) + tail +
                         eval_total, find[1] - find[0])

    def test_repeated_calls_at_one_level_accumulate(self):
        gen, _ = metrics.attribute_gaps((0, 100), None,
                                        [(2, 10, 20), (2, 30, 40)])
        self.assertEqual(gen, {2: 20})


class SpanTest(unittest.TestCase):
    SPANS = [
        {"op": 1, "id": 1, "parent": 0, "name": "find", "level": 0,
         "b": 0, "e": 100},
        {"op": 1, "id": 2, "parent": 1, "name": "prep", "level": 0,
         "b": 0, "e": 10},
        {"op": 1, "id": 3, "parent": 1, "name": "evaluate", "level": 2,
         "b": 30, "e": 40},
        {"op": 1, "id": 4, "parent": 1, "name": "evaluate", "level": 3,
         "b": 70, "e": 95},
    ]

    def test_self_time_subtracts_children(self):
        selfs = metrics.self_times(self.SPANS)
        self.assertEqual(selfs[1], 100 - 10 - 10 - 25)
        self.assertEqual(selfs[3], 10)

    def test_derived_gen_spans_leave_only_the_tail_as_find_self_time(self):
        spans = metrics.derived_gen_spans(self.SPANS)
        gens = sorted((s["level"], s["b"], s["e"]) for s in spans
                      if s["name"] == "gen")
        self.assertEqual(gens, [(2, 10, 30), (3, 40, 70)])
        self.assertTrue(all(s["parent"] == 1 for s in spans
                            if s["name"] == "gen"))
        self.assertEqual(metrics.self_times(spans)[1], 5)


class PerLayerTest(unittest.TestCase):
    def raw(self):
        return {
            "ops": [
                {"id": 1, "kind": "find", "client": 0, "traced": False,
                 "ok": True, "b": 0, "e": 100_000_000},
                {"id": 2, "kind": "find", "client": 0, "traced": True,
                 "ok": True, "b": 0, "e": 100_000_000},
            ],
            "spans": [dict(s, op=2, b=s["b"] * 1_000_000,
                           e=s["e"] * 1_000_000) for s in SpanTest.SPANS],
            "counters": [{"op": 2, "c": {"eval_words": 700}}],
            "ship_s": [], "peak_rss_mb": 12.5,
            "extra": {"work": [{
                "eval_words": 500,
                "levels": [[1, 10, 8, 2], [2, 40, 20, 900], [3, 5, 1, 50]]}]},
        }

    def test_traced_find_splits_into_layers(self):
        m = metrics.per_layer(self.raw())
        self.assertAlmostEqual(m["core.prep_s"], 0.010)
        self.assertAlmostEqual(m["core.eval_s"], 0.035)
        self.assertAlmostEqual(m["core.l2.gen_s"], 0.020)
        self.assertAlmostEqual(m["core.l3.gen_s"], 0.030)
        self.assertAlmostEqual(m["core.gen_s"], 0.055)
        self.assertAlmostEqual(m["core.gen_share"], 0.55)
        self.assertEqual(m["core.candidates"], 45)
        self.assertEqual(m["core.valid"], 21)
        self.assertEqual(m["core.pruned"], 950)
        self.assertEqual(m["linalg.eval_words"], 500)
        self.assertAlmostEqual(m["linalg.words_per_s"], 700 / 0.035)
        self.assertEqual(m["core.eval_calls"], 2)
        self.assertEqual(m["proc.peak_rss_mb"], 12.5)
        self.assertEqual(m["trace.overhead_frac"], 0.0)
        self.assertEqual(set(m), set(metrics.PER_LAYER))

    def test_work_counts_are_the_median_over_datasets(self):
        raw = self.raw()
        raw["extra"]["work"] += [
            {"eval_words": 900, "levels": [[2, 99, 0, 7]]},
            {"eval_words": 100, "levels": [[2, 30, 3, 1], [3, 0, 0, 4]]}]
        m = metrics.per_layer(raw)
        self.assertEqual(m["linalg.eval_words"], 500)
        self.assertEqual(m["core.candidates"], 45)
        self.assertEqual(m["core.pruned"], 7)
        # A level that generated nothing made no Evaluate call.
        self.assertEqual(m["core.eval_calls"], 1)

if __name__ == "__main__":
    unittest.main()
