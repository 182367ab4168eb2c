"""Tests for the benchmark's own helpers in perfbench/report.py.

    python3 -m unittest discover -s perfbench/tests

They need no build: the percentile rule, the open-loop accounting and the
schema of the result line are pure functions.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))

import report  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(report.percentile(values, 50), 50)
        self.assertEqual(report.percentile(values, 99), 99)
        self.assertEqual(report.percentile(values, 100), 100)
        self.assertEqual(report.percentile([7], 99), 7)
        self.assertEqual(report.percentile([3, 1, 2], 50), 2)

    def test_tail_needs_ten_samples_beyond(self):
        # p99 needs 10 samples above rank ceil(0.99 n): n = 1000 is the
        # smallest sample count that qualifies.
        self.assertEqual(report.tail_percentile(1000), 99)
        self.assertEqual(report.tail_percentile(999), 95)
        self.assertEqual(report.tail_percentile(200), 95)
        self.assertEqual(report.tail_percentile(199), 90)
        self.assertEqual(report.tail_percentile(100), 90)
        self.assertEqual(report.tail_percentile(40), 75)
        self.assertEqual(report.tail_percentile(20), 50)
        self.assertIsNone(report.tail_percentile(19))

    def test_tail_value_and_fallback(self):
        values = list(range(1, 1001))
        self.assertEqual(report.tail(values), (99, 990))
        self.assertEqual(report.tail(list(range(1, 101))), (90, 90))
        # Too few samples for any tail: the maximum, marked as p100.
        self.assertEqual(report.tail([5, 1, 9]), (100, 9))

    def test_empty_percentile_is_an_error(self):
        with self.assertRaises(ValueError):
            report.percentile([], 50)


class OpenLoopAccounting(unittest.TestCase):
    def test_latency_runs_from_the_schedule(self):
        # The generator stalled: the second request was due at 10 but
        # went out at 40. Its latency counts the stall.
        latency, lateness = report.open_loop_latency(
            [0, 10, 20], [0, 40, 41], [5, 45, 46])
        self.assertEqual(latency, [5, 35, 26])
        self.assertEqual(lateness, [0, 30, 21])

    def test_early_send_is_not_negative_lateness(self):
        _, lateness = report.open_loop_latency([10], [9.5], [12])
        self.assertEqual(lateness, [0.0])

    def test_derive_splits_answered_and_pools_phases(self):
        raw = {"samples": {
            "phase0.sched_us": [0, 100], "phase0.sent_us": [1, 100],
            "phase0.done_us": [20, 150], "phase0.answered": [1, 0],
            "phase1.sched_us": [200], "phase1.sent_us": [260],
            "phase1.done_us": [300], "phase1.answered": [1]},
            "ladder": [{"rate": 1000, "drain_ms": 0},
                       {"rate": 2000, "drain_ms": 0}]}
        report.derive_open_loop(raw)
        s = raw["samples"]
        self.assertEqual(s["ladder0.lat_us"], [20])
        self.assertEqual(s["ladder0.late_us"], [1, 0])
        self.assertEqual(s["downgrade_us"], [20, 100])
        self.assertEqual(s["loadgen.late_us"], [1, 0, 60])
        self.assertEqual(raw["ladder"][0]["sent"], 2)
        self.assertEqual(raw["ladder"][0]["answered"], 1)
        self.assertEqual(raw["ladder"][1]["answered"], 1)

    def test_chunk_throughput_ignores_a_stalled_chunk(self):
        # Three chunks of two 1-query registrations; the middle one
        # stalled. The median chunk rate is unaffected by it.
        lat = [1, 1, 100, 100, 1, 3]
        self.assertAlmostEqual(
            report.chunk_throughput(lat, [1] * 6, 2), 2 / 0.004)
        # An incomplete trailing chunk is left out.
        self.assertAlmostEqual(
            report.chunk_throughput([2, 2, 9], [8, 8, 8], 2), 16 / 0.004)
        self.assertEqual(report.chunk_throughput([], [], 2), 0.0)

    def test_capacity_is_highest_rate_within_limits(self):
        fast = [100.0] * 100
        slow = [5000.0] * 100
        ladder = [{"rate": 1000, "drain_ms": 0}, {"rate": 2000, "drain_ms": 0},
                  {"rate": 4000, "drain_ms": 0}]
        self.assertEqual(report.capacity(ladder, [fast, fast, slow],
                                         [fast, fast, fast]), 2000)
        # A generator that fell behind disqualifies its rate.
        self.assertEqual(report.capacity(ladder, [fast, fast, fast],
                                         [fast, slow, fast]), 4000)
        ladder[2]["drain_ms"] = 50
        self.assertEqual(report.capacity(ladder, [fast, fast, fast],
                                         [fast, fast, fast]), 2000)

    def test_capacity_misses_name_each_limit(self):
        fast = [100.0] * 100
        slow = [5000.0] * 100
        self.assertEqual(report.capacity_misses(fast, fast, 0), [])
        self.assertEqual(report.capacity_misses(slow, slow, 50),
                         ["tail", "backlog", "late"])
        self.assertEqual(report.capacity_misses([], fast, 0), ["answered"])

    def test_capacity_status_marks_a_capped_ladder(self):
        ok = {"misses": []}
        late = {"misses": ["late"]}
        # Every rate, so the top one, qualifies: only a lower bound.
        self.assertEqual(report.capacity_status([ok, ok]), "capped")
        self.assertEqual(report.capacity_status([late, ok]), "capped")
        self.assertEqual(report.capacity_status([ok, late]), "measured")
        self.assertEqual(report.capacity_status([late, late]), "none")
        self.assertEqual(report.capacity_status([]), "no ladder")


def fake_raw(workload="register-cold"):
    return {
        "workload": workload, "attempted": 10, "failed": 0,
        "failures": {}, "notes": [], "ladder": [], "spans": {
            "expr.parse": {"count": 2, "sum_us": 4.0, "median_us": 2.0}},
        "values": {"register_chunk": 2, "peak_rss_mb": 10.0,
                   "threads_peak": 4},
        "counters": {"downgrade.answered": 3, "downgrade.refused": 1,
                     "synth.attempts": 4, "synth.queries": 4},
        "samples": {"setup_s": [0.2, 0.1, 0.3], "register_ms": [1, 2, 3, 4],
                    "register_queries": [1, 1, 1, 1],
                    "downgrade_us": [10, 20, 30], "salvage_s": [0.5, 0.7],
                    "answered_per_user": [2, 1]},
    }


class ReportSchema(unittest.TestCase):
    def test_end_to_end_line_has_the_result_shape(self):
        raw = fake_raw()
        metrics, details = report.headline(raw)
        self.assertAlmostEqual(metrics["setup_s"], 0.2)
        # Chunks of 2: 2 queries in 3 ms and 2 in 7 ms; the median of
        # 666.7/s and 285.7/s.
        self.assertAlmostEqual(metrics["register.queries_per_s"],
                               (2 / 0.003 + 2 / 0.007) / 2)
        self.assertAlmostEqual(metrics["restart.salvage_s"], 0.6)
        self.assertAlmostEqual(metrics["serve.ok_share"], 0.75)
        self.assertAlmostEqual(metrics["ads.answered_per_user"], 1.5)
        self.assertEqual(details["failed_share"], 0.0)
        line = report.result_line(raw, metrics, report.END_TO_END)
        report.check_result_line(line, report.END_TO_END)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        json.dumps(line)

    def test_per_layer_line_has_every_layer_metric(self):
        raw = fake_raw()
        layers = report.per_layer(raw, fake_raw())
        self.assertEqual(layers["expr.parse_us"], 2.0)
        self.assertEqual(layers["synth.attempts_ratio"], 1.0)
        self.assertEqual(layers["trace.overhead_ratio"], 1.0)
        # Figures moved off the bounded list come from the untraced run.
        untraced = fake_raw()
        untraced["samples"]["register_ms"] = [5, 5, 5, 5]
        layers = report.per_layer(raw, untraced)
        self.assertEqual(layers["register.p50_ms"], 5)
        line = report.result_line(raw, layers, report.PER_LAYER)
        report.check_result_line(line, report.PER_LAYER)

    def test_failures_make_the_line_incorrect(self):
        raw = fake_raw()
        raw["failed"] = 2
        metrics, _ = report.headline(raw)
        line = report.result_line(raw, metrics, report.END_TO_END)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 2)

    def test_checker_rejects_bad_lines(self):
        raw = fake_raw()
        metrics, _ = report.headline(raw)
        good = report.result_line(raw, metrics, report.END_TO_END)
        missing = json.loads(json.dumps(good))
        del missing["metrics"]["setup_s"]
        extra = json.loads(json.dumps(good))
        extra["note"] = 1
        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
        fractional = json.loads(json.dumps(good))
        fractional["attempted"] = 1.5
        for bad in (missing, extra, wrong_unit, fractional):
            with self.assertRaises(ValueError):
                report.check_result_line(bad, report.END_TO_END)

    def test_benchmark_json_mirrors_the_tables(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in bench["end_to_end"]], report.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            report.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
