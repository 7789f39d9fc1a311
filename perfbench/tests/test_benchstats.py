"""Tests of the benchmark's own statistics, trace arithmetic and result
checks.  Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(HERE))
import benchstats  # noqa: E402
import run  # noqa: E402
import trace_summary  # noqa: E402


def event(name, ts, dur, tid=0, cat="axf"):
    return {"name": name, "ts": ts, "dur": dur, "pid": 1, "tid": tid, "cat": cat}


class Statistics(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(benchstats.quartiles(values), (q[0], q[2]))
        self.assertEqual(benchstats.quartiles([1.0, 2.0, 3.0, 4.0]), (1.25, 3.75))

    def test_relative_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchstats.relative_spread([1.0, 2.0, 3.0, 4.0]), 2.5 / 2.5)
        self.assertEqual(benchstats.relative_spread([2.0] * 10), 0.0)

    def test_percentile_interpolates_between_ranks(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(benchstats.percentile(values, 50), 30.0)
        self.assertEqual(benchstats.percentile(values, 0), 10.0)
        self.assertEqual(benchstats.percentile(values, 100), 50.0)
        self.assertAlmostEqual(benchstats.percentile(values, 90), 46.0)
        self.assertEqual(benchstats.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(benchstats.tail_percentile(10000), 99.9)
        self.assertEqual(benchstats.tail_percentile(1000), 99.0)
        self.assertEqual(benchstats.tail_percentile(999), 95.0)
        self.assertEqual(benchstats.tail_percentile(330), 95.0)
        self.assertEqual(benchstats.tail_percentile(200), 95.0)
        self.assertEqual(benchstats.tail_percentile(199), 90.0)
        self.assertEqual(benchstats.tail_percentile(54), 75.0)
        self.assertEqual(benchstats.tail_percentile(40), 75.0)
        self.assertIsNone(benchstats.tail_percentile(39))
        self.assertIsNone(benchstats.tail_percentile(0))

    def test_latency_summary_reports_count_and_falls_back_to_median(self):
        s = benchstats.latency_summary(list(range(1, 1001)))
        self.assertEqual((s["tail_pct"], s["n"]), (99.0, 1000))
        self.assertAlmostEqual(s["tail"], benchstats.percentile(range(1, 1001), 99))
        few = benchstats.latency_summary([3.0, 1.0, 2.0])
        self.assertEqual((few["p50"], few["tail"], few["tail_pct"], few["n"]), (2.0, 2.0, 50.0, 3))
        none = benchstats.latency_summary([])
        self.assertEqual(none, {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0})

    def test_format_latency_prints_count_beside_every_percentile(self):
        line = benchstats.format_latency("x_ms", "ms", benchstats.latency_summary([1.0] * 200))
        self.assertEqual(line.count("(n=200"), 2)
        self.assertIn("p95", line)
        self.assertIn("10.0 beyond", line)


class TraceArithmetic(unittest.TestCase):
    def test_union_length_merges_overlaps(self):
        self.assertEqual(benchstats.union_length([]), 0.0)
        self.assertEqual(benchstats.union_length([(0, 10), (5, 15), (20, 25)]), 20.0)
        self.assertEqual(benchstats.union_length([(0, 10), (10, 12)]), 12.0)
        self.assertEqual(benchstats.union_length([(0, 10), (2, 3)]), 10.0)

    def test_self_time_subtracts_direct_children_only(self):
        root = event("pass", 0, 100)
        a = event("a", 10, 40)
        a_child = event("a.child", 15, 20)
        b = event("b", 60, 30)
        selfs = benchstats.self_times([root, a, a_child, b])
        self.assertEqual(selfs[id(root)], 30)  # 100 - 40 - 30
        self.assertEqual(selfs[id(a)], 20)  # 40 - 20
        self.assertEqual(selfs[id(a_child)], 20)
        self.assertEqual(selfs[id(b)], 30)

    def test_self_time_ignores_other_threads_and_back_to_back_siblings(self):
        parent = event("parent", 0, 100, tid=0)
        worker = event("work", 10, 50, tid=1)
        first = event("s", 0, 50, tid=2)
        second = event("s", 50, 50, tid=2)
        selfs = benchstats.self_times([parent, worker, first, second])
        self.assertEqual(selfs[id(parent)], 100)
        self.assertEqual(selfs[id(first)], 50)
        self.assertEqual(selfs[id(second)], 50)

    def test_summary_sums_per_name_and_separates_pool_tasks(self):
        events = [event("pass", 0, 100), event("fit", 0, 10), event("fit", 20, 10),
                  event("fit", 0, 40, tid=3, cat="task")]
        table = benchstats.summarize_spans(events)
        self.assertEqual(table["fit"], {"count": 2, "incl_us": 20, "self_us": 20})
        self.assertEqual(table["fit [task]"]["count"], 1)
        self.assertEqual(table["pass"]["self_us"], 80)

    def test_covered_share_clips_to_the_root(self):
        root = event("pass", 100, 100)
        inside = [event("a", 90, 30), event("b", 150, 10), event("c", 190, 50)]
        self.assertAlmostEqual(benchstats.covered_share(root, [root] + inside), 0.4)
        self.assertEqual(benchstats.covered_share(event("empty", 0, 0), inside), 0.0)

    def test_coverage_of_bench_and_program_spans(self):
        bench = [event("pass", 0, 1000), event("gen", 0, 300), event("flow", 300, 600),
                 event("replay", 2000, 500)]
        self.assertAlmostEqual(trace_summary.pass_coverage(bench), 0.9)
        program = [event("build", 0, 250, tid=1), event("task", 100, 400, tid=2, cat="task")]
        self.assertAlmostEqual(trace_summary.program_coverage(program, 1000), 0.5)
        self.assertEqual(trace_summary.program_coverage(program, 0), 0.0)


class ResultChecks(unittest.TestCase):
    @staticmethod
    def child(*passes):
        return (1.0, {"passes": list(passes), "peak_rss_mb": 10.0}, None)

    def test_digest_mismatch_and_errors_count_as_failed(self):
        good = {"kind": "warmup", "digest": "aa"}
        children = [self.child(good, {"kind": "timed", "digest": "aa"}),
                    self.child({"kind": "warmup", "digest": "aa"},
                               {"kind": "timed", "digest": "bb"},
                               {"kind": "timed", "digest": "", "error": "check failed"}),
                    (None, None, "exit code 1")]
        attempted, failed, problems = run.check_passes(children)
        self.assertEqual((attempted, failed), (6, 3))
        self.assertEqual(len(problems), 3)

    def test_matching_digests_pass(self):
        children = [self.child({"kind": "warmup", "digest": "aa"},
                               {"kind": "traced", "digest": "aa"},
                               {"kind": "replay", "digest": ""})]
        self.assertEqual(run.check_passes(children)[:2], (3, 0))


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as f:
            self.doc = json.load(f)

    def test_lists_exactly_what_run_py_prints(self):
        self.assertEqual([w["name"] for w in self.doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.doc["per_layer"]}, run.PER_LAYER)

    def test_bounds_are_within_the_contract(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
