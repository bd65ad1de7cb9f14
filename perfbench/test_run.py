"""Unit tests for the benchmark's metric rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def job(shape="join", priority=3, arrival=0.0, admitted=1.0, finished=5.0,
        state="completed", expect_shed=False, exact=True, output=-1,
        expected=-1, instance=0):
    return {"shape": shape, "instance": instance, "priority": priority,
            "arrival_s": arrival,
            "admitted_s": admitted, "finished_s": finished, "state": state,
            "expect_shed": expect_shed, "exact": exact, "output": output,
            "expected": expected}


def record(jobs, virtual_s=10.0, digest="abc"):
    return {"values": {"virtual_s": virtual_s}, "counters_digest": digest,
            "jobs": jobs}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(values, 0.5), 50)
        self.assertEqual(run.percentile(values, 0.9), 90)
        self.assertEqual(run.percentile(values, 1.0), 100)
        self.assertEqual(run.percentile([7.0], 0.9), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)

    def test_ten_samples_beyond(self):
        # p90 of 100 samples has exactly ten beyond it; of 99, nine.
        self.assertEqual(run.samples_beyond(100, 0.9), 10)
        self.assertTrue(run.supported(100, 0.9))
        self.assertEqual(run.samples_beyond(99, 0.9), 9)
        self.assertFalse(run.supported(99, 0.9))
        # p50 needs twenty samples.
        self.assertTrue(run.supported(20, 0.5))
        self.assertFalse(run.supported(19, 0.5))
        self.assertFalse(run.supported(1, 0.5))


class JobTimes(unittest.TestCase):
    def test_turnaround_wait_and_run(self):
        jobs = [
            job(arrival=2.0, admitted=3.5, finished=10.0),
            job(arrival=4.0, admitted=4.0, finished=6.0),
            # Shed: never admitted, contributes nothing.
            job(shape="bulk", arrival=5.0, admitted=-1.0, finished=-1.0,
                state="shed", expect_shed=True),
            # Admitted but not finished: a wait, no turnaround.
            job(arrival=6.0, admitted=9.0, finished=-1.0, state="running"),
        ]
        t = run.job_times(jobs)
        self.assertEqual(t["turnaround"], [8.0, 2.0])
        self.assertEqual(t["admit_wait"], [1.5, 0.0, 3.0])
        self.assertEqual(t["run"], [6.5, 2.0])

    def test_instance_makespans(self):
        jobs = [
            job(instance=0, arrival=0.0, finished=9.0),
            job(instance=0, arrival=2.0, finished=12.0),
            job(shape="bulk", instance=0, arrival=3.0, admitted=-1.0,
                finished=6.0, state="shed", expect_shed=True),
            job(instance=1, arrival=100.0, finished=104.5),
            # An instance with a job that never ended has no makespan.
            job(instance=2, arrival=200.0, finished=210.0),
            job(instance=2, arrival=201.0, admitted=-1.0, finished=-1.0,
                state="queued"),
        ]
        self.assertEqual(run.instance_makespans(jobs), [12.0, 4.5])

    def test_highest_class(self):
        jobs = [job(priority=1), job(priority=5, finished=9.0),
                job(priority=5, finished=7.0), job(priority=3)]
        hi = run.highest_class(jobs)
        self.assertEqual([j["finished_s"] for j in hi], [9.0, 7.0])


class FailureAccounting(unittest.TestCase):
    def test_expected_shed_counts_in_failed_frac_but_passes_check(self):
        a = run.account([
            job(), job(shape="agg"),
            job(shape="bulk", state="shed", expect_shed=True, admitted=-1.0,
                finished=-1.0),
        ])
        self.assertEqual(a["attempted"], 3)
        self.assertEqual(a["failed"], 1)
        self.assertEqual(a["completed"], 2)
        self.assertAlmostEqual(a["failed_frac"], 1 / 3)
        self.assertEqual(a["problems"], [])

    def test_inexact_and_wrong_output_fail_the_check(self):
        a = run.account([
            job(shape="hpa", exact=False),
            job(output=41, expected=42),
            job(output=42, expected=42),
        ])
        self.assertEqual(a["failed"], 2)
        self.assertEqual(len(a["problems"]), 2)
        self.assertIn("inexact", a["problems"][0])
        self.assertIn("expected 42", a["problems"][1])

    def test_unexpected_shed_and_unfinished_fail_the_check(self):
        a = run.account([
            job(state="shed", admitted=-1.0, finished=-1.0),
            job(state="queued", admitted=-1.0, finished=-1.0),
            job(shape="bulk", expect_shed=True),  # completed: wrong
        ])
        self.assertEqual(a["failed"], 2)
        self.assertEqual(len(a["problems"]), 3)


class DeterminismGuard(unittest.TestCase):
    def test_identical_records_pass(self):
        r = record([job()])
        self.assertEqual(run.determinism_problems([r, r], traced=r,
                                                  ledger=run.canonical(r)),
                         [])

    def test_any_difference_is_reported(self):
        r = record([job()])
        other_value = record([job()], virtual_s=10.000001)
        other_counts = record([job()], digest="abd")
        other_jobs = record([job(finished=5.5)])
        self.assertEqual(len(run.determinism_problems([r, other_value])), 1)
        self.assertEqual(
            len(run.determinism_problems([r], traced=other_counts)), 1)
        self.assertEqual(
            len(run.determinism_problems(
                [r], ledger=run.canonical(other_jobs))), 1)


class Compute(unittest.TestCase):
    def raw(self, jobs, traced=False):
        rec = record(jobs)
        raw = {
            "samples": [{"host_s": 2.0, "user_s": 1.9, "sys_s": 0.1,
                         "minflt": 1000, "probe_s": 0.2}],
            "setup_s": 0.2,
            "generate_s": 0.1,
            "peak_rss_mb": 100.0,
            "reference_s": 1.0,
            "records": [rec],
        }
        if traced:
            raw["traced"] = {
                "host_s": 2.5, "trace_dropped": 7, "sampled_events": 1e6,
                "crit": {c: 1.0 for c in run.CRIT_CATEGORIES},
                "record": rec}
        return raw

    def test_single_job_run_reports_every_metric(self):
        r = run.compute(self.raw([job(shape="hpa", priority=0, arrival=0.0,
                                      admitted=0.0, finished=10.0)],
                                 traced=True))
        self.assertEqual(set(r["end_to_end"]), set(run.END_TO_END))
        self.assertEqual(set(r["per_layer"]), set(run.PER_LAYER))
        e = r["end_to_end"]
        self.assertEqual(e["virtual_s"], 10.0)
        self.assertEqual(e["turnaround_mean_s"], 10.0)
        self.assertEqual(e["hi_turnaround_p70_s"], 10.0)
        self.assertEqual(e["completed_frac"], 1.0)
        self.assertEqual(e["setup_s"], 0.2)
        layer = r["per_layer"]
        self.assertEqual(layer["sched.run_p50_s"], 0.0)
        self.assertAlmostEqual(layer["obs.trace_overhead_s"], 0.5)
        self.assertAlmostEqual(layer["sim.host_us_per_event"], 2.0)
        self.assertEqual(r["problems"], [])

    def test_short_stream_breaks_the_percentile_rule(self):
        jobs = [job(arrival=float(i), admitted=float(i),
                    finished=float(i) + 1) for i in range(50)]
        r = run.compute(self.raw(jobs))
        self.assertTrue(any("p90" in p for p in r["problems"]))

    def test_stream_metrics(self):
        # 40 instances of three jobs; the first job of each is high priority.
        jobs = [job(priority=5 if i % 3 == 0 else 3, instance=i // 3,
                    arrival=float(i), admitted=float(i),
                    finished=float(i) + 1 + i % 3) for i in range(120)]
        r = run.compute(self.raw(jobs))
        self.assertEqual(r["problems"], [])
        e = r["end_to_end"]
        self.assertAlmostEqual(e["turnaround_mean_s"], 2.0)
        self.assertEqual(e["turnaround_p90_s"], 3.0)
        self.assertEqual(e["hi_turnaround_p70_s"], 1.0)
        # Each instance spans 3i .. 3i + 2 + 3.
        self.assertEqual(e["virtual_s"], 5.0)

    def test_stream_failures_are_counted(self):
        jobs = [job(priority=5 if i % 4 == 0 else 3, instance=i // 4,
                    arrival=float(i), admitted=float(i),
                    finished=float(i) + 2)
                for i in range(120)]
        jobs[3]["exact"] = False
        r = run.compute(self.raw(jobs))
        self.assertEqual(r["failed"], 1)
        self.assertEqual(r["attempted"], 120)
        self.assertAlmostEqual(r["per_layer"]["failed_frac"], 1 / 120)
        self.assertAlmostEqual(r["end_to_end"]["completed_frac"], 119 / 120)


class BenchmarkJson(unittest.TestCase):
    def test_metric_tables_match(self):
        path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            doc = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(run.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
