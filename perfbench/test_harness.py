"""Self-test of the benchmark harness.

    python3 perfbench/test_harness.py

Covers the tail-percentile choice with its sample count, the self-time
arithmetic, the speed normalization, the correctness gates (a tampered
polynomial, a wrong closed form) and the agreement of BENCHMARK.json with
the metrics the harness prints.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from altknot import families as fam  # noqa: E402
from altknot import polynomials as poly  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from harness import (REF_MS, ROOT, NullTracer, SpeedProbe, Tracer,  # noqa: E402
                     busy_by_name, digest, percentile, reference_task, self_times)


class PercentileTest(unittest.TestCase):
    def test_ninety_of_a_hundred_leaves_ten_beyond(self):
        cut, beyond = percentile([float(v) for v in range(1, 101)], 90)
        self.assertAlmostEqual(cut, 90.1)
        self.assertEqual(beyond, 10)

    def test_short_run_reports_too_few_beyond(self):
        _, beyond = percentile([float(v) for v in range(1, 51)], 90)
        self.assertEqual(beyond, 5)

    def test_median_is_the_fiftieth(self):
        cut, beyond = percentile([3.0, 1.0, 2.0], 50)
        self.assertEqual((cut, beyond), (2.0, 1))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [[ROOT, 0, 100, None, 0],
                 ["a", 10, 30, 0, 0],
                 ["b", 20, 40, 0, 0],      # overlaps a: the union counts once
                 ["a", 50, 60, 0, 0],
                 ["c", 90, 120, 0, 0],     # runs past its parent: clipped
                 [ROOT, 200, 210, None, 1]]
        self.assertEqual(self_times(spans), [50, 20, 20, 10, 30, 10])
        busy, calls = busy_by_name(spans)
        self.assertEqual(busy, {ROOT: 60, "a": 30, "b": 20, "c": 30})
        self.assertEqual(calls, {ROOT: 2, "a": 2, "b": 1, "c": 1})

    def test_flat_trace_accounts_for_item_time(self):
        tracer = Tracer()
        for item in range(3):
            tracer.begin_item(item)
            tracer.call("x", sum, range(1000))
            tracer.call("y", sorted, range(1000))
            tracer.end_item()
        busy, _ = busy_by_name(tracer.spans)
        item_ns = sum(s[2] - s[1] for s in tracer.spans if s[0] == ROOT)
        self.assertEqual(sum(busy.values()), item_ns)
        self.assertTrue(all(s[3] == 0 for s in tracer.spans[1:3]))


class SpeedProbeTest(unittest.TestCase):
    def setUp(self):
        self.probe = SpeedProbe(window_s=0.25)
        self.probe.starts = [0.0, 0.1, 0.2, 1.0, 1.1]
        self.probe.ms = [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_scale_uses_the_median_of_the_probes_in_the_window(self):
        # window 0.05..0.6 holds the probes at 0.1 and 0.2
        self.assertEqual(self.probe.scale(0.3, 0.35), REF_MS / 3.0)
        # window 0.65..1.45 holds the two 8 ms probes
        self.assertEqual(self.probe.scale(0.9, 1.2), REF_MS / 8.0)

    def test_an_item_without_a_probe_nearby_is_an_error(self):
        with self.assertRaises(ValueError):
            self.probe.scale(5.0, 5.1)

    def test_probes_record_the_reference_task(self):
        probe = SpeedProbe(every_s=3600)
        probe.maybe()
        probe.maybe()  # too soon after the first: skipped
        self.assertEqual(len(probe.ms), 1)
        self.assertGreater(probe.ms[0], 0)
        reference_task()  # checks its own result


class GateTest(unittest.TestCase):
    key = "f:j=2,k=2"

    def setUp(self):
        self.spec = fam.parse_spec_string(self.key)
        self.p = fam.closed_form(self.spec)
        self.expected = {self.key: digest(str(self.p))}

    def test_recorded_output_passes(self):
        workloads.verify_member(NullTracer(), self.key, self.spec, self.expected)

    def test_tampered_polynomial_fails_the_digest_gate(self):
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_digest(self.expected, self.key, str(self.p + 1))

    def test_wrong_recorded_digest_fails_the_member(self):
        expected = {self.key: digest(str(self.p + poly.X))}
        with self.assertRaises(workloads.CheckFailed):
            workloads.verify_member(NullTracer(), self.key, self.spec, expected)

    def test_wrong_closed_form_fails_the_member(self):
        right = fam.closed_form
        with mock.patch.object(fam, "closed_form", lambda spec: right(spec) + 1):
            with self.assertRaises(workloads.CheckFailed):
                workloads.verify_member(NullTracer(), self.key, self.spec,
                                        self.expected)

    def test_recorded_digests_cover_every_member(self):
        sweep = workloads.load_expected("sweep")
        self.assertEqual(len(sweep["members"]), 852)
        self.assertEqual(set(sweep["digests"]),
                         set(sweep["members"]) | {workloads.CLI_KEY})
        laws = workloads.load_expected("laws")
        self.assertEqual(set(laws["digests"]), {k for slot in laws["slots"] for k in slot})


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_what_the_harness_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
