"""Self-tests for the benchmark's own code: python3 perfbench/selftest.py"""

from __future__ import annotations

import json
import sys
import unittest

import run

run.load_partitio()

import numpy as np  # noqa: E402

from partitio import arcs, cli, counting, expsums, weights  # noqa: E402

import workloads  # noqa: E402
from oracles import Oracles  # noqa: E402
from tracer import LAYERS, Span, Tracer, layer_metrics  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span("cli.main", 0.0, 10.0, -1, 0, None),
            Span("report.emit", 2.0, 5.0, 0, 0, {"bytes": 7}),
            Span("constants.round_up_str", 3.0, 4.0, 1, 0, None),
            Span("counting.representation_counts", 6.0, 9.0, 0, 0, None),
            Span("counting.power_convolution", 6.5, 8.0, 3, 0, None),
        ]
        m = layer_metrics(spans, wall_s=20.0)
        self.assertAlmostEqual(m["cli.self_s"], 4.0)
        self.assertAlmostEqual(m["report.self_s"], 2.0)
        self.assertAlmostEqual(m["constants.self_s"], 1.0)
        self.assertAlmostEqual(m["counting.self_s"], 3.0)
        self.assertAlmostEqual(sum(m[f"{layer}.self_s"] for layer in LAYERS), 10.0)
        self.assertAlmostEqual(m["cli.share"], 0.2)
        # the inner counting span stays inside its layer: one entry, not two
        self.assertEqual((m["counting.calls"], m["report.calls"], m["cli.calls"]), (1, 1, 1))
        self.assertEqual(m["report.bytes"], 7)


class Tracing(unittest.TestCase):
    SITES = [(expsums, "sample_slice_alphas"), (expsums, "exp_sum_many"),
             (counting, "exp_sum_many"), (cli, "sup_profile"), (cli, "emit"),
             (arcs.Dissection, "in_major"), (arcs.Dissection, "assign")]

    def test_wraps_import_sites_and_restores(self):
        before = {(owner, attr): getattr(owner, attr) for owner, attr in self.SITES}
        tracer = Tracer()
        tracer.install()
        try:
            for owner, attr in self.SITES:
                self.assertIsNot(getattr(owner, attr), before[owner, attr], attr)
            w = weights.make_weight("squares", 10**6)
            expsums.sup_profile(w, 10**6, [8.0], samples_per_slice=10, seed=3)
        finally:
            tracer.restore()
        for owner, attr in self.SITES:
            self.assertIs(getattr(owner, attr), before[owner, attr], attr)
        names = [s.name for s in tracer.spans]
        top = names.index("expsums.sup_profile")
        children = {tracer.spans[i].name for i, s in enumerate(tracer.spans) if s.parent == top}
        self.assertIn("arcs.sample_slice_alphas", children)
        self.assertIn("expsums.exp_sum_many", children)
        self.assertIn("arcs.dirichlet_approx", names)


class Oracle(unittest.TestCase):
    def test_count_off_by_one_fails(self):
        job = {"job": "cli", "argv": ["counts", "--k", "3", "--s", "4", "--limit", "600",
                                      "--format", "csv"]}
        rc, out = workloads.run_job(job)
        self.assertEqual(Oracles().check(job, (rc, out)), [])
        lines = out.split("\n")
        n, count = lines[100].split(",")
        lines[100] = f"{n},{int(count) + 1}"
        self.assertTrue(Oracles().check(job, (rc, "\n".join(lines))))

    def test_table_entry_off_by_one_fails(self):
        job = {"job": "representation_counts", "k": 3, "s": 4, "N": 3000}
        table = workloads.run_job(job)
        self.assertEqual(Oracles().check(job, table), [])
        table.counts[1234] += 1
        self.assertTrue(Oracles().check(job, table))

    def test_changed_output_between_passes_fails(self):
        bench = run.Bench([{"job": "smooth_set", "P": 1000, "R": 7}])
        bench.run_pass()
        bench.digests[0] = run.digest(np.arange(3))
        bench.run_pass()
        self.assertEqual((bench.attempted, bench.failed), (2, 1))


class Calibration(unittest.TestCase):
    def test_scaling_uses_the_calibrations_around_each_job(self):
        ref = run.REF_CAL_S
        self.assertEqual(run.at_reference_speed([0.5, 0.25], [ref] * 3), [0.5, 0.25])
        # a machine at half speed everywhere: every latency is halved
        self.assertEqual(run.at_reference_speed([0.5, 0.25], [2 * ref] * 3), [0.25, 0.125])
        # the first job ran at half speed and the last at full speed
        jobs = 4 * run.CAL_WINDOW
        cal = [2 * ref] * (2 * run.CAL_WINDOW) + [ref] * (jobs + 1 - 2 * run.CAL_WINDOW)
        scaled = run.at_reference_speed([1.0] * jobs, cal)
        self.assertEqual((scaled[0], scaled[-1]), (0.5, 1.0))


class Seeds(unittest.TestCase):
    def test_same_seed_same_jobs_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            first = workloads.job_list(workload, 1)
            self.assertEqual(first, workloads.job_list(workload, 1))
            inputs = sorted(map(json.dumps, first))
            self.assertNotEqual(inputs, sorted(map(json.dumps, workloads.job_list(workload, 2))))
            self.assertGreaterEqual(len(first), 100)


if __name__ == "__main__":
    sys.exit(not unittest.main(exit=False).result.wasSuccessful())
