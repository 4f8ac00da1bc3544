#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at a small size.

    python3 rzbench/tests/test_determinism.py     (from the checkout root)

For each workload: two reps with one seed report identical inputs,
virtual-clock metrics, waf and error_rate; a rep with another seed
draws different inputs; a traced rep agrees with the untraced one on
every virtual metric and passes its conservation checks. Also checks
that run.py reports exactly the metrics BENCHMARK.json declares.
"""

import importlib.util
import json
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
# Small sizes; kv_bulk needs more than one memtable of data so that
# its degraded gets reach the array and reconstruct.
SCALE = {"fio_timing": 0.05, "kv_bulk": 0.3, "oltp_sync": 0.05}

spec = importlib.util.spec_from_file_location(
    "rzbench_run", os.path.join(BENCH_DIR, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def setUpModule():
    run.build()


class Determinism(unittest.TestCase):
    def check_workload(self, workload):
        scale = SCALE[workload]
        a = run.run_rep(workload, 7, False, scale)
        b = run.run_rep(workload, 7, False, scale)
        other = run.run_rep(workload, 8, False, scale)
        traced = run.run_rep(workload, 7, True, scale)
        for rep in (a, b, other, traced):
            self.assertEqual(rep["failed"], 0)
            self.assertGreater(rep["attempted"], 0)
            for name, ok in rep["checks"].items():
                self.assertTrue(ok, "%s: check %s failed" % (workload, name))
        self.assertEqual(a["inputs_digest"], b["inputs_digest"])
        self.assertEqual(a["virtual"], b["virtual"])
        self.assertEqual(a["virtual"]["error_rate"], 0)
        self.assertNotEqual(a["inputs_digest"], other["inputs_digest"])
        self.assertEqual(a["virtual"], traced["virtual"])
        self.assertEqual(set(traced["layers"]) | {"trace.overhead_s"},
                         set(run.PER_LAYER))

    def test_fio_timing(self):
        self.check_workload("fio_timing")

    def test_kv_bulk(self):
        self.check_workload("kv_bulk")

    def test_oltp_sync(self):
        self.check_workload("oltp_sync")


class Declaration(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
        with open(path) as f:
            decl = json.load(f)
        e2e = {m["name"]: m["unit"] for m in decl["end_to_end"]}
        self.assertEqual(e2e, {**run.E2E_HOST, **run.E2E_VIRTUAL})
        layers = {m["name"]: m["unit"] for m in decl["per_layer"]}
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in decl["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
