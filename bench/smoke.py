"""Smoke test of the benchmark itself: every workload at a tiny size, both modes.

    python3 bench/smoke.py        (from the repository root; about a minute)

Checks that each run's result has exactly the contract's keys, that every
metric BENCHMARK.json names is present with its unit, that the traced run's
exact-count predictions hold, and that the failure counter catches a wrong
expected verdict planted in the benchmark's own checker.
"""

import json
import numbers
import sys
import unittest

import run

run.import_qent()

import spans  # noqa: E402  (after qent is importable)
import workloads  # noqa: E402

TINY_SECONDS = 0.5
SEED = 7
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name, trace):
    cls = workloads.WORKLOADS[name]
    saved = cls.rss_after
    cls.rss_after = 3
    try:
        return run.run(name, SEED, TINY_SECONDS, trace)
    finally:
        cls.rss_after = saved


class BenchmarkSmoke(unittest.TestCase):
    def test_declared_metrics_match_the_code(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(declared, spans.metric_units())
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(workloads.WORKLOADS))

    def _assert_result(self, result, units, nullable):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(units))
        for name, unit in units.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            if metric["value"] is None and nullable:
                continue
            self.assertIsInstance(metric["value"], numbers.Real, name)

    def test_each_workload_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                info, result = _tiny(name, trace=False)
                self._assert_result(result, run.END_TO_END_UNITS, nullable=False)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0.0)
                self.assertEqual(info["failed_ratio"], 0.0)

    def test_each_workload_traced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                info, result = _tiny(name, trace=True)
                self._assert_result(result, spans.metric_units(), nullable=True)
                self.assertIsNotNone(result["metrics"]["trace.overhead_ratio"]["value"])
                for prediction, outcome in info["predictions"].items():
                    self.assertTrue(outcome["held"], (prediction, outcome))
                if name != "verify-all":
                    self.assertEqual(len(info["predictions"]), 3)

    def test_failure_counter_catches_a_wrong_expected_verdict(self):
        honest = workloads.expected_ppt
        workloads.expected_ppt = lambda rho: not honest(rho)
        try:
            for name in ("ppt-stream", "q-sweep"):
                with self.subTest(workload=name):
                    info, result = _tiny(name, trace=False)
                    self.assertFalse(result["correct"])
                    self.assertEqual(result["failed"], result["attempted"])
        finally:
            workloads.expected_ppt = honest

    def test_a_missing_function_reads_null_and_is_restored(self):
        import qent.entangle

        original = qent.entangle.is_positive_definite_single
        del qent.entangle.is_positive_definite_single
        try:
            tracer = spans.Tracer()
            tracer.install()
            tracer.restore()
            metrics = tracer.metrics()
        finally:
            qent.entangle.is_positive_definite_single = original
        self.assertIsNone(metrics["entangle.is_positive_definite_single.calls"])
        self.assertEqual(metrics["entangle.ppt_check.calls"], 0)
        holders = [qent, qent.cli, qent.verify, qent.entangle]
        for layer, path, _ in spans.TARGETS:
            obj = spans._resolve(sys.modules[f"qent.{layer}"], path)
            self.assertFalse(hasattr(obj, "__wrapped__"), path)
            for module in holders:
                held = getattr(module, path, obj)
                self.assertFalse(hasattr(held, "__wrapped__"), (module.__name__, path))
        self.assertFalse(any(hasattr(f, "__wrapped__") for f in qent.verify._SUITES.values()))


if __name__ == "__main__":
    unittest.main()
