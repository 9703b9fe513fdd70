#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the driver, check the self-time attribution on hand-built
traces, run short measured phases of the workloads to show that set-up
work (the preload and its compactions) stays out of the measured-phase
deltas, and check the report and diff logic of report.py.
"""

import os
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import report  # noqa: E402
import run  # noqa: E402

def short_run(workload, trace=0):
    result, _ = run.run_driver(workload, seed=7, seconds=2, trace=trace,
                               deadline=time.monotonic() + 120)
    return result


def value(result, name):
    return result["metrics"][name]["value"]


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(("perfbench_driver", "perfbench_selftest"))
        cls.spec = run.load_spec()

    def test_self_times(self):
        subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_selftest")],
                       check=True)

    def test_phase_scoping_sync_full(self):
        r = short_run("maintain-sync")
        info = r["info"]
        self.assertTrue(r["correct"], info)
        self.assertEqual(r["failed"], 0)
        self.assertTrue(info["selfcheck.ok"], info)
        # Phase rpc.put = base puts x (1 + index RPCs per put) + the
        # getByIndex repair deletes (none under sync-full).
        base = info["selfcheck.base_puts"]
        expected = base * (1 + value(r, "core.index_rpcs_per_put"))
        self.assertAlmostEqual(info["selfcheck.rpc_put_calls"], expected,
                               delta=1e-6 * expected)
        self.assertEqual(info["selfcheck.repair_deletes"], 0)
        # The preload's puts and the settle compactions happened before the
        # phase and are absent from its deltas.
        self.assertGreaterEqual(info["selfcheck.rpc_put_calls_before_phase"],
                                info["items"])
        self.assertGreater(info["selfcheck.compactions_before_phase"], 0)

    def test_phase_scoping_async(self):
        r = short_run("maintain-async")
        info = r["info"]
        self.assertTrue(r["correct"], info)
        self.assertTrue(info["selfcheck.ok"], info)
        # Async maintenance happens off the put path...
        self.assertEqual(value(r, "core.index_rpcs_per_put"), 0)
        # ...but the phase still owns it: the drained APS work matches two
        # index RPCs (PI + DI) per touched index.
        self.assertEqual(info["selfcheck.index_puts"],
                         info["selfcheck.expected_index_puts"])

    def test_traced_run_adds_up(self):
        r = short_run("query-mixed", trace=1)
        self.assertTrue(r["correct"], r["info"])
        line = run.contract_line(r, self.spec, trace=1)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in self.spec["per_layer"]})
        # The layer self times account for most of each op's latency; the
        # residual is what no span covers.
        for op in report.CLASSES:
            p = f"trace.{op}."
            self.assertGreater(value(r, p + "samples"), 0, op)
            latency = value(r, p + "latency_us")
            self.assertGreater(latency, 0, op)
            self.assertLess(abs(value(r, p + "residual_us")),
                            0.3 * latency, op)
        rationale = report.load_json(os.path.join(report.BENCH_DIR,
                                                  "rationale.json"))
        text = report.render(r, self.spec, rationale, untraced=r)
        self.assertIn("Self time per layer", text)
        self.assertIn("not observable from outside", text)


class CompareTest(unittest.TestCase):
    SPEC = {"end_to_end": [
        {"name": "lat_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}

    @staticmethod
    def result(lat, rate, workload="w"):
        return {"info": {"workload": workload},
                "metrics": {"lat_us": {"value": lat, "unit": "us"},
                            "rate": {"value": rate, "unit": "1/s"}}}

    def verdicts(self, base, new):
        text, ok = report.compare(base, new, self.SPEC)
        rows = {line.split()[1]: line for line in text.splitlines()[2:-1]}
        return rows, ok

    def test_regression_beyond_bound(self):
        base = [self.result(100, 1000), self.result(101, 1001),
                self.result(99, 999)]
        new = [self.result(120, 1000), self.result(121, 1000),
               self.result(119, 1000)]
        rows, ok = self.verdicts(base, new)
        self.assertFalse(ok)
        self.assertIn("REGRESSION", rows["lat_us"])
        self.assertIn("within bound", rows["rate"])

    def test_noisy_base_is_unresolved(self):
        base = [self.result(v, 1000) for v in (60, 100, 140, 80, 120)]
        new = [self.result(v, 1000) for v in (65, 105, 135, 85, 115)]
        rows, ok = self.verdicts(base, new)
        self.assertTrue(ok)
        self.assertIn("unresolved", rows["lat_us"])

    def test_improvement(self):
        base = [self.result(100, 1000), self.result(102, 1000)]
        new = [self.result(50, 1500), self.result(52, 1490)]
        rows, ok = self.verdicts(base, new)
        self.assertTrue(ok)
        self.assertIn("better", rows["lat_us"])
        self.assertIn("better", rows["rate"])

    def test_spread_is_quartile_distance_over_median(self):
        # statistics.quantiles(n=4) of 1..10: 2.75, 5.5, 8.25.
        values = [float(v) for v in range(1, 11)]
        self.assertAlmostEqual(report.spread(values), (8.25 - 2.75) / 5.5)


if __name__ == "__main__":
    unittest.main()
