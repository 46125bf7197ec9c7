"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest perfbench/test_run.py

The last test builds the runner and measures every workload briefly in
both modes (about a minute on a 2-core host).
"""

import json
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def op(calls, warmup=False, traced=False, wall=1.0, events=100, layers=None):
    o = {"warmup": warmup, "traced": traced, "wall_s": wall, "cpu_s": wall, "events": events,
         "calls": [{"name": "simulate", "digest": d, "error": e} for d, e in calls]}
    if layers is not None:
        o["layers"] = layers
    return o


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark()

    def test_top_level_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertLessEqual(os.path.getsize(run.BENCHMARK_JSON), 64 * 1024)

    def test_workloads(self):
        ws = self.bench["workloads"]
        self.assertTrue(2 <= len(ws) <= 8)
        for w in ws:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        e2e, layers = self.bench["end_to_end"], self.bench["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [m["name"] for m in e2e + layers]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = next(m for m in e2e if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e))

    def test_fits_the_time_budget(self):
        # A full evaluation is 4 + 22 runs per workload, within 3420 s with
        # two cold builds (~30 s each on a 2-core host). Beyond
        # run_seconds, a server run costs ~1.5 s (set-up probes, build
        # check, the last op's overrun) and a fleet run ~4.5 s (its
        # 1-worker replay); the 4 extra runs are costed as fleet runs.
        rs = self.bench["run_seconds"]
        servers = sum(w["name"].startswith("server") for w in self.bench["workloads"])
        fleets = len(self.bench["workloads"]) - servers
        total = 22 * servers * (rs + 1.5) + (22 * fleets + 4) * (rs + 4.5) + 2 * 60
        self.assertLess(total, 3420)


class AccountingTest(unittest.TestCase):
    def test_pinned_digests_decide_failures(self):
        r = {"calls_per_op": 2, "ops": [op([("a", None), ("b", None)]),
                                        op([("a", None), ("x", None)])]}
        self.assertEqual(run.check_calls(r, ["a", "b"]), (4, 1))
        self.assertEqual(run.check_calls(r, ["a", "c"]), (4, 2))
        self.assertEqual(run.check_calls(r, ["z", "c"]), (4, 4))

    def test_unpinned_seed_checks_self_consistency(self):
        r = {"calls_per_op": 1, "ops": [op([("a", None)]), op([("a", None)]), op([("b", None)])]}
        self.assertEqual(run.check_calls(r, None), (3, 1))

    def test_panics_and_failure_artifacts_fail(self):
        r = {"calls_per_op": 2, "ops": [op([("a", None), ("b", "invariant violated")]),
                                        {"warmup": False, "traced": False, "panicked": True}]}
        self.assertEqual(run.check_calls(r, ["a", "b"]), (4, 3))

    def test_replay_is_checked_but_not_timed(self):
        r = {"calls_per_op": 1, "peak_rss_mb": 5.0,
             "ops": [op([("a", None)], warmup=True, wall=9.0), op([("a", None)], wall=2.0),
                     op([("a", None)], wall=4.0), {"replay": True, "calls": [
                         {"name": "simulate", "digest": "z", "error": None}]}]}
        self.assertEqual(run.check_calls(r, ["a"]), (4, 1))
        e2e = run.end_to_end(r, [(0.5, 0.1), (0.7, 0.1), (0.6, 0.1)])
        self.assertEqual(e2e["wall_s"], 2.0)
        self.assertEqual(e2e["events_per_s"], 50.0)
        self.assertEqual(e2e["setup_s"], 0.6)

    def test_per_layer_medians_and_trace_overhead(self):
        r = {"ops": [op([], warmup=True, wall=5.0), op([], wall=1.0),
                     op([], traced=True, wall=1.5, layers={"x": 1.0}),
                     op([], wall=1.2), op([], traced=True, wall=1.7, layers={"x": 3.0})]}
        m = run.per_layer(r, [(0.1, 0.02), (0.1, 0.04)])
        self.assertEqual(m["x"], 2.0)
        self.assertAlmostEqual(m["trace.overhead_s"], 1.5 - 1.0)
        self.assertAlmostEqual(m["setup.config_s"], 0.03)


class CompareTest(unittest.TestCase):
    def record(self, tmp, name, cpu, value):
        fp = {k: "same" for k in run.HOST_KEYS}
        fp["cpu_model"] = cpu
        rec = {"fingerprint": fp, "workload": "w", "seed": 1, "trace": 0,
               "result": {"metrics": {"wall_s": {"value": value, "unit": "s"}}}}
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump(rec, f)
        return path

    def test_refuses_different_hosts(self):
        with tempfile.TemporaryDirectory() as tmp:
            args = type("A", (), {"base": [self.record(tmp, "a", "cpu1", 1.0)],
                                  "head": [self.record(tmp, "b", "cpu2", 1.0)]})
            with self.assertRaises(run.BenchError):
                run.cmd_compare(args)

    def test_flags_a_regression_beyond_the_bound(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = [self.record(tmp, f"a{i}", "cpu", 1.0) for i in range(3)]
            head = [self.record(tmp, f"b{i}", "cpu", 2.0) for i in range(3)]
            args = type("A", (), {"base": base, "head": head})
            self.assertEqual(run.cmd_compare(args), 1)
            args.head = [self.record(tmp, f"c{i}", "cpu", 1.01) for i in range(3)]
            self.assertEqual(run.cmd_compare(args), 0)


class EndToEndTest(unittest.TestCase):
    """Builds the runner and measures every workload briefly."""

    @classmethod
    def setUpClass(cls):
        cls.bench = run.load_benchmark()
        cls.binary = run.build()

    def measure(self, workload, trace):
        out, setups = run.measure(self.binary, workload, 3, 1, trace)
        return out, run.result(out, setups, trace, self.bench)

    def test_every_workload_emits_every_metric_and_checks_out(self):
        layers = {}
        for w in self.bench["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    out, res = self.measure(w["name"], trace)
                    self.assertTrue(res["correct"], res)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 3 * out["calls_per_op"])
                    specs = self.bench["per_layer" if trace else "end_to_end"]
                    self.assertEqual(list(res["metrics"]), [m["name"] for m in specs])
                    for m in specs:
                        self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
                    if trace:
                        layers[w["name"]] = {k: v["value"] for k, v in res["metrics"].items()}
                    else:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
        # The traced run is not vacuous: idle-skip chains matter at light
        # load, the fleet keeps both workers busy, and each layer shows
        # time where it runs.
        hot, light, fleet = (layers["server_hot"], layers["server_light_analyze"],
                             layers["fleet_diurnal"])
        self.assertGreater(light["server.chain_share"], hot["server.chain_share"])
        self.assertGreater(fleet["exec.busy_share"], 0.5)
        self.assertGreater(light["sleep.analyze_s"], 0)
        self.assertGreater(light["telemetry.export_s"], 0)
        self.assertEqual(hot["sleep.intervals"], 0)
        self.assertGreater(hot["server.run_s"], 0)
        self.assertGreater(fleet["cluster.report_s"], 0)
        self.assertGreater(fleet["cluster.run_s"], fleet["cluster.report_s"])
        self.assertGreater(fleet["cluster.pooled_samples"], 0)


if __name__ == "__main__":
    unittest.main()
