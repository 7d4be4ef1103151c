"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root (takes about two minutes)::

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json
with its unit, that the seed changes the inputs but no metric name,
that a wrong solution is counted as failed, that a lagging load
generator voids its run, and that traced self times account for the
solve wall.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from unittest import mock

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import service_workloads  # noqa: E402
import solver_workloads  # noqa: E402
from oracle import DirectOracle  # noqa: E402
from tracing import Tracer  # noqa: E402

RATES = ["--rate-rps", "10", "--latency-limit-ms", "1000"]


def run_cli(workload, seed, trace, seconds="1"):
    """Run the benchmark command; returns ``(result, details)``."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace), "--tiny"] + RATES
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


class MetricContract(unittest.TestCase):
    """Every metric of BENCHMARK.json, with its unit, on every workload."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        cls.e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_tables_match_benchmark_json(self):
        self.assertEqual(bench.E2E_METRICS, self.e2e)
        self.assertEqual(bench.LAYER_METRICS, self.layers)
        self.assertEqual(
            set(self.workloads),
            set(bench.SOLVER_WORKLOADS + bench.SERVICE_WORKLOADS))

    def test_every_workload_emits_every_metric(self):
        for workload in self.workloads:
            for trace, table in ((0, self.e2e), (1, self.layers)):
                with self.subTest(workload=workload, trace=trace):
                    result, details = run_cli(workload, 3, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in
                         result["metrics"].items()}, table)
                    if trace and workload in bench.SOLVER_WORKLOADS:
                        # Self times under each solve add up to the
                        # solve wall measured outside the tracer.
                        accounted = result["metrics"][
                            "trace.accounted_frac"]["value"]
                        self.assertLess(abs(accounted - 1.0), 0.02)
                    if not trace:
                        env = details["environment"]
                        for key in ("engine", "kernels", "numpy", "scipy",
                                    "nproc"):
                            self.assertIn(key, env)

    def test_seed_changes_inputs_not_names(self):
        r1, d1 = run_cli("stacked_batch8", 1, 0)
        _, again = run_cli("stacked_batch8", 1, 0)
        r2, d2 = run_cli("stacked_batch8", 2, 0)
        self.assertEqual(d1["first_input_sha256"],
                         again["first_input_sha256"])
        self.assertNotEqual(d1["first_input_sha256"],
                            d2["first_input_sha256"])
        self.assertEqual(set(r1["metrics"]), set(r2["metrics"]))

        def plan_bodies(seed):
            return [r.body for r in
                    service_workloads.build_plan(seed, 10.0, 1.0)]

        self.assertEqual(plan_bodies(1), plan_bodies(1))
        self.assertNotEqual(plan_bodies(1), plan_bodies(2))


class OracleCountsFailures(unittest.TestCase):

    def test_direct_oracle_rejects_a_perturbed_solution(self):
        from repro.grid import test_config
        from repro.precond import make_preconditioner
        from repro.solvers import ChronGearSolver, SerialContext

        cfg = test_config(24, 32)
        pre = make_preconditioner("diagonal", cfg.stencil)
        solver = ChronGearSolver(SerialContext(cfg.stencil, pre), tol=1e-12)
        b = np.random.default_rng(0).standard_normal(cfg.shape) * cfg.mask
        x = solver.solve(b).x
        oracle = DirectOracle(cfg.stencil)
        self.assertTrue(oracle.check(b, x, 1e-12))
        bad = x.copy()
        j, i = np.argwhere(cfg.mask)[0]
        bad[j, i] *= 1.0 + 1e-6
        self.assertFalse(oracle.check(b, bad, 1e-12))
        bad[j, i] = np.nan
        self.assertFalse(oracle.check(b, bad, 1e-12))

    def test_workload_counts_perturbed_solutions_as_failed(self):
        from repro.solvers import ChronGearSolver

        original = ChronGearSolver.solve

        def perturbed(self, b, *args, **kwargs):
            result = original(self, b, *args, **kwargs)
            result.x = result.x * (1.0 + 1e-6)
            return result

        workdir = os.path.join(ROOT, ".perfbench", "selftest-perturbed")
        try:
            with mock.patch.object(ChronGearSolver, "solve", perturbed):
                out = solver_workloads.run("stacked_batch8", 1, 0.1, False,
                                           Tracer(), workdir, tiny=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertGreater(out["attempted"], 0)
        self.assertEqual(out["failed"], out["attempted"])
        self.assertEqual(out["e2e"]["ok_frac"], 0.0)


class OpenLoopLag(unittest.TestCase):

    def test_lagging_generator_voids_the_run(self):
        slow_ms = service_workloads.LAG_LIMIT_MS * 1.5

        def fake_http(port, method, path, body=None, timeout=None):
            if method == "POST":
                # A sender stuck this long falls behind a 100 rps plan.
                time.sleep(slow_ms / 1e3)
                return 202, b'{"job": "job-1"}'
            return 200, b'{"event": "done"}\n'

        plan = [service_workloads.Request(k, b"{}", None, 1e-10)
                for k in range(3)]
        with mock.patch.object(service_workloads, "_http", fake_http):
            lag = service_workloads.run_open_loop(0, plan, 100.0)
        self.assertGreater(lag * 1e3, service_workloads.LAG_LIMIT_MS)
        scored = service_workloads._score(plan, 1.0, lag, set())
        self.assertEqual(len(scored["bad"]), len(plan))

        on_time = service_workloads._score(plan, 10.0, 0.0, set())
        self.assertEqual(on_time["bad"], set())


if __name__ == "__main__":
    unittest.main(verbosity=2)
