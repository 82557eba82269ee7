"""Smoke test of the benchmark itself, on tiny inputs (a few seconds):

    python3 perfbench/smoke.py

It runs an untraced and a traced pass of every workload and checks that each
metric named in BENCHMARK.json is produced with its unit, that deliberately
corrupted results are counted as failures, and that the benchmark refuses to
run, printing no result, in a directory without the envarkit sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import envarkit as ek  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
from workloads import BatchMid, LargePChain, execute  # noqa: E402

TINY = {
    "batch-mid": BatchMid(p_values=(3, 4), episodes=1, t_len=200,
                          envar_overrides=(("max_steps", 40),)),
    "large-p-chain": LargePChain(p_values=(6, 8), t_len=200, probe_steps=5),
}


def _failures(record: dict) -> int:
    return sum(len(p["failed"]) for p in record["passes"])


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = HERE / "out" / "smoke" / self._testMethodName
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _assert_emitted(self, values: dict, declared: list[dict], units: dict):
        for metric in declared:
            name = metric["name"]
            self.assertIn(name, values)
            self.assertEqual(units[name], metric["unit"], name)
            self.assertTrue(math.isfinite(values[name]), name)
        self.assertEqual(set(units), {m["name"] for m in declared})

    def test_every_metric_is_emitted_with_its_unit(self):
        for name, workload in TINY.items():
            with self.subTest(workload=name, trace=0):
                record = execute(workload, 3, 0.0, False, self.tmp / f"{name}-0")
                self.assertEqual(_failures(record), 0, record["passes"][0]["messages"])
                values = run.end_to_end_metrics(record, [{"wall_s": 1.0, "speed": 1.0}])
                self._assert_emitted(values, self.bench["end_to_end"], run.END_TO_END_UNITS)
            with self.subTest(workload=name, trace=1):
                record = execute(workload, 3, 0.0, True, self.tmp / f"{name}-1")
                self.assertEqual(_failures(record), 0, record["passes"][1]["messages"])
                self.assertEqual(record["passes"][0]["digest"], record["passes"][1]["digest"])
                spans = record["spans"]
                self.assertTrue(any(s["phase"] == "pass" for s in spans))
                values = run.per_layer_metrics(record, spans)
                self._assert_emitted(values, self.bench["per_layer"], run.PER_LAYER_UNITS)
                run.trace_report(spans)

    def test_perturbed_phi_counts_as_failure(self):
        import envarkit.cli as cli

        real = cli.solve_envar

        def corrupted(cr, cfg, **kwargs):
            solution = real(cr, cfg, **kwargs)
            a1 = np.array(solution.model.a1)
            a1[0, 0] += 1e-3  # the model no longer induces the fitted phi
            model = ek.StructuralModel(a0=solution.model.a0, a1=a1, sigma=solution.model.sigma)
            return dataclasses.replace(solution, model=model)

        # the untraced passes run the benchmark cells in this process, with the patch
        cli.solve_envar = corrupted
        try:
            record = execute(TINY["batch-mid"], 3, 0.0, False, self.tmp / "corrupt")
        finally:
            cli.solve_envar = real
        envar_cells = sum(1 for c in record["passes"][0]["cells"] if c["method"] == "envar")
        self.assertEqual(_failures(record), envar_cells)
        self.assertTrue(any("phi not reproduced" in m for m in record["passes"][0]["messages"]))

    def test_check_functions_reject_bad_outputs(self):
        q = np.array([[1.0, 1e-6], [0.0, 1.0]])
        zero = np.zeros((2, 2))
        self.assertTrue(any("orthogonal" in e for e in
                            checks.envar_errors(zero, zero, 1.0, q, zero, np.eye(2))))
        a0 = np.array([[0.0, 0.5], [0.0, 0.0]])
        self.assertEqual(checks.lower_triangular_errors(a0, [1, 0]), [])
        self.assertNotEqual(checks.lower_triangular_errors(a0, [0, 1]), [])
        summary = self.tmp / "summary.csv"
        summary.write_text(
            "p,sigma_std,method,episode,sf_oad,obs_oad,pearson_phi,pearson_sigma_u,"
            "pearson_a0,pearson_a1,error\n5,0.0,envar,0,0.1,nan,,,,,\n",
            encoding="utf-8",
        )
        problems = checks.summary_errors(summary, {(5, 0.0, "envar", 0), (5, 0.0, "ols-only", 0)})
        self.assertIn("summary", problems)
        self.assertIn(str((5, 0.0, "envar", 0)), problems)

    def test_refuses_to_run_without_sources(self):
        bare = self.tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch-mid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
