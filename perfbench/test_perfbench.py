#!/usr/bin/env python3
"""The benchmark's own tests: every correctness gate fails the command when
fed a wrong output, a second seed runs clean through every gate, and the
command fails without printing a result where the program is missing.

    python3 -m unittest perfbench/test_perfbench.py      # from the repository root

The runs are real workload runs (a few minutes in all).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, seed=1, seconds=20, trace=0, inject=None, cwd=ROOT, env=None):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    run = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return run.returncode, result, run.stderr


class Gates(unittest.TestCase):
    def assert_gate_fires(self, code, result, stderr, message):
        self.assertNotEqual(code, 0, stderr[-2000:])
        self.assertIn(message, stderr)
        if result is not None:
            self.assertFalse(result["correct"])

    def test_corrupted_anchor_hash_fails(self):
        code, result, stderr = bench("large-20k", trace=1, inject="anchor-hash")
        self.assert_gate_fires(code, result, stderr, "anchor hashes disagree")

    def test_p_at_1_below_floor_fails(self):
        code, result, stderr = bench("large-20k", inject="p1-floor")
        self.assert_gate_fires(code, result, stderr, "fell below the floor")

    def test_mismatched_served_response_fails(self):
        code, result, stderr = bench("serve-mixed", seconds=3, inject="served-anchor")
        self.assert_gate_fires(code, result, stderr, "differ from the reference alignment")
        self.assertGreaterEqual(result["failed"], 1)


class SecondSeed(unittest.TestCase):
    """Seed 2 was never used to tune the benchmark or its floors."""

    def assert_clean(self, workload, trace, seconds=20):
        code, result, stderr = bench(workload, seed=2, seconds=seconds, trace=trace)
        self.assertEqual(code, 0, stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))

    def test_fig8_small(self):
        self.assert_clean("fig8-small", trace=0)

    def test_large_20k_traced(self):
        self.assert_clean("large-20k", trace=1)

    def test_serve_mixed_traced(self):
        self.assert_clean("serve-mixed", trace=1, seconds=5)


class MissingProgram(unittest.TestCase):
    def test_benchmark_files_alone_fail_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        try:
            code, result, _ = bench("serve-mixed", seconds=3, cwd=bare, env=env)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
