"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m unittest bench/test_smoke.py

It checks that every metric named in BENCHMARK.json appears with its unit,
that an altered pinned digest is reported as a failure, that two traced runs
give identical counts, and that a directory without the program makes the
benchmark exit nonzero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("pipeline_fp", "pipeline_q", "sample_fp", "cli_oneshot")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def copy_checkout(dest, with_program):
    """BENCHMARK.json and the benchmark's paths, plus src/ when asked."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    for path in SPEC["paths"] + (["src"] if with_program else []):
        shutil.copytree(os.path.join(ROOT, path), os.path.join(dest, path),
                        ignore=shutil.ignore_patterns("__pycache__"))


def run(workload, trace, cwd=ROOT):
    """Run the benchmark's own command, as BENCHMARK.json gives it, in cwd."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class BenchmarkSmoke(unittest.TestCase):
    def assert_metrics(self, result, spec_key):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_metric_appears_with_its_unit(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assert_metrics(result, key)

    def test_altered_digest_is_a_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_checkout(tmp, with_program=True)
            path = os.path.join(tmp, "bench", "digests.json")
            with open(path) as fh:
                digests = json.load(fh)
            digests["sample_fp"] = "0" * 64
            with open(path, "w") as fh:
                json.dump(digests, fh)
            proc, result = run("sample_fp", 0, cwd=tmp)
        self.assertEqual(proc.returncode, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("digest-mismatch workload=sample_fp", proc.stderr)

    def test_traced_counts_repeat_exactly(self):
        counts = []
        for _ in range(2):
            proc, result = run("pipeline_fp", 1)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if m["unit"] == "count"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["singular.verify_multiplicity_two.calls"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_checkout(tmp, with_program=False)
            proc, result = run("pipeline_fp", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
