"""Self-tests of the benchmark itself (not of pitwo).

Usage, from the root of a checkout:

    python3 bench/selftest.py

Kept out of the repository's pytest run on purpose: the traced runs below
take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def traced(workload: str, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, "3", "0", "--trace"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.splitlines()[-1])["layers"]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for gen in (workloads.large_terms, workloads.lts_pairs):
            self.assertEqual(gen(5), gen(5))
            self.assertNotEqual(gen(5), gen(6))
            self.assertEqual(workloads.inputs_hash(gen(5)), workloads.inputs_hash(gen(5)))

    def test_large_terms_have_their_shapes(self):
        counts = sorted(text.count("(new ") for text in workloads.large_terms(5))
        self.assertEqual(counts, sorted(k for k, _, _ in workloads.LARGE_SHAPES))

    def test_congruent_pairs_are_permutations(self):
        for left, right, congruent in workloads.lts_pairs(5):
            same = sorted(left.split(" | ")) == sorted(right.split(" | "))
            self.assertEqual(same, congruent)


class Tracing(unittest.TestCase):
    def test_calls_repeat_and_coverage(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = traced(workload, 1), traced(workload, 2)
                calls = {k: v for k, v in first.items() if k.endswith(".calls")}
                self.assertEqual(calls, {k: second[k] for k in calls})
                self.assertGreaterEqual(first["trace.coverage"][0], 0.9)


class MissingProgram(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-selftest-") as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "large-terms", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
