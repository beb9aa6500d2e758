#!/usr/bin/env python3
"""Self-test of the AeroPack benchmark. Run from the repository root:

    python3 perf/test_perf.py

Checks that a seed fixes the generated specs, that the traced run's exact
counts repeat, that BENCHMARK.json lists exactly the metrics aeropack_perf
emits, and that every workload's outputs pass their checks. Takes a few
minutes (two traced runs and one short run per workload).
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BINARY = None
WORKLOADS = ["design_sweep", "steady_fv", "mission_campaign"]
# Counts the traced run reads from the program; they must repeat exactly.
EXACT = [
    "numeric.cg_iterations",
    "numeric.spmv_bytes_computed",
    "fem.subspace_iterations",
    "mission.steps",
    "mission.step_rejections",
    "mission.cg_iterations",
    "thermal.network_picard_passes",
] + [f"{w}.{m}" for w in WORKLOADS for m in (
    "core.cache.misses", "core.cache.insertions", "core.cache.bytes",
    "core.cache.hit_ratio", "core.svc.dedup_ratio")]


def perf(*args):
    out = subprocess.run([str(BINARY), *args], check=True, capture_output=True, text=True)
    return out.stdout.splitlines()


def result(*args):
    lines = perf(*args, "--ref", str(HERE / "reference"), "--out", str(HERE / "out"))
    return json.loads(lines[-1])


class SeededGeneration(unittest.TestCase):
    def test_same_seed_same_hashes(self):
        for w in WORKLOADS:
            a = perf("--list-hashes", "300", "--workload", w, "--seed", "7")
            b = perf("--list-hashes", "300", "--workload", w, "--seed", "7")
            c = perf("--list-hashes", "300", "--workload", w, "--seed", "8")
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)
            self.assertGreater(len(a), 0, w)


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_program(self):
        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        emitted = [json.loads(line) for line in perf("--list-per-layer")]
        self.assertEqual(manifest["per_layer"], emitted)
        self.assertEqual([w["name"] for w in manifest["workloads"]], WORKLOADS)


class TracedCounts(unittest.TestCase):
    def test_exact_counts_repeat(self):
        args = ["--workload", "design_sweep", "--seed", "3", "--seconds", "2", "--trace", "1"]
        first, second = result(*args), result(*args)
        for r in (first, second):
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
        for name in EXACT:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)


class OutputChecks(unittest.TestCase):
    def test_every_workload_passes(self):
        for w in WORKLOADS:
            r = result("--workload", w, "--seed", "5", "--seconds", "2", "--trace", "0")
            self.assertTrue(r["correct"], w)
            self.assertEqual(r["failed"], 0, w)
            self.assertGreaterEqual(r["attempted"], 1, w)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
