"""Self-test of the benchmark: ``python3 bench/selftest.py`` (about a minute).

* a smoke-size run of every workload finishes, traced and untraced, and
  prints every metric BENCHMARK.json names for that mode, with its unit;
* the generated inputs depend on the seed, and only on the seed;
* reference seconds leave out the probes' own time and scale each stretch
  between probes by the local probe time;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


class SmokeRuns(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in wanted},
        )
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], float, name)

    def test_fit(self):
        self.check("fit", 0)
        self.check("fit", 1)

    def test_evaluate(self):
        self.check("evaluate", 0)
        self.check("evaluate", 1)

    def test_rolling(self):
        self.check("rolling", 0)
        self.check("rolling", 1)


class Inputs(unittest.TestCase):
    def test_seed_changes_inputs(self):
        sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
        from workloads import WORKLOADS

        (ROOT / ".bench_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            for cls in WORKLOADS.values():
                workload = cls(smoke=True)
                digests = [workload.setup(seed, Path(tmp))["inputs"] for seed in (1, 1, 2)]
                self.assertEqual(digests[0], digests[1], cls.name)
                self.assertNotEqual(digests[0], digests[2], cls.name)


class ReferenceSeconds(unittest.TestCase):
    def test_scaling(self):
        sys.path[:0] = [str(BENCH_DIR)]
        from hostspeed import REFERENCE_S, HostProbe

        class NoTracer:
            def exclude(self, seconds):
                pass

        probe = HostProbe(NoTracer())
        # probes of 2 ms each second up to t = 4, then of 4 ms from t = 5
        probe.starts = [float(t) for t in range(10)]
        probe.ends = [t + (0.002 if t < 5 else 0.004) for t in probe.starts]
        fast, slow = REFERENCE_S / 0.002, REFERENCE_S / 0.004
        self.assertAlmostEqual(probe.inside(0.5, 2.5), 0.004)
        self.assertAlmostEqual(probe.factor(0.5, 2.5), fast)
        self.assertAlmostEqual(probe.factor(7.5, 9.5), slow)
        self.assertAlmostEqual(probe.factor(12.0, 13.0), slow)
        self.assertAlmostEqual(
            probe.ref_seconds(0.5, 2.5, probe.inside(0.5, 2.5)),
            (2.0 - 0.004) * fast)
        # half the time at each speed, the stretch at t = 5 counting as mixed
        mixed = probe.factor(2.0, 8.0)
        self.assertLess(slow, mixed)
        self.assertLess(mixed, fast)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run_bench("--workload", "fit", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
