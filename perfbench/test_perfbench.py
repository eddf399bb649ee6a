"""Self-tests of the benchmark (not part of the program's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
    # or, without pytest:
    python3 -m unittest discover -s perfbench -p "test_*.py"

Each workload runs at smoke scale, so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.pop("REPRO_BACKEND", None)
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Per-layer metrics that are host timings or ratios of timings.
TIMED = {
    name for name, unit in LAYER_UNITS.items() if unit == "s"
} | {"trace.overhead_ratio", "campaign.worker_busy_ratio"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class TestMetricNames(unittest.TestCase):
    def test_every_metric_has_a_valid_name_and_unit(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        names += [m["name"] for m in BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for unit in list(E2E_UNITS.values()) + list(LAYER_UNITS.values()):
            self.assertRegex(unit, UNIT)

    def test_per_layer_table_matches_benchmark_file(self):
        self.assertEqual(layers.PER_LAYER_UNITS, LAYER_UNITS)

    def test_workloads_match_benchmark_file(self):
        self.assertEqual(
            sorted(w["name"] for w in BENCHMARK["workloads"]),
            sorted(workloads.WORKLOADS),
        )


class TestSmoke(unittest.TestCase):
    """Every workload, smoke scale, untraced: correct and fully reported."""

    def _smoke(self, name: str) -> None:
        workload = workloads.WORKLOADS[name](workloads.default_workers())
        outcome = workloads.measure(workload, seed=1, seconds=0, scale="smoke")
        self.assertTrue(outcome["correct"], outcome)
        self.assertEqual(outcome["failed"], 0)
        self.assertGreater(outcome["attempted"], 0)
        self.assertEqual(set(outcome["metrics"]), set(E2E_UNITS))
        for metric, value in outcome["metrics"].items():
            self.assertGreater(value, 0, metric)

    def test_ring64_ts(self):
        self._smoke("ring64_ts")

    def test_star_mixed_obs(self):
        self._smoke("star_mixed_obs")

    def test_sweep_design(self):
        self._smoke("sweep_design")

    def test_table3_is_exact(self):
        self.assertTrue(workloads.check_table3())


class TestTracedCountsRepeat(unittest.TestCase):
    """Per-layer counts are a pure function of the seed."""

    def _repeat(self, name: str) -> None:
        workload = workloads.WORKLOADS[name](workloads.default_workers())
        first = layers.measure_traced(workload, 3, 0, scale="smoke")
        second = layers.measure_traced(workload, 3, 0, scale="smoke")
        for outcome in (first, second):
            self.assertTrue(outcome["correct"], outcome["checks"])
        self.assertEqual(set(first["metrics"]), set(LAYER_UNITS))
        counts = {
            k: v for k, v in first["metrics"].items() if k not in TIMED
        }
        again = {
            k: v for k, v in second["metrics"].items() if k not in TIMED
        }
        self.assertEqual(counts, again)

    def test_ring64_ts(self):
        self._repeat("ring64_ts")

    def test_star_mixed_obs(self):
        self._repeat("star_mixed_obs")

    def test_sweep_design(self):
        self._repeat("sweep_design")

    def test_unpatched_layer_fails_the_run(self):
        gone = ("repro.switch.port", "EgressPort", "no_such_method",
                "egress", "span")
        workload = workloads.WORKLOADS["ring64_ts"](1)
        with mock.patch.object(tracing, "LAYERS", tracing.LAYERS + (gone,)):
            outcome = layers.measure_traced(workload, 3, 0, scale="smoke")
        self.assertFalse(outcome["correct"])
        self.assertFalse(outcome["checks"]["every_layer_patched"])
        self.assertEqual(outcome["unpatched"], ["EgressPort.no_such_method"])


class TestCommandLine(unittest.TestCase):
    def test_last_line_is_the_result_object(self):
        for trace, units in (("0", E2E_UNITS), ("1", LAYER_UNITS)):
            done = _run("--workload", "ring64_ts", "--seed", "2",
                        "--seconds", "0", "--trace", trace,
                        "--scale", "smoke")
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(
                set(result), {"correct", "attempted", "failed", "metrics"}
            )
            self.assertTrue(result["correct"])
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()}, units
            )

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as scratch:
            bare = Path(scratch)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(
                HERE, bare / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            done = _run("--workload", "ring64_ts", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class TestCompare(unittest.TestCase):
    @staticmethod
    def _pair(backend: str, value: float):
        env = {"workload": "ring64_ts", "backend": backend, "trace": 0,
               "python": "3", "nproc": 2}
        return env, {"metrics": {"hops_per_s": {"value": value,
                                                "unit": "1/s"}}}

    def test_refuses_across_backends(self):
        with self.assertRaises(ValueError):
            compare.compare([self._pair("py", 1.0)], [self._pair("c", 2.0)])

    def test_reports_ratio_of_medians(self):
        lines = compare.compare(
            [self._pair("py", 1.0), self._pair("py", 3.0)],
            [self._pair("py", 4.0)],
        )
        self.assertIn("x2.0000", lines[-1])


if __name__ == "__main__":
    unittest.main()
