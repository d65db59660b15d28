"""The benchmark's own self-tests, on tiny horizons.

Usage, from the root of a checkout::

    python3 cpubench/selftest.py

They check the output contract (every metric of ``BENCHMARK.json``
printed with its unit, names matching ``[A-Za-z0-9_.-]+``), that every
workload check runs and passes, that a traced run reproduces the
untraced digest (the tracer is a pure observer), that a failed check is
counted against the rounds attempted, and that the benchmark refuses to
run without the simulator sources.  ``contain-torus8`` keeps its full
horizon: its checks need the attack to be detected and localized.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7
TINY = {
    "dense-mesh16": workloads.DenseMesh16(warmup=60, horizon=5),
    "contain-torus8": workloads.ContainTorus8(),
    "sparse-mitigated4": workloads.SparseMitigated4(probes=2, tail=100),
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int) -> tuple[dict, dict]:
    """Run ``run.main`` on a tiny workload; returns (result, info)."""
    saved = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update(TINY)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main([
                "--workload", workload, "--seed", str(SEED),
                "--seconds", "0.01", "--trace", str(trace),
            ])
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(saved)
    assert code == 0, code
    lines = out.getvalue().strip().splitlines()
    info = next(json.loads(line[5:]) for line in lines
                if line.startswith("info "))
    return json.loads(lines[-1]), info


class OutputContract(unittest.TestCase):
    def check_result(self, result: dict, kind: str) -> None:
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"}
        )
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = {m["name"]: m["unit"] for m in spec()[kind]}
        self.assertEqual(set(result["metrics"]), set(wanted))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(NAME.fullmatch(name).group(), name)
            self.assertEqual(metric["unit"], wanted[name])
            self.assertTrue(math.isfinite(metric["value"]), name)
            if kind == "end_to_end":
                self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reproduces_untraced_digest(self) -> None:
        for name in TINY:
            with self.subTest(workload=name):
                plain, plain_info = invoke(name, 0)
                self.check_result(plain, "end_to_end")
                traced, traced_info = invoke(name, 1)
                self.check_result(traced, "per_layer")
                self.assertEqual(traced_info["digest"], plain_info["digest"])
                self.assertGreater(
                    traced["metrics"]["noc.router_visits"]["value"], 0
                )


class Checks(unittest.TestCase):
    def test_every_check_runs_and_passes(self) -> None:
        for name, workload in TINY.items():
            with self.subTest(workload=name):
                state = workload.prepare(workload.scenario(SEED))
                rnd = workload.round(state, HostClock())
                self.assertTrue(rnd.checks)
                self.assertEqual(
                    [c for c, ok in rnd.checks.items() if not ok], []
                )

    def test_failed_check_counts_against_attempted(self) -> None:
        workload = TINY["sparse-mitigated4"]
        state = workload.prepare(workload.scenario(SEED))
        checker = run.Checker(pinned="0" * 64)
        clock = HostClock()
        with contextlib.redirect_stderr(io.StringIO()):
            for _ in range(2):
                checker.run(lambda: workload.round(state, clock))
        self.assertEqual((checker.attempted, checker.failed), (2, 2))

    def test_refuses_without_simulator_sources(self) -> None:
        bare = HERE / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "cpubench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*"):
            if path.is_file():
                shutil.copy(path, bare / "cpubench")
        try:
            proc = subprocess.run(
                [sys.executable, "cpubench/run.py", "--workload",
                 "dense-mesh16", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
