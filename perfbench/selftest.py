"""Self-test of the benchmark (not of the program).

    python3 perfbench/selftest.py

Runs every workload at toy size, traced and untraced, and checks that
each metric BENCHMARK.json names is printed with its unit; checks that
the correctness gate reports a stored public blob with one flipped
byte; and checks that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SCRATCH = os.path.join(ROOT, ".bench_work")
# toy runs still need room for every op type: cli-cold's cycle has five
# commands and http-mixed's rarest request types are 5 % of the mix
SECONDS = {"cli-cold": 6, "http-mixed": 4}

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(argv: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


class ToyRuns(unittest.TestCase):
    def check_workload(self, name: str) -> None:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(workload=name, trace=trace):
                done = _run([RUN, "--workload", name, "--seed", "7", "--toy",
                             "--seconds", str(SECONDS.get(name, 2)), "--trace", str(trace)])
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], done.stderr[-2000:])
                self.assertGreaterEqual(result["attempted"], 1)
                expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                for metric in result["metrics"].values():
                    self.assertIsInstance(metric["value"], (int, float))

    def test_workloads(self) -> None:
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(names, ["write-heavy", "http-mixed", "cli-cold"])
        for name in names:
            self.check_workload(name)


def setUpModule() -> None:
    os.makedirs(SCRATCH, exist_ok=True)


class Gate(unittest.TestCase):
    def test_flipped_public_byte_is_reported(self) -> None:
        sys.path.insert(0, ROOT)
        from perfbench import common

        common.use_source_tree()
        from perfbench.workloads import WriteHeavy, count_lines, gate

        work = tempfile.mkdtemp(dir=SCRATCH)
        try:
            home = WriteHeavy(toy=True).setup(os.path.join(work, "home"), seed=3)
            home.close()
            before = count_lines(home.audit_path)
            self.assertEqual(gate(home, before, 0), [])

            before = count_lines(home.audit_path)
            name = sorted(os.listdir(home.public_dir))[0]
            path = os.path.join(home.public_dir, name)
            with open(path, "r+b") as fh:
                fh.seek(20)  # inside the ciphertext, past the 18-byte header
                byte = fh.read(1)
                fh.seek(20)
                fh.write(bytes([byte[0] ^ 0x01]))
            violations = gate(home, before, 0)
            self.assertTrue(any("AuthFailure" in v for v in violations), violations)
        finally:
            shutil.rmtree(work, ignore_errors=True)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self) -> None:
        bare = tempfile.mkdtemp(dir=SCRATCH)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = _run(BENCHMARK["command"][1:] + [
                "--workload", "write-heavy", "--seed", "1", "--seconds", "1", "--trace", "0"
            ], cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
