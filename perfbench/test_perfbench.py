#!/usr/bin/env python3
"""Tests of the benchmark itself: its spec, its output oracle and its
refusal to run without the program's sources.

    python3 perfbench/test_perfbench.py

The oracle tests run each workload on its own input shape for a short
--seconds (a batch run still makes three builds), once clean and once with
an output deliberately damaged (run.py --inject); the damaged run must
report correct=false, exit 1 and name the oracle checks that caught it.
They take a few minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SEED = 7


def bench(workload, *extra, trace=0, seconds=1):
    """Runs one workload; returns exit status, summary line, full record
    (with its oracle checks) and standard error."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    record = run.build_dir() / "results" / f"{workload}-{SEED}-trace{trace}.json"
    full = json.loads(record.read_text()) if record.is_file() else None
    return done.returncode, (json.loads(lines[-1]) if lines else None), full, done.stderr


class Spec(unittest.TestCase):
    def test_file_matches_run_py(self):
        self.assertEqual(json.loads((ROOT / "BENCHMARK.json").read_text()), run.spec())

    def test_within_contract_limits(self):
        spec = run.spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]] + \
            [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertLessEqual(len(run.spec_text()), 64 * 1024)


class Oracle(unittest.TestCase):
    def check(self, workload, inject, failing, trace=0):
        """A clean run passes every check; a run with `inject` fails exactly
        the checks named in `failing`."""
        code, result, full, err = bench(workload, trace=trace)
        self.assertEqual(code, 0, err[-3000:])
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(all(c["ok"] for c in full["checks"]), full["checks"])
        code, result, full, err = bench(workload, "--inject", inject, trace=trace)
        self.assertEqual(code, 1, err[-3000:])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        verdicts = {c["name"]: c["ok"] for c in full["checks"]}
        self.assertEqual({name for name, ok in verdicts.items() if not ok}, set(failing),
                         full["checks"])

    def test_e1_slice_catches_a_corrupted_network(self):
        self.check("e1-slice", "corrupt-network",
                   {"builds_bit_identical", "pairs_match_per_pair_mi"})

    def test_e1_slice_traced_replay_catches_a_corrupted_network(self):
        self.check("e1-slice", "corrupt-network", {"replay_equals_build"}, trace=1)

    def test_sharded_dpi_catches_a_corrupted_network(self):
        self.check("sharded-dpi", "corrupt-network",
                   {"builds_bit_identical", "sharded_equals_one_process",
                    "pairs_match_per_pair_mi"})

    def test_serve_zipf_catches_a_wrong_served_value(self):
        self.check("serve-zipf", "wrong-served-value",
                   {"served_mi_equals_batch_network", "served_pairs_match_per_pair_mi"})


class Refusal(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        run.build_dir().mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "e1-slice", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
