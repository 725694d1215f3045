"""Counted per-layer metrics repeat exactly: two traced runs of each workload
on one seed must report identical counts, and no failed operation.

Slow: six traced runs of one to two minutes each.  Run from the repository
root:

    python3 -m unittest perfbench/test_repeat.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

COUNTED = (
    "km.orbit_end_steps",
    "km.orbit_end_calls",
    "maps.phi_calls",
    "maps.phi_evals",
    "spaces.mesh_calls",
    "spaces.mesh_points",
    "rates.rate_calls",
    "rates.overflows",
    "product_afpp.oracle_solves",
    "product_afpp.map_evals_per_solve",
    "product_afpp.mesh_levels_per_solve",
)


def traced_run(workload: str, seed: int) -> dict:
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if p.returncode != 0:
        raise AssertionError(f"{workload}: exit {p.returncode}: {p.stderr[-500:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class RepeatTest(unittest.TestCase):
    def test_counts_repeat(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = traced_run(workload, 11), traced_run(workload, 11)
                for result in (first, second):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                for name in COUNTED:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)
                    self.assertGreater(first["metrics"][name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
