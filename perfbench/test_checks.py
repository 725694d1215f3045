"""Self-test of the output checks: each accepts the program's real output and
rejects a tampered copy of it.

Run from the repository root (about a minute, most of it the anchor):

    python3 -m unittest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
        cls.workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "_work"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def run_spec(self, spec):
        workloads.write_configs([spec], self.workdir)
        op = workloads.build_op(spec, self.workdir)
        outcome = op.run()
        self.assertEqual(op.check(outcome), [], spec.name)
        return op, outcome

    def assertRejects(self, op, outcome, **changes):
        tampered = workloads.Outcome(**{**vars(outcome), **changes})
        self.assertNotEqual(op.check(tampered), [], f"{op.spec.name}: tampered output accepted")

    # --- rates ---------------------------------------------------------------

    def test_anchor_oracle(self):
        digits, residues = checks.exact_rate_h(workloads.ANCHOR)
        self.assertEqual(digits, checks.ANCHOR_DIGITS)
        value = 13 * (2**2405209 - 1)
        self.assertEqual(residues, {p: value % p for p in checks.RESIDUE_PRIMES})

    def test_anchor_digit_changed(self):
        op, o = self.run_spec(workloads.rates_op("anchor", workloads.ANCHOR))
        i = o.out.index("h = ") + 4 + 400_000
        flipped = "1" if o.out[i] != "1" else "2"
        self.assertRejects(op, o, out=o.out[:i] + flipped + o.out[i + 1:])
        self.assertRejects(op, o, out=o.out[:i] + o.out[i + 1:])

    def test_overflow_bound_lowered(self):
        op, o = self.run_spec(workloads.rates_op("double", workloads.DOUBLE))
        line = o.out.split("\n")[2]
        self.assertTrue(line.startswith("h <= "), line)
        self.assertRejects(op, o, out=o.out.replace(line, "h <= 9.999e+1000 (decimal digits <= 1001)"))
        self.assertRejects(op, o, out=o.out.replace(line, line.replace("decimal digits <=", "digits <=")))

    def test_tower_bound_lowered(self):
        op, o = self.run_spec(workloads.rates_op("diagonal-g", workloads.DIAGONAL_G))
        line = o.out.split("\n")[2]
        self.assertIn("10^(~10^", line)
        self.assertRejects(op, o, out=o.out.replace(line, "g <= 10^(10^100) (digit count itself is astronomical)"))

    # --- orbits --------------------------------------------------------------

    def test_residual_enlarged(self):
        import random

        for spec in workloads.orbit_ops(random.Random(0), 2_000):
            op, o = self.run_spec(spec)
            lines = o.out.split("\n")
            row = lines[6 + 1000].split(",")
            row[1] = repr(float(row[1]) * 1.5 + 1e-3)
            lines[6 + 1000] = ",".join(row)
            self.assertRejects(op, o, out="\n".join(lines))

    def test_axioms_verdict(self):
        import random

        op, o = self.run_spec(workloads.axiom_ops(random.Random(0), 200, ("poincare",))[0])
        self.assertRejects(op, o, out=o.out.replace("all axioms pass", "FAILED: W2"))

    def test_demo_criterion_failed(self):
        op, o = self.run_spec(workloads.DEMO)
        self.assertRejects(op, o, out=o.out.replace("criterion  7 [pass]", "criterion  7 [FAIL]"))
        self.assertRejects(op, o, rc=1)

    # --- product certificates and lifts ----------------------------------------

    def test_certificate_tampered(self):
        op, o = self.run_spec(workloads.product_ops(("diagonal",), (300,))[0])
        doc = json.loads(o.out)
        doc["certificate"]["residual"] = "0.02"
        self.assertRejects(op, o, out=json.dumps(doc))
        doc = json.loads(o.out)
        doc["certificate"]["point"] = [0.9, 0.1]
        self.assertRejects(op, o, out=json.dumps(doc))

    def test_drift_exit(self):
        op, o = self.run_spec(workloads.product_ops(("drift",), (300,))[0])
        self.assertRejects(op, o, rc=0)

    def test_lift_tampered(self):
        import dataclasses

        op, o = self.run_spec(workloads.lift_ops((100,))[0])
        step = o.value
        moved = dataclasses.replace(step, z=step.z + 0.05, point=(step.point[0], step.z + 0.05))
        self.assertRejects(op, o, value=moved)
        self.assertRejects(op, o, value=dataclasses.replace(step, residual=step.residual / 2))


if __name__ == "__main__":
    unittest.main()
