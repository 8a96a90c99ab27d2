"""Self-tests of the benchmark: inputs repeat for a seed, and every check
rejects a corrupted output.

    python3 perfbench/selftest.py

The file name keeps it out of the repository's own pytest collection.
"""

import json
import os
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
os.chdir(HERE.parent)

import numpy as np  # noqa: E402

import census_totals  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


class InputsRepeat(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for make in (inputs.design_plan_block, inputs.design_dense_block, inputs.sim_block):
            with self.subTest(make.__name__):
                self.assertEqual(make(random.Random(7)), make(random.Random(7)))
                self.assertNotEqual(make(random.Random(7)), make(random.Random(8)))

    def test_census_facts_are_what_the_brute_force_finds(self):
        saved = json.loads(inputs.CENSUS_EXPECTED.read_text())
        for name, doc in inputs.census_problems().items():
            with self.subTest(name):
                facts = census_totals.census(doc)
                facts["histogram"] = {str(k): v for k, v in facts["histogram"].items()}
                self.assertEqual(facts, saved[name])


class ChecksReject(unittest.TestCase):
    def test_flipped_plan_coefficient(self):
        workload = workloads.DesignPlan()
        ternary = [op for op in workload.block(random.Random(1)) if op[0]["q"] == 3]
        op = max(ternary, key=lambda o: len(o[0]["receivers"]))
        _, plan = workload.run(op)
        entries = [(e.receiver, e.demand, e.known_terms, e.code_terms) for e in plan.entries]
        rng = np.random.default_rng(0)
        self.assertEqual(checks.check_plan(op[0], plan.code.columns, entries, rng), [])
        i = next(i for i, e in enumerate(entries) if e[3])
        r, d, known_terms, code_terms = entries[i]
        (col, coeff), rest = code_terms[0], code_terms[1:]
        entries[i] = (r, d, known_terms, ((col, 3 - coeff),) + rest)
        self.assertTrue(checks.check_plan(op[0], plan.code.columns, entries, rng))

    def test_dense_code_missing_a_codeword(self):
        workload = workloads.DesignDense()
        op = min(workload.block(random.Random(1)), key=lambda o: len(o[1]))
        _, (code, optimal) = workload.run(op)
        self.assertEqual(checks.check_dense(op[0], code.columns, code.length, optimal), [])
        self.assertTrue(checks.check_dense(op[0], code.columns[1:], code.length - 1, optimal))

    def test_census_with_one_code_dropped(self):
        workload = workloads.Census()
        for op in workload.block(random.Random(1)):
            if op[0] in ("four_user_cycle", "four_cycle_f3"):
                with self.subTest(op[0]):
                    _, result = workload.run(op)
                    rows = [(row.code.columns, row.max_count) for row in result.rows]
                    expected = workload.expected[op[0]]
                    self.assertEqual(checks.check_census(op[1], rows, expected), [])
                    self.assertTrue(checks.check_census(op[1], rows[:-1], expected))
                    self.assertTrue(checks.check_census(op[1], rows[:-1] + rows[:1], expected))

    def test_csv_with_one_bit_errors_value_changed(self):
        trials = 4096
        for argv, spec in inputs.sim_block(random.Random(1)):
            with self.subTest(spec["name"]):
                argv = list(argv)
                argv[argv.index("--trials") + 1] = str(trials)
                spec = dict(spec, trials=trials)
                text = workloads.simulate(argv)
                self.assertEqual(checks.check_comparison(text, spec, workloads.SIM_ALPHA), [])
                lines = text.splitlines()
                row = next(i for i, line in enumerate(lines) if line[0] not in "#c")
                fields = lines[row].split(",")
                fields[5] = str(int(fields[5]) + 1)
                bumped = "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1 :]) + "\n"
                self.assertTrue(checks.check_comparison(bumped, spec, workloads.SIM_ALPHA))
                # the same change with a matching bep still breaks the closed form
                fields[5], fields[6] = "0", "0"
                zeroed = "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1 :]) + "\n"
                self.assertTrue(checks.check_comparison(zeroed, spec, workloads.SIM_ALPHA))


class ClosedForms(unittest.TestCase):
    def test_craig_integral_matches_bpsk_closed_form(self):
        for snr_db in (0.0, 10.0, 30.0):
            g = 10 ** (snr_db / 10)
            bpsk = 0.5 * (1 - (g / (1 + g)) ** 0.5)
            self.assertAlmostEqual(checks.psk_rayleigh_ser(2, snr_db) / bpsk, 1.0, places=9)

    def test_binomial_pvalue_tails(self):
        self.assertGreater(checks.binomial_pvalue(500, 10000, 0.05), 0.9)
        self.assertLess(checks.binomial_pvalue(700, 10000, 0.05), 1e-15)
        self.assertLess(checks.binomial_pvalue(0, 10000, 0.05), 1e-15)


if __name__ == "__main__":
    unittest.main()
