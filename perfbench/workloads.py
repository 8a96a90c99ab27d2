"""The four workloads: one operation each, and the check of its output.

Operations call the program through its modules' attributes, so that a
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json

import checks
import inputs
from uniprior import cli, codegen, enumeration, graphcore

# Hand-derived census facts: three_user's three codes are listed by hand, the
# four- and five-user cycle counts are the README's and the acceptance tests'.
HAND_CENSUS = {
    "three_user": {"total": 3},
    "four_user_cycle": {"total": 28, "histogram": {2: 12, 3: 16}},
    "five_user_cycle": {"total": 840},
}
# False-alarm level of all binomial checks on one comparison run together.
SIM_ALPHA = 1e-7


class DesignPlan:
    """Small random problems: parse, design the min-max code, build its plan."""

    unit = "demands planned"

    def block(self, rng):
        return [(doc, inputs.problem_yaml(doc)) for doc in inputs.design_plan_block(rng)]

    def run(self, op):
        problem = graphcore.parse_problem_text(op[1])
        design = codegen.design_min_max_code(problem)
        plan = codegen.decoding_plan(design.code, problem)
        return len(plan.entries), plan

    def check(self, op, plan, rng):
        entries = [(e.receiver, e.demand, e.known_terms, e.code_terms) for e in plan.entries]
        return checks.check_plan(op[0], plan.code.columns, entries, rng)


class DesignDense:
    """Large problems, dense and sparse: parse, design, optimal length."""

    unit = "receivers designed"

    def block(self, rng):
        return [(doc, inputs.problem_yaml(doc)) for doc in inputs.design_dense_block(rng)]

    def run(self, op):
        problem = graphcore.parse_problem_text(op[1])
        design = codegen.design_min_max_code(problem)
        return problem.m, (design.code, enumeration.optimal_length(problem))

    def check(self, op, output, rng):
        code, optimal = output
        return checks.check_dense(op[0], code.columns, code.length, optimal)


def expected_census():
    """census_expected.json, cross-checked against the hand-derived facts."""
    expected = {}
    for name, facts in json.loads(inputs.CENSUS_EXPECTED.read_text()).items():
        facts["histogram"] = {int(k): v for k, v in facts["histogram"].items()}
        expected[name] = facts
    for name, facts in HAND_CENSUS.items():
        for key, value in facts.items():
            if expected[name][key] != value:
                raise ValueError(f"census_expected.json: {name} {key} contradicts the hand-derived value")
    return expected


class Census:
    """Enumerate and classify every optimal code of small relabeled problems."""

    unit = "codes classified"

    def __init__(self):
        self.problems = inputs.census_problems()
        self.expected = expected_census()

    def block(self, rng):
        return [(name, doc, inputs.problem_yaml(doc)) for name, doc in self.problems.items()]

    def run(self, op):
        problem = graphcore.parse_problem_text(op[2])
        length = enumeration.optimal_length(problem)
        result = enumeration.classify_codes(
            problem, enumeration.enumerate_optimal_codes(problem, length)
        )
        return result.total, result

    def check(self, op, result, rng):
        rows = [(row.code.columns, row.max_count) for row in result.rows]
        return checks.check_census(op[1], rows, self.expected[op[0]])


def simulate(argv) -> str:
    """`uniprior simulate` in this process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"uniprior simulate exited {status}")
    return out.getvalue()


class SimSweep:
    """`uniprior simulate` comparison runs through the CLI, one thread."""

    unit = "receiver-frames simulated"

    def __init__(self):
        self.replayed = set()

    def block(self, rng):
        return inputs.sim_block(rng)

    def run(self, op):
        spec = op[1]
        frames = len(spec["codes"]) * len(spec["snr"]) * spec["trials"] * len(spec["receivers"])
        return frames, simulate(op[0])

    def check(self, op, text, rng):
        argv, spec = op
        errors = checks.check_comparison(text, spec, SIM_ALPHA)
        if spec["name"] not in self.replayed:
            # once per comparison and run: two worker threads must not change a byte
            self.replayed.add(spec["name"])
            if simulate(argv[:-1] + ["2"]) != text:
                errors.append(f"{spec['name']}: the 2-thread CSV differs from the 1-thread CSV")
        return errors


WORKLOADS = {
    "design_plan": DesignPlan,
    "design_dense": DesignDense,
    "census": Census,
    "sim_sweep": SimSweep,
}
