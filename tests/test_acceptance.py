"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single pass/fail line under pytest -v.  Statistical
assertions use fixed seeds (via the fixture configs) so every run sees the
same Monte Carlo draws; tolerances are stated in binomial standard
deviations of the measured quantity.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np
import pytest

from conftest import code_path, config_path, problem_path
from oracles import (
    FIVE_USER_TWO_STEP_COUNT_MULTISET,
    FOUR_USER_CYCLE_TABLE,
    FOUR_USER_STRONG_COUNT_MULTISET,
    NINE_USER_PATH_COUNTS,
    NINE_USER_STAR_COUNTS,
    NINE_USER_STAR_EXPRESSIONS,
    NINE_USER_TREE_B_COUNTS,
    NINE_USER_TREE_C_COUNTS,
    THREE_USER_CODES,
    THREE_USER_COUNTS,
    binomial_oracle,
    error_increment,
    problem_from_graph,
)
from uniprior.analytic import ErrorParams, message_error_prob
from uniprior.channelsim import parse_config, simulate_bep
from uniprior.codegen import (
    LinearCode,
    decoding_plan,
    design_min_max_code,
    parse_code,
    transmission_counts,
)
from uniprior.enumeration import enumerate_optimal_codes, classify_codes, optimal_length
from uniprior.graphcore import (
    InformationFlowGraph,
    build_flow_graph,
    parse_problem,
    problem_from_mapping,
    prune,
    reduce_to_square,
)

TARGET_BEP = 1e-2


# ---------------------------------------------------------------- helpers


def code_supports(code):
    return frozenset(
        frozenset(i for i, e in enumerate(col, start=1) if e) for col in code.columns
    )


def run_sim(problem, code, config, **kwargs):
    plan = decoding_plan(code, problem)
    return simulate_bep(problem, code, plan, config, threads=4, **kwargs)


def pooled_receiver_curves(records):
    """Per-receiver error curves with each receiver's demands pooled.

    Returns (snr grid, {receiver: [bep]}, {receiver: pooled denominator}).
    """
    errors = defaultdict(int)
    demands = defaultdict(set)
    trials = records[0].trials
    snrs = []
    for rec in records:
        if rec.snr_db not in snrs:
            snrs.append(rec.snr_db)
        errors[(rec.receiver, rec.snr_db)] += rec.bit_errors
        demands[rec.receiver].add(rec.demand)
    curves, denoms = {}, {}
    for receiver, wanted in demands.items():
        denom = trials * len(wanted)
        curves[receiver] = [errors[(receiver, s)] / denom for s in snrs]
        denoms[receiver] = denom
    return snrs, curves, denoms


def crossing_snr(snrs, beps, target=TARGET_BEP):
    """SNR where the curve crosses target, log-linear between grid points."""
    for i in range(len(snrs) - 1):
        hi, lo = beps[i], beps[i + 1]
        if hi >= target >= lo and hi > lo and lo > 0:
            t = (math.log10(hi) - math.log10(target)) / (math.log10(hi) - math.log10(lo))
            return snrs[i] + t * (snrs[i + 1] - snrs[i])
    raise AssertionError(f"curve never crosses {target}: {beps}")


def worst_receiver_curve(curves, denoms):
    receivers = sorted(curves)
    points = len(curves[receivers[0]])
    worst, worst_denoms = [], []
    for g in range(points):
        leader = max(receivers, key=lambda r: curves[r][g])
        worst.append(curves[leader][g])
        worst_denoms.append(denoms[leader])
    return worst, worst_denoms


def assert_worst_curve_dominates(snrs, better, better_den, other, other_den):
    """better's worst-receiver curve must not exceed other's anywhere (3 sigma)."""
    for g, snr in enumerate(snrs):
        var = better[g] * (1 - better[g]) / better_den[g]
        var += other[g] * (1 - other[g]) / other_den[g]
        slack = 3 * math.sqrt(var)
        assert better[g] <= other[g] + slack, (
            f"worst-receiver curve not dominant at {snr} dB: "
            f"{better[g]:.4g} vs {other[g]:.4g}"
        )


# ---------------------------------------------------------------- 1


def test_census_finds_3_28_and_840_optimal_codes_with_expected_histograms():
    three = parse_problem(problem_path("three_user"))
    codes3 = list(enumerate_optimal_codes(three, optimal_length(three)))
    assert len(codes3) == 3
    assert {code_supports(c) for c in codes3} == set(THREE_USER_CODES)

    four = parse_problem(problem_path("four_user_cycle"))
    census4 = classify_codes(four, enumerate_optimal_codes(four, optimal_length(four)))
    assert census4.total == 28
    assert census4.histogram == {2: 12, 3: 16}

    five = parse_problem(problem_path("five_user_cycle"))
    census5 = classify_codes(five, enumerate_optimal_codes(five, optimal_length(five)))
    assert census5.total == 840
    beyond_two = sum(v for k, v in census5.histogram.items() if k > 2)
    assert beyond_two >= 480


# ---------------------------------------------------------------- 2


def test_transmission_count_tables_and_plans_match_frozen_oracles():
    nine = parse_problem(problem_path("nine_user_skip"))
    tables = [
        ("nine_user_star", NINE_USER_STAR_COUNTS, 2),
        ("nine_user_tree_b", NINE_USER_TREE_B_COUNTS, 4),
        ("nine_user_tree_c", NINE_USER_TREE_C_COUNTS, 5),
        ("nine_user_path", NINE_USER_PATH_COUNTS, 5),
    ]
    for name, expected, expected_max in tables:
        code = parse_code(code_path(name))
        counts = transmission_counts(decoding_plan(code, nine))
        assert counts == expected, f"{name} counts differ"
        assert max(counts.values()) == expected_max

    star_plan = decoding_plan(parse_code(code_path("nine_user_star")), nine)
    assert [e.expression() for e in star_plan.entries] == NINE_USER_STAR_EXPRESSIONS

    three = parse_problem(problem_path("three_user"))
    for code in enumerate_optimal_codes(three, 2):
        counts = transmission_counts(decoding_plan(code, three))
        assert counts == THREE_USER_COUNTS[code_supports(code)]

    four = parse_problem(problem_path("four_user_cycle"))
    seen = {}
    for code in enumerate_optimal_codes(four, 3):
        counts = transmission_counts(decoding_plan(code, four))
        seen[code_supports(code)] = tuple(counts[(r, r % 4 + 1)] for r in (1, 2, 3, 4))
    assert seen == FOUR_USER_CYCLE_TABLE

    strong = parse_problem(problem_path("four_user_strong"))
    strong_counts = transmission_counts(
        decoding_plan(design_min_max_code(strong).code, strong)
    )
    assert tuple(sorted(strong_counts.values())) == FOUR_USER_STRONG_COUNT_MULTISET

    two_step = parse_problem(problem_path("five_user_two_step"))
    two_step_counts = transmission_counts(
        decoding_plan(design_min_max_code(two_step).code, two_step)
    )
    assert tuple(sorted(two_step_counts.values())) == FIVE_USER_TWO_STEP_COUNT_MULTISET


# ---------------------------------------------------------------- 3


def _random_instance(rng):
    m = rng.randint(2, 12)
    q = rng.choice((2, 3))
    n = m + rng.randint(0, 3)
    owned = rng.sample(range(1, n + 1), m)
    receivers = []
    total_demands = 0
    for i in range(1, m + 1):
        pool = [x for x in range(1, n + 1) if x != owned[i - 1]]
        wants = sorted(x for x in pool if rng.random() < 0.35)
        total_demands += len(wants)
        receivers.append({"id": i, "wants": wants, "knows": [owned[i - 1]]})
    if total_demands == 0:
        receivers[0]["wants"] = [owned[1]]
    return problem_from_mapping({"q": q, "n": n, "receivers": receivers})


def test_1000_random_instances_get_optimal_decodable_codes_with_max_count_two():
    rng = random.Random(987123)
    vec_rng = np.random.default_rng(555)
    for trial in range(1000):
        problem = _random_instance(rng)
        design = design_min_max_code(problem)
        code = design.code
        assert code.length == optimal_length(problem), f"instance {trial}"

        plan = decoding_plan(code, problem)
        counts = transmission_counts(plan)
        assert set(counts) == set(problem.demands())

        reduction = reduce_to_square(problem)
        pruned = prune(build_flow_graph(reduction.problem))
        component_vertices = set()
        for comp in pruned.components:
            component_vertices |= set(comp)
        component_messages = {
            reduction.message_of_vertex[v] for v in component_vertices
        }
        for (receiver, demand), count in counts.items():
            if demand in component_messages:
                assert count <= 2, f"instance {trial}: count {count} at {receiver}"
            else:
                assert count == 1, f"instance {trial}: uncombined demand used {count}"

        q, n = problem.q, problem.n
        messages = vec_rng.integers(0, q, size=(1000, n), dtype=np.int64)
        received = messages @ code.matrix() % q
        for entry in plan.entries:
            estimate = np.zeros(1000, dtype=np.int64)
            for msg, coeff in entry.known_terms:
                estimate += coeff * messages[:, msg - 1]
            for col, coeff in entry.code_terms:
                estimate += coeff * received[:, col - 1]
            assert np.array_equal(estimate % q, messages[:, entry.demand - 1]), (
                f"instance {trial}: decode failed for {entry.receiver}->{entry.demand}"
            )


# ---------------------------------------------------------------- 4


def test_closed_form_error_matches_binomial_sum_and_increases_with_count():
    for i in range(25):
        p = 0.01 + 0.02 * i
        previous = None
        for c in range(1, 33):
            params = ErrorParams(p, c)
            value = message_error_prob(params)
            assert abs(value - binomial_oracle(p, c)) <= 1e-12
            if previous is not None:
                assert value >= previous
                # strict growth wherever the mathematical increment is
                # representable in float64 at all
                if error_increment(p, c - 1) > 1e-15:
                    assert value > previous
            previous = value


# ---------------------------------------------------------------- 5


def test_awgn_4psk_message_errors_match_combination_law_within_3_sigma():
    start = time.monotonic()
    config = parse_config(config_path("awgn_4psk_4db"))
    chain_code = LinearCode(q=2, n=4, columns=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)))
    cases = [
        ("four_user_cycle", chain_code),
        ("nine_user_skip", parse_code(code_path("nine_user_path"))),
    ]
    for problem_name, code in cases:
        problem = parse_problem(problem_path(problem_name))
        plan = decoding_plan(code, problem)
        counts = transmission_counts(plan)
        records, raw = run_sim(problem, code, config, return_raw=True)
        for rec in records:
            p_hat = raw[(0, rec.receiver)] / (config.trials * code.length)
            combined = counts[(rec.receiver, rec.demand)]
            predicted = message_error_prob(ErrorParams(p_hat, combined))
            sigma = math.sqrt(predicted * (1 - predicted) / config.trials)
            assert abs(rec.bep - predicted) <= 3 * sigma, (
                f"{problem_name} receiver {rec.receiver} demand {rec.demand}: "
                f"measured {rec.bep:.5f}, combination law {predicted:.5f}"
            )
    assert time.monotonic() - start < 60


# ---------------------------------------------------------------- 6


def test_rayleigh_4psk_star_code_gains_and_worst_receiver_dominance():
    config = parse_config(config_path("rayleigh_4psk"))

    seven = parse_problem(problem_path("seven_user_complete"))
    star = parse_code(code_path("seven_user_star"))
    path = parse_code(code_path("seven_user_path"))
    snrs, star_curves, star_den = pooled_receiver_curves(run_sim(seven, star, config))
    _, path_curves, path_den = pooled_receiver_curves(run_sim(seven, path, config))

    gain_r1 = crossing_snr(snrs, path_curves[1]) - crossing_snr(snrs, star_curves[1])
    assert 3.0 <= gain_r1 <= 6.0, f"receiver-1 gain {gain_r1:.2f} dB outside 4.5 +/- 1.5"

    star_worst, star_wd = worst_receiver_curve(star_curves, star_den)
    path_worst, path_wd = worst_receiver_curve(path_curves, path_den)
    assert_worst_curve_dominates(snrs, star_worst, star_wd, path_worst, path_wd)

    nine = parse_problem(problem_path("nine_user_skip"))
    nine_star = parse_code(code_path("nine_user_star"))
    nine_tree = parse_code(code_path("nine_user_tree_b"))
    snrs9, star9, _ = pooled_receiver_curves(run_sim(nine, nine_star, config))
    _, tree9, _ = pooled_receiver_curves(run_sim(nine, nine_tree, config))

    gain_r3 = crossing_snr(snrs9, tree9[3]) - crossing_snr(snrs9, star9[3])
    assert 1.0 <= gain_r3 <= 3.0, f"receiver-3 gain {gain_r3:.2f} dB outside 2 +/- 1"
    # at receiver 4 the comparison flips: the non-star tree decodes it sooner
    assert crossing_snr(snrs9, star9[4]) > crossing_snr(snrs9, tree9[4])


# ---------------------------------------------------------------- 7


def test_rician_higher_order_and_ternary_sweeps_preserve_orderings():
    seven = parse_problem(problem_path("seven_user_complete"))
    star = parse_code(code_path("seven_user_star"))
    path = parse_code(code_path("seven_user_path"))
    nine = parse_problem(problem_path("nine_user_skip"))
    nine_star = parse_code(code_path("nine_user_star"))
    nine_tree = parse_code(code_path("nine_user_tree_b"))

    # line-of-sight fading, same modulation
    rician = parse_config(config_path("rician2_4psk"))
    snrs, star_c, star_d = pooled_receiver_curves(run_sim(seven, star, rician))
    _, path_c, path_d = pooled_receiver_curves(run_sim(seven, path, rician))
    assert crossing_snr(snrs, star_c[1]) < crossing_snr(snrs, path_c[1])
    star_w, star_wd = worst_receiver_curve(star_c, star_d)
    path_w, path_wd = worst_receiver_curve(path_c, path_d)
    assert_worst_curve_dominates(snrs, star_w, star_wd, path_w, path_wd)

    snrs9, star9, _ = pooled_receiver_curves(run_sim(nine, nine_star, rician))
    _, tree9, _ = pooled_receiver_curves(run_sim(nine, nine_tree, rician))
    assert crossing_snr(snrs9, star9[3]) < crossing_snr(snrs9, tree9[3])
    assert crossing_snr(snrs9, star9[4]) > crossing_snr(snrs9, tree9[4])

    # denser constellations, Rayleigh fading
    eight = parse_config(config_path("rayleigh_8psk"))
    snrs8, star8, star8_d = pooled_receiver_curves(run_sim(seven, star, eight))
    _, path8, path8_d = pooled_receiver_curves(run_sim(seven, path, eight))
    assert crossing_snr(snrs8, star8[1]) < crossing_snr(snrs8, path8[1])
    star8_w, star8_wd = worst_receiver_curve(star8, star8_d)
    path8_w, path8_wd = worst_receiver_curve(path8, path8_d)
    assert_worst_curve_dominates(snrs8, star8_w, star8_wd, path8_w, path8_wd)

    sixteen = parse_config(config_path("rayleigh_16psk"))
    snrs16, star16, _ = pooled_receiver_curves(run_sim(nine, nine_star, sixteen))
    _, tree16, _ = pooled_receiver_curves(run_sim(nine, nine_tree, sixteen))
    assert crossing_snr(snrs16, star16[3]) < crossing_snr(snrs16, tree16[3])
    assert crossing_snr(snrs16, star16[4]) > crossing_snr(snrs16, tree16[4])

    # ternary field on 3-PSK: the star code still protects the worst receiver
    ternary = parse_config(config_path("rayleigh_3psk"))
    seven3 = parse_problem(problem_path("seven_user_complete_f3"))
    star3 = parse_code(code_path("seven_user_star_f3"))
    path3 = parse_code(code_path("seven_user_path_f3"))
    snrs3, star3_c, _ = pooled_receiver_curves(run_sim(seven3, star3, ternary))
    _, path3_c, _ = pooled_receiver_curves(run_sim(seven3, path3, ternary))
    assert crossing_snr(snrs3, star3_c[7]) < crossing_snr(snrs3, path3_c[7])


# ---------------------------------------------------------------- 8


def test_csv_outputs_are_byte_identical_across_threads_and_reruns(tmp_path):
    def simulate(tag, threads):
        out = tmp_path / f"{tag}.csv"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "uniprior.cli",
                "simulate",
                "--problem",
                str(problem_path("four_user_cycle")),
                "--code",
                "alg2",
                "--config",
                str(config_path("smoke")),
                "--trials",
                "5000",  # not a multiple of the block size
                "--threads",
                str(threads),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return out.read_bytes()

    reference = simulate("t1", 1)
    assert simulate("t2", 2) == reference
    assert simulate("t4", 4) == reference
    assert simulate("rerun", 4) == reference

    def enumerate_census():
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "uniprior.cli",
                "enumerate",
                "--problem",
                str(problem_path("four_user_cycle")),
            ],
            capture_output=True,
        )
        assert result.returncode == 0
        return result.stdout

    assert enumerate_census() == enumerate_census()


# ---------------------------------------------------------------- 9


def digraph_classes(k):
    """One arc set per isomorphism class of non-empty loopless digraphs on
    vertices 1..k: the least sorted relabelling over all vertex permutations."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
    perms = list(itertools.permutations(range(k)))
    classes = set()
    for bits in range(1, 2 ** len(pairs)):
        arcs = [pair for b, pair in enumerate(pairs) if bits >> b & 1]
        classes.add(
            min(tuple(sorted((perm[i - 1] + 1, perm[j - 1] + 1) for i, j in arcs)) for perm in perms)
        )
    return sorted(classes)


def min_max_claim_mismatches(q, k, classes):
    """Classes whose designed code is not census-optimal on (max count, total count)."""
    mismatches = []
    for arcs in classes:
        problem = problem_from_graph(InformationFlowGraph(k, frozenset(arcs)), q)
        code = design_min_max_code(problem).code
        counts = transmission_counts(decoding_plan(code, problem)).values()
        designed = (max(counts), sum(counts))
        length = optimal_length(problem)
        census = classify_codes(problem, enumerate_optimal_codes(problem, length))
        best = min((row.max_count, sum(row.counts.values())) for row in census.rows)
        if code.length != length or designed != best:
            mismatches.append((arcs, designed, best))
    return mismatches


@pytest.mark.parametrize("q, k, count", [(2, 3, 15), (3, 3, 15), (2, 4, 217)])
def test_designed_code_is_census_optimal_on_every_small_digraph(q, k, count):
    classes = digraph_classes(k)
    assert len(classes) == count
    assert min_max_claim_mismatches(q, k, classes) == []
