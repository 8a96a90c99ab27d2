import itertools
import random
from collections import Counter
from math import comb

import pytest

from conftest import FIXTURES, problem_path
from oracles import FOUR_USER_CYCLE_TABLE, THREE_USER_CODES, problem_from_graph
from uniprior import enumeration
from uniprior.codegen import LinearCode, decoding_plan, design_min_max_code, transmission_counts
from uniprior.enumeration import (
    ENUMERATION_MESSAGE_LIMIT,
    brute_force_optimal_length,
    candidate_vectors,
    classification_to_csv,
    classify_codes,
    enumerate_optimal_codes,
    optimal_length,
)
from uniprior.errors import InfeasibleError, ValidationError
from uniprior.fields import SpanBasis, unit_vector
from uniprior.graphcore import (
    IndexCodingProblem,
    InformationFlowGraph,
    parse_problem,
    parse_problem_text,
)


def support(vec):
    return frozenset(i for i, e in enumerate(vec, start=1) if e)


def code_supports(code):
    return frozenset(support(c) for c in code.columns)


def test_candidate_vectors_binary():
    cands = candidate_vectors(3, 2)
    assert len(cands) == 7
    assert cands[0] == (0, 0, 1)
    assert cands[-1] == (1, 1, 1)


def test_candidate_vectors_ternary_normalized():
    cands = candidate_vectors(2, 3)
    # up to scaling: first nonzero coordinate is 1
    assert cands == [(0, 1), (1, 0), (1, 1), (1, 2)]


@pytest.mark.parametrize(
    "name, expected",
    [
        ("two_user_swap", 1),
        ("three_user", 2),
        ("four_user_cycle", 3),
        ("four_user_strong", 3),
        ("five_user_cycle", 4),
        ("five_user_two_step", 4),
        ("seven_user_complete", 6),
        ("nine_user_skip", 8),
    ],
)
def test_optimal_length_formula(name, expected):
    assert optimal_length(parse_problem(problem_path(name))) == expected


@pytest.mark.parametrize(
    "name", ["two_user_swap", "three_user", "four_user_cycle", "four_user_strong"]
)
def test_formula_agrees_with_brute_force(name):
    problem = parse_problem(problem_path(name))
    assert optimal_length(problem) == brute_force_optimal_length(problem)


def test_optimal_length_counts_direct_messages():
    problem = parse_problem_text(
        "q: 2\nn: 3\nreceivers:\n"
        "  - {id: 1, wants: [2, 3], knows: [1]}\n"
        "  - {id: 2, wants: [1], knows: [2]}\n"
    )
    # one coded symbol for the 1<->2 swap plus message 3 sent uncoded
    assert optimal_length(problem) == 2


def test_message_nobody_knows_or_wants_is_not_sent():
    problem = parse_problem_text(
        "q: 2\nn: 3\nreceivers:\n"
        "  - {id: 1, wants: [2], knows: [1]}\n"
        "  - {id: 2, wants: [1], knows: [2]}\n"
    )
    # x1 + x2 serves both receivers; x3 is neither known nor wanted
    assert optimal_length(problem) == brute_force_optimal_length(problem) == 1
    assert design_min_max_code(problem).code.columns == ((1, 1, 0),)


def test_three_user_enumeration_is_exactly_the_known_codes():
    problem = parse_problem(problem_path("three_user"))
    codes = list(enumerate_optimal_codes(problem, 2))
    assert len(codes) == 3
    assert {code_supports(c) for c in codes} == set(THREE_USER_CODES)


def test_shorter_than_optimal_yields_nothing():
    problem = parse_problem(problem_path("three_user"))
    assert list(enumerate_optimal_codes(problem, 1)) == []


def test_enumeration_is_deterministic_and_duplicate_free():
    problem = parse_problem(problem_path("four_user_cycle"))
    first = [c.columns for c in enumerate_optimal_codes(problem, 3)]
    second = [c.columns for c in enumerate_optimal_codes(problem, 3)]
    assert first == second
    assert len(set(first)) == len(first)


def test_four_user_cycle_census_and_counts():
    problem = parse_problem(problem_path("four_user_cycle"))
    result = classify_codes(problem, enumerate_optimal_codes(problem, 3))
    assert result.total == 28
    assert result.histogram == {2: 12, 3: 16}
    seen = {}
    for row in result.rows:
        by_receiver = tuple(row.counts[(r, r % 4 + 1)] for r in range(1, 5))
        seen[code_supports(row.code)] = by_receiver
    assert seen == FOUR_USER_CYCLE_TABLE


def test_designed_code_appears_in_census_with_minimal_max_count():
    problem = parse_problem(problem_path("four_user_cycle"))
    designed = design_min_max_code(problem).code
    result = classify_codes(problem, enumerate_optimal_codes(problem, 3))
    supports = [code_supports(row.code) for row in result.rows]
    assert code_supports(designed) in supports
    designed_row = result.rows[supports.index(code_supports(designed))]
    assert designed_row.max_count == min(row.max_count for row in result.rows)


def test_single_direct_code_classifies_as_one():
    problem = parse_problem_text(
        "q: 2\nn: 2\nreceivers:\n"
        "  - {id: 1, wants: [2], knows: [1]}\n"
        "  - {id: 2, wants: [], knows: [2]}\n"
    )
    result = classify_codes(problem, enumerate_optimal_codes(problem, 1))
    assert result.histogram == {1: len(result.rows)}


def test_enumeration_bounds_enforced():
    big = parse_problem_text(
        "q: 2\nn: 7\nreceivers:\n"
        + "\n".join(
            f"  - {{id: {i}, wants: [{i % 7 + 1}], knows: [{i}]}}" for i in range(1, 8)
        )
    )
    with pytest.raises(InfeasibleError, match="n <= 6"):
        list(enumerate_optimal_codes(big, 6))
    ternary = parse_problem_text(
        "q: 3\nn: 5\nreceivers:\n"
        + "\n".join(
            f"  - {{id: {i}, wants: [{i % 5 + 1}], knows: [{i}]}}" for i in range(1, 6)
        )
    )
    with pytest.raises(InfeasibleError, match="n <= 4"):
        list(enumerate_optimal_codes(ternary, 4))


def test_ternary_enumeration_small_case():
    problem = parse_problem_text(
        "q: 3\nn: 2\nreceivers:\n"
        "  - {id: 1, wants: [2], knows: [1]}\n"
        "  - {id: 2, wants: [1], knows: [2]}\n"
    )
    codes = list(enumerate_optimal_codes(problem, 1))
    # any combination a*x1 + b*x2 with a, b nonzero works: (1,1) and (1,2)
    assert [c.columns for c in codes] == [((1, 1),), ((1, 2),)]


def test_classification_csv_layout():
    problem = parse_problem(problem_path("three_user"))
    result = classify_codes(problem, enumerate_optimal_codes(problem, 2))
    lines = classification_to_csv(result).strip().split("\n")
    assert lines[0] == "index,codewords,max_count"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    assert "x1+x2" in "".join(lines)


# ------------------------------------------- differential: subset scan


def reference_enumerate(problem, length):
    """The census as a scan of every length-subset of candidate codewords:
    a subset is kept when, for each receiver, a row basis of the subset plus
    its known unit vectors contains every wanted unit vector."""
    n, q = problem.n, problem.q
    units = [None] + [unit_vector(n, k) for k in range(1, n + 1)]
    for combo in itertools.combinations(candidate_vectors(n, q), length):
        if all(
            all(basis.contains(units[d]) for d in wants)
            for wants, known in zip(problem.want_sets, problem.known_sets)
            if wants
            for basis in [SpanBasis(n, q, list(combo) + [units[k] for k in known])]
        ):
            yield combo


def assert_same_census(problem, length, subset_limit):
    """Compare with the scan when it has at most subset_limit subsets to test
    (about 20 us each); larger cases are compared outside tier-1 (CHANGES)."""
    if length < 0 or comb(len(candidate_vectors(problem.n, problem.q)), length) > subset_limit:
        return
    got = [code.columns for code in enumerate_optimal_codes(problem, length)]
    assert got == list(reference_enumerate(problem, length)), (problem, length)


def random_problem(rng, q, n, uniprior):
    """Receivers know 0-3 messages (one each, all distinct, when uniprior) and
    want up to two others; some messages may be known to nobody."""
    if uniprior:
        knows = [frozenset({k}) for k in rng.sample(range(1, n + 1), rng.randint(1, n))]
    else:
        knows = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(3, n))))
            for _ in range(rng.randint(1, n + 1))
        ]
    wants = []
    for known in knows:
        rest = [x for x in range(1, n + 1) if x not in known]
        wants.append(frozenset(rng.sample(rest, rng.randint(0, min(2, len(rest))))))
    return IndexCodingProblem(q=q, n=n, want_sets=tuple(wants), known_sets=tuple(knows))


def census_fixtures():
    for path in sorted((FIXTURES / "problems").glob("*.yaml")):
        problem = parse_problem(path)
        if problem.n <= ENUMERATION_MESSAGE_LIMIT[problem.q]:
            yield pytest.param(problem, id=path.stem)


FOUR_CYCLE_F3 = problem_from_graph(InformationFlowGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1)})), 3)

NAMED_CENSUS_PROBLEMS = [
    pytest.param(
        problem_from_graph(InformationFlowGraph(5, frozenset({(1, 2), (2, 3), (3, 1), (4, 5), (5, 4)})), 2),
        id="3-cycle+2-cycle",
    ),
    pytest.param(FOUR_CYCLE_F3, id="four-cycle-F3"),
]


@pytest.mark.parametrize("problem", [*census_fixtures(), *NAMED_CENSUS_PROBLEMS])
def test_census_matches_subset_scan(problem):
    opt = optimal_length(problem)
    for length in (opt - 1, opt, opt + 1):
        assert_same_census(problem, length, subset_limit=32_000)


def test_census_matches_subset_scan_on_random_problems():
    rng = random.Random(20261019)
    for i in range(300):
        q = 2 if i % 2 == 0 else 3
        problem = random_problem(rng, q, rng.randint(1, 5 if q == 2 else 3), uniprior=i % 3 == 0)
        opt = brute_force_optimal_length(problem)
        if problem.is_uniprior:
            assert optimal_length(problem) == opt, problem
        for length in (opt - 1, opt, opt + 1):
            assert_same_census(problem, length, subset_limit=5_000)


# ------------------------------------------- differential: decoding plans


def reference_weights(numbers, plus, q, blank):
    """W[p]: the fewest columns that combine, with nonzero coefficients, to
    vector p; blank's value for p outside their span.

    Column by column, W_k[p] = min over a in F_q of W_{k-1}[p - a x_k] + [a != 0].
    A column outside the span so far reaches each new point p + a x_k from
    exactly one old point p; a column inside it only lowers W on the span.
    """
    table = blank[:]
    table[0] = 0
    span = [0]
    for x in numbers:
        rows = (plus[x],) if q == 2 else (plus[x], plus[plus[x][x]])
        if table[x] == blank[0]:  # x lies outside the span so far
            grown = []
            for row in rows:
                for p in span:
                    table[row[p]] = table[p] + 1
                grown += [row[p] for p in span]
            span += grown
        else:
            old = table[:]
            for row in rows:
                for p in span:
                    table[p] = min(table[p], old[row[p]] + 1)
    return table


def weight_rows(problem, codes):
    """A reference: each code's counts and max count from a walk of its
    columns, one code at a time (reference_weights)."""
    n, q = problem.n, problem.q
    plus, _, number = enumeration._numbering(n, q)
    cosets = enumeration._demand_cosets(problem, plus)
    blank = [n + 1] * q**n
    rows = []
    for code in codes:
        table = reference_weights([number[c] for c in code.columns], plus, q, blank)
        counts = [(key, min(table[t] for t in targets)) for key, targets in cosets]
        rows.append((counts, max((c for _, c in counts), default=0)))
    return rows


def plan_rows(problem, codes):
    """A reference: each code's counts and max count from its decoding plan."""
    rows = []
    for code in codes:
        counts = transmission_counts(decoding_plan(code, problem))
        rows.append((list(counts.items()), max(counts.values(), default=0)))
    return rows


def table_rows(problem, codes):
    """classify_codes' rows as (counts in key order, max count), after
    checking that the rows keep the codes, their order and 1-based indexes."""
    result = classify_codes(problem, codes)
    assert [(row.index, row.code) for row in result.rows] == list(enumerate(codes, start=1))
    assert list(result.histogram.items()) == sorted(Counter(row.max_count for row in result.rows).items())
    return [(list(row.counts.items()), row.max_count) for row in result.rows]


def block_size(problem):
    """An upper bound on the codes in one block of classify_codes."""
    return enumeration.BLOCK_ENTRIES // problem.q**problem.n


def test_classification_counts_without_plans():
    # classify_codes counts from weight tables only; it has no planner to call.
    assert not hasattr(enumeration, "decoding_plan")
    assert not hasattr(enumeration, "transmission_counts")


def every_kth(codes, most):
    return codes[:: 1 + len(codes) // most]


@pytest.mark.parametrize("problem", [*census_fixtures(), *NAMED_CENSUS_PROBLEMS])
def test_table_counts_match_plans(problem):
    # Every optimal code, then the codes one column longer, many of them
    # with dependent columns.  Where there are more than 20,000 (five_user_cycle
    # has 86,016), every k-th in lex order, still several blocks; against
    # plans, which take about 0.2 ms per code, more than 2,000.
    opt = optimal_length(problem)
    for length in (opt, opt + 1):
        codes = every_kth(list(enumerate_optimal_codes(problem, length)), 20_000)
        assert table_rows(problem, codes) == weight_rows(problem, codes)
        sample = every_kth(codes, 2000)
        assert table_rows(problem, sample) == plan_rows(problem, sample)


def test_table_counts_match_plans_on_random_problems():
    # Receivers that know several messages, or none, and longer codes with
    # dependent columns over both fields.
    rng = random.Random(20261020)
    for i in range(200):
        q = 2 if i % 2 == 0 else 3
        problem = random_problem(rng, q, rng.randint(1, 4 if q == 2 else 3), uniprior=i % 3 == 0)
        opt = brute_force_optimal_length(problem)
        for length in (opt, opt + 1):
            codes = list(itertools.islice(enumerate_optimal_codes(problem, length), 100))
            assert table_rows(problem, codes) == plan_rows(problem, codes), (problem, length)


def test_codes_longer_than_n_match_references():
    # Past n columns the tables switch from subset sums to the column
    # recurrence.  five_user_cycle at opt + 2 (N = 6 > n = 5): its first
    # codes in lex order, and optimal codes with one more column appended
    # (a superset of a decodable code is decodable), repeats included.
    problem = parse_problem(problem_path("five_user_cycle"))
    opt = optimal_length(problem)
    codes = list(itertools.islice(enumerate_optimal_codes(problem, opt + 2), 1500))
    rng = random.Random(20261021)
    vectors = list(itertools.product(range(2), repeat=5))[1:]
    for code in every_kth(list(enumerate_optimal_codes(problem, opt + 1)), 1500):
        extra = rng.choice([*vectors, *code.columns])
        codes.append(LinearCode(q=2, n=5, columns=(*code.columns, extra)))
    assert len({len(code.columns) for code in codes}) == 1
    assert table_rows(problem, codes) == weight_rows(problem, codes)
    sample = every_kth(codes, 300)
    assert table_rows(problem, sample) == plan_rows(problem, sample)
    # three_user at length 6 (n = 3): every decodable 6-subset
    three = parse_problem(problem_path("three_user"))
    longest = list(enumerate_optimal_codes(three, 6))
    assert longest
    assert table_rows(three, longest) == weight_rows(three, longest) == plan_rows(three, longest)


@pytest.mark.parametrize("problem", [*census_fixtures(), *NAMED_CENSUS_PROBLEMS])
def test_random_codes_with_repeats_and_multiples_match_references(problem):
    # Columns drawn with replacement from every nonzero vector (over F_3 not
    # only the scaled-to-1 ones), at every length up to n + 2.  Decodable
    # codes are classified as one stream; each undecodable one raises the
    # plan's refusal.
    n, q = problem.n, problem.q
    rng = random.Random(20261022)
    vectors = list(itertools.product(range(q), repeat=n))[1:]
    decodable = []
    for length in range(n + 3):
        for _ in range(30):
            code = LinearCode(q=q, n=n, columns=tuple(rng.choices(vectors, k=length)))
            try:
                plan_rows(problem, [code])
            except InfeasibleError as refusal:
                with pytest.raises(InfeasibleError) as by_table:
                    classify_codes(problem, [code])
                assert str(by_table.value) == str(refusal)
            else:
                decodable.append(code)
    assert len({len(code.columns) for code in decodable}) > 1
    assert table_rows(problem, decodable) == weight_rows(problem, decodable) == plan_rows(problem, decodable)


def test_hand_made_codes_with_repeats_multiples_and_no_columns():
    three = parse_problem(problem_path("three_user"))
    repeated = [
        LinearCode(q=2, n=3, columns=((1, 1, 0), (0, 1, 1), (1, 1, 0))),
        LinearCode(q=2, n=3, columns=((0, 1, 1), (0, 1, 1), (1, 1, 0), (1, 1, 0))),
    ]
    assert table_rows(three, repeated) == weight_rows(three, repeated) == plan_rows(three, repeated)
    cycle = FOUR_CYCLE_F3
    multiples = [
        LinearCode(q=3, n=4, columns=((1, 1, 0, 0), (2, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))),
        LinearCode(q=3, n=4, columns=((1, 2, 0, 0), (0, 2, 1, 0), (2, 1, 0, 0), (0, 0, 2, 1), (1, 0, 0, 2))),
    ]
    assert table_rows(cycle, multiples) == weight_rows(cycle, multiples) == plan_rows(cycle, multiples)
    # a problem with no demands: the empty code serves it, with no counts
    idle = parse_problem_text("q: 2\nn: 2\nreceivers:\n  - {id: 1, wants: [], knows: [1]}\n")
    empty = [LinearCode(q=2, n=2, columns=())] * 3
    assert table_rows(idle, empty) == plan_rows(idle, empty) == [([], 0)] * 3


def test_stream_that_mixes_lengths():
    # A block holds codes of one length, so every change of length starts one.
    problem = parse_problem(problem_path("four_user_cycle"))
    by_length = [list(enumerate_optimal_codes(problem, length)) for length in (3, 4, 5)]
    codes = [code for group in itertools.zip_longest(*by_length) for code in group if code]
    codes += by_length[0][:5] + by_length[2][:1] + by_length[0][5:7]
    assert table_rows(problem, codes) == weight_rows(problem, codes)
    sample = every_kth(codes, 300)
    assert table_rows(problem, sample) == plan_rows(problem, sample)


@pytest.mark.parametrize("entries", [1, 200, None])
def test_stream_longer_than_one_block(entries, monkeypatch):
    # The F_3 four-cycle's 1,872 optimal codes: more than one block at the
    # default size, and one or two codes per block at the smaller ones.
    problem = FOUR_CYCLE_F3
    if entries is not None:
        monkeypatch.setattr(enumeration, "BLOCK_ENTRIES", entries)
    codes = list(enumerate_optimal_codes(problem, optimal_length(problem)))
    assert len(codes) > block_size(problem)
    assert table_rows(problem, codes) == weight_rows(problem, codes)


@pytest.mark.parametrize(
    "columns",
    [
        ((0, 0, 1),),  # receiver 1 cannot get x2
        ((1, 1, 0), (1, 1, 0)),  # dependent; receiver 1 gets x2 but not x3
        ((1, 1, 0), (0, 0, 1)),  # receivers 1 and 2 decode; receiver 3 cannot get x1
        (),
    ],
)
def test_undecodable_code_raises_the_plan_refusal(columns):
    # The undecodable code comes after more than a full block of decodable
    # ones and before a code over F_3, which decoding_plan would refuse with
    # a ValidationError; the refusal must come first.
    problem = parse_problem(problem_path("three_user"))
    code = LinearCode(q=2, n=3, columns=columns)
    with pytest.raises(InfeasibleError) as by_plan:
        decoding_plan(code, problem)
    designed = design_min_max_code(problem).code
    other_field = LinearCode(q=3, n=3, columns=((1, 1, 0),))
    stream = [designed] * (block_size(problem) + 1) + [code, other_field]
    with pytest.raises(InfeasibleError) as by_table:
        classify_codes(problem, stream)
    assert str(by_table.value) == str(by_plan.value)


def test_codes_over_other_fields_or_lengths_are_refused_as_plans_refuse_them():
    problem = parse_problem(problem_path("three_user"))
    with pytest.raises(ValidationError, match="code is over q=3"):
        classify_codes(problem, [LinearCode(q=3, n=3, columns=((1, 1, 0),))])
    with pytest.raises(ValidationError, match="code covers 4 messages"):
        classify_codes(problem, [LinearCode(q=2, n=4, columns=((1, 1, 0, 0),))])


@pytest.mark.parametrize("name", ["seven_user_complete", "seven_user_complete_f3"])
def test_codes_above_the_census_bound_are_refused_like_the_census(name):
    # Past the census bound there are no weight tables; the library route to
    # such a code's counts is transmission_counts(decoding_plan(...)).
    problem = parse_problem(problem_path(name))
    assert problem.n > ENUMERATION_MESSAGE_LIMIT[problem.q]
    with pytest.raises(InfeasibleError) as by_census:
        next(enumerate_optimal_codes(problem, optimal_length(problem)))
    assert "exhaustive enumeration" in str(by_census.value)
    for stream in ([], [design_min_max_code(problem).code]):
        with pytest.raises(InfeasibleError) as by_table:
            classify_codes(problem, stream)
        assert str(by_table.value) == str(by_census.value)
