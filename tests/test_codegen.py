import itertools
import random
from functools import lru_cache

import numpy as np
import pytest

from conftest import FIXTURES, code_path, problem_path, random_square_problem_text
from oracles import (
    FIVE_USER_TWO_STEP_COUNT_MULTISET,
    FOUR_USER_STRONG_COUNT_MULTISET,
    NINE_USER_PATH_COUNTS,
    NINE_USER_STAR_COUNTS,
    NINE_USER_STAR_EXPRESSIONS,
    NINE_USER_TREE_B_COUNTS,
    NINE_USER_TREE_C_COUNTS,
    THREE_USER_COUNTS,
    vec_add,
    vec_scale,
)
from test_acceptance import _random_instance
from uniprior.codegen import (
    EXHAUSTIVE_TREE_LIMIT,
    PLAN_SEARCH_LIMIT,
    DemandPlan,
    LinearCode,
    _pair_bits,
    _tree_search_tables,
    build_index_code,
    codeword_label,
    decoding_plan,
    design_min_max_code,
    min_max_spanning_tree,
    parse_code,
    parse_code_text,
    plan_to_csv,
    transmission_counts,
    write_code,
)
from uniprior.enumeration import enumerate_optimal_codes, optimal_length
from uniprior.errors import InfeasibleError, ValidationError
from uniprior.fields import ColumnBasis, SpanBasis, unit_vector
from uniprior.graphcore import (
    build_flow_graph,
    parse_problem,
    parse_problem_text,
    problem_from_mapping,
    prune,
    reduce_to_square,
)


def plan_entry(plan, receiver, demand):
    return next(e for e in plan.entries if (e.receiver, e.demand) == (receiver, demand))


def support(vec):
    return frozenset(i for i, e in enumerate(vec, start=1) if e)


# ---------------------------------------------------------------------------
# spanning-tree search


@lru_cache(maxsize=None)
def _distance_tables(k):
    """All labeled trees on vertices 0..k-1, as parallel arrays.

    Returns (lo, hi, codes, dist): lo/hi are (T, k-1) endpoint arrays with
    lo < hi and edges sorted canonically within each tree; codes = lo * k + hi
    for lexicographic comparison; dist is the (T, k, k) matrix of tree
    distances.  Trees are decoded from all k^(k-2) sequences via the standard
    smallest-leaf construction, vectorized across trees.
    """
    if k == 2:
        seqs = np.zeros((1, 0), dtype=np.int64)
    else:
        seqs = np.indices((k,) * (k - 2)).reshape(k - 2, -1).T.copy()
    t_count = seqs.shape[0]
    rows = np.arange(t_count)

    deg = np.ones((t_count, k), dtype=np.int16)
    for v in range(k):
        deg[:, v] += (seqs == v).sum(axis=1)
    edges = np.empty((t_count, k - 1, 2), dtype=np.int16)
    for step in range(k - 2):
        joined = seqs[:, step]
        leaf = np.argmax(deg == 1, axis=1)
        edges[:, step, 0] = leaf
        edges[:, step, 1] = joined
        deg[rows, leaf] -= 1
        deg[rows, joined] -= 1
    first = np.argmax(deg == 1, axis=1)
    deg[rows, first] = 0
    second = np.argmax(deg == 1, axis=1)
    edges[:, k - 2, 0] = first
    edges[:, k - 2, 1] = second

    lo = np.minimum(edges[:, :, 0], edges[:, :, 1])
    hi = np.maximum(edges[:, :, 0], edges[:, :, 1])
    codes = lo * k + hi
    order = np.argsort(codes, axis=1)
    codes = np.take_along_axis(codes, order, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)

    dist = np.full((t_count, k, k), 4 * k, dtype=np.int16)
    diag = np.arange(k)
    dist[:, diag, diag] = 0
    dist[rows[:, None], lo, hi] = 1
    dist[rows[:, None], hi, lo] = 1
    for mid in range(k):
        np.minimum(dist, dist[:, :, mid, None] + dist[:, mid, None, :], out=dist)
    return lo, hi, codes, dist


def reference_min_max_tree(component_vertices, demand_arcs):
    """min_max_spanning_tree up to EXHAUSTIVE_TREE_LIMIT vertices, as it once
    scored every labeled tree from a table of tree distances."""
    verts = sorted(set(component_vertices))
    k = len(verts)
    assert 1 <= k <= EXHAUSTIVE_TREE_LIMIT
    if k == 1:
        return []
    index_of = {v: i for i, v in enumerate(verts)}
    local = [(index_of[a], index_of[b]) for a, b in demand_arcs]
    lo, hi, codes, dist = _distance_tables(k)
    if local:
        u = np.array([a for a, _ in local])
        v = np.array([b for _, b in local])
        arc_dist = dist.reshape(len(dist), k * k).take(u * k + v, axis=1)  # dist[:, u, v]
        max_d = arc_dist.max(axis=1)
        tot_d = arc_dist.sum(axis=1)
    else:
        max_d = np.zeros(codes.shape[0], dtype=np.int16)
        tot_d = max_d
    cand = np.flatnonzero(max_d == max_d.min())
    cand = cand[tot_d[cand] == tot_d[cand].min()]
    rows = codes[cand]
    winner = int(cand[np.lexsort(rows[:, ::-1].T)[0]])
    return sorted((verts[int(a)], verts[int(b)]) for a, b in zip(lo[winner], hi[winner]))


def tree_distance_score(tree, demand_arcs):
    """(max, total) tree distance over the demand arcs, by breadth-first search."""
    adj = {}
    for a, b in tree:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    dists = []
    for source in sorted({a for a, _ in demand_arcs}):
        dist, frontier = {source: 0}, [source]
        while frontier:
            reached = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        reached.append(w)
            frontier = reached
        dists += [dist[b] for a, b in demand_arcs if a == source]
    return max(dists, default=0), sum(dists)


def mask_pairs(masks, k):
    """Per pair (a, b) of 0..k-1 in ascending order, which masks hold its bit."""
    pairs = list(itertools.combinations(range(k), 2))
    return {pair: (masks >> (len(pairs) - 1 - rank)) & 1 == 1 for rank, pair in enumerate(pairs)}


@pytest.mark.parametrize(
    "k, expected",
    [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296), (7, 16807), (8, 262144)],
)
def test_tree_table_counts_match_cayley_formula(k, expected):
    edges, squares = _tree_search_tables(k)
    assert edges.shape == squares.shape == (expected,)
    # every edge mask holds k - 1 pairs that connect all k vertices
    hoods = np.tile(1 << np.arange(k), (expected, 1))  # closed neighbourhoods
    edge_count = np.zeros(expected, dtype=np.int64)
    for (a, b), has in mask_pairs(edges, k).items():
        edge_count += has
        hoods[:, a] |= has << b
        hoods[:, b] |= has << a
    assert (edge_count == k - 1).all()
    reached = hoods[:, 0].copy()
    for _ in range(k):
        for v in range(k):
            reached |= np.where((reached >> v) & 1 == 1, hoods[:, v], 0)
    assert (reached == (1 << k) - 1).all()
    # a pair is within distance 2 iff the closed neighbourhoods of its ends meet
    for (a, b), has in mask_pairs(squares, k).items():
        assert (has == ((hoods[:, a] & hoods[:, b]) != 0)).all()


def test_tree_tables_have_no_duplicate_trees():
    for k in range(2, EXHAUSTIVE_TREE_LIMIT + 1):
        edges, _ = _tree_search_tables(k)
        assert len(np.unique(edges)) == k ** (k - 2)


def reference_tree_tables(k):
    """_tree_search_tables as it once decoded every sequence, with per-tree
    degree and closed-neighbourhood arrays and 2-D fancy indexing."""
    if k == 2:
        seqs = np.zeros((1, 0), dtype=np.int8)
    else:
        seqs = np.indices((k,) * (k - 2), dtype=np.int8).reshape(k - 2, -1).T
    t_count = seqs.shape[0]
    rows = np.arange(t_count)

    deg = np.ones((t_count, k), dtype=np.int8)
    for v in range(k):
        deg[:, v] += (seqs == v).sum(axis=1, dtype=np.int8)
    ends = np.empty((2, k - 1, t_count), dtype=np.int8)
    for step in range(k - 2):
        leaf = np.argmax(deg == 1, axis=1)
        ends[:, step] = leaf, seqs[:, step]
        deg[rows, leaf] -= 1
        deg[rows, seqs[:, step]] -= 1
    first = np.argmax(deg == 1, axis=1)
    deg[rows, first] = 0
    ends[:, k - 2] = first, np.argmax(deg == 1, axis=1)

    pair_mask = np.zeros((k, k), dtype=np.int32)
    for (a, b), bit in _pair_bits(k).items():
        pair_mask[a, b] = pair_mask[b, a] = 1 << bit
    vertex_mask = (1 << np.arange(k)).astype(np.int16)
    edges = np.zeros(t_count, dtype=np.int32)
    hoods = np.tile(vertex_mask, (t_count, 1))
    for u, v in ends.transpose(1, 0, 2):
        edges |= pair_mask[u, v]
        hoods[rows, u] |= vertex_mask[v]
        hoods[rows, v] |= vertex_mask[u]
    # inside[s] has the bit of every pair within the vertex set s
    sets = np.arange(1 << k)
    inside = np.zeros(1 << k, dtype=np.int32)
    for (a, b), bit in _pair_bits(k).items():
        inside[(sets >> a) & (sets >> b) & 1 == 1] |= 1 << bit
    squares = np.bitwise_or.reduce(inside[hoods], axis=1)
    return edges, squares


@pytest.mark.parametrize("k", range(2, EXHAUSTIVE_TREE_LIMIT + 1))
def test_tree_tables_match_reference_decoder(k):
    for fast, slow in zip(_tree_search_tables(k), reference_tree_tables(k)):
        assert fast.dtype == slow.dtype == np.int32
        assert fast.shape == slow.shape
        assert np.array_equal(fast, slow)


def test_star_minimizes_when_all_pairs_are_demands():
    arcs = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
    tree = min_max_spanning_tree([1, 2, 3, 4], arcs)
    assert tree == [(1, 2), (1, 3), (1, 4)]


def test_adjacent_demands_admit_a_path_tree():
    # Demands only between consecutive vertices: the path keeps every demand
    # at distance 1 while any star would put some at distance 2.
    arcs = [(1, 2), (2, 3), (3, 4)]
    tree = min_max_spanning_tree([1, 2, 3, 4], arcs)
    assert tree == [(1, 2), (2, 3), (3, 4)]


def test_tie_break_is_lexicographic_smallest_edge_set():
    assert min_max_spanning_tree([4, 9], [(9, 4)]) == [(4, 9)]
    # no demands: every tree ties, so the lexicographically smallest wins
    assert min_max_spanning_tree([1, 2, 3], []) == [(1, 2), (1, 3)]


def test_large_component_uses_demand_heavy_star_center():
    verts = list(range(1, 10))  # 9 vertices exceeds the exhaustive limit
    arcs = [(3, 1), (2, 1), (4, 2), (3, 2), (5, 3), (6, 4), (7, 5), (8, 6), (9, 7), (1, 8), (2, 9)]
    tree = min_max_spanning_tree(verts, arcs)
    # vertex 2 touches the most demand arcs, so it becomes the star center
    assert tree == sorted((min(2, v), max(2, v)) for v in verts if v != 2)


def test_spanning_tree_rejects_foreign_arcs():
    with pytest.raises(ValidationError, match="leaves the component"):
        min_max_spanning_tree([1, 2, 3], [(1, 7)])


@pytest.mark.parametrize("k", [9, 30, 300])
def test_bidirected_path_gets_the_path_at_any_size(k):
    path = [(i, i + 1) for i in range(1, k)]
    arcs = path + [(b, a) for a, b in path]
    tree = min_max_spanning_tree(range(1, k + 1), arcs)
    assert tree == path
    assert tree_distance_score(tree, arcs) == (1, len(arcs))


def test_bidirected_caterpillar_gets_its_own_support():
    # spine 1-2-3-4-5, two legs on every spine vertex: 15 vertices
    spine = [(i, i + 1) for i in range(1, 5)]
    legs = [(s, leg) for s in range(1, 6) for leg in (4 + 2 * s, 5 + 2 * s)]
    support = sorted(spine + legs)
    arcs = support + [(b, a) for a, b in support]
    tree = min_max_spanning_tree(range(1, 16), arcs)
    assert tree == support
    assert tree_distance_score(tree, arcs) == (1, len(arcs))


def test_directed_nine_cycle_keeps_its_star():
    # the support is a cycle, so no tree keeps every demand at distance 1
    arcs = [(i, i % 9 + 1) for i in range(1, 10)]
    tree = min_max_spanning_tree(range(1, 10), arcs)
    assert tree == [(1, v) for v in range(2, 10)]
    assert tree_distance_score(tree, arcs) == (2, 16)


def random_digraph(rng, k):
    """k vertices with spread-out labels; every ordered pair is an arc with
    one probability drawn per digraph."""
    verts = sorted(rng.sample(range(1, 4 * k), k))
    density = rng.random()
    return verts, [(a, b) for a in verts for b in verts if a != b and rng.random() < density]


def assert_same_tree(vertices, arcs):
    assert min_max_spanning_tree(vertices, arcs) == reference_min_max_tree(vertices, arcs), arcs


def searched_components(problem):
    """(vertices, demand arcs) of each component the designer searches."""
    pruned = prune(build_flow_graph(reduce_to_square(problem).problem))
    return [
        (comp, sorted(pruned.component_arcs(idx)))
        for idx, comp in enumerate(pruned.components)
        if len(comp) <= EXHAUSTIVE_TREE_LIMIT
    ]


@pytest.mark.parametrize("path", sorted((FIXTURES / "problems").glob("*.yaml")), ids=lambda p: p.stem)
def test_tree_search_matches_distance_reference_on_fixtures(path):
    for comp, arcs in searched_components(parse_problem(path)):
        assert_same_tree(comp, arcs)


def test_tree_search_matches_distance_reference_on_random_designed_problems():
    rng = random.Random(987123)  # the 1000-instance acceptance test's first 200
    for _ in range(200):
        for comp, arcs in searched_components(_random_instance(rng)):
            assert_same_tree(comp, arcs)


def test_tree_search_matches_distance_reference_on_random_digraphs():
    rng = random.Random(8128)
    for count, k in ((2000, (2, 7)), (30, (8, 8))):
        for _ in range(count):
            assert_same_tree(*random_digraph(rng, rng.randint(*k)))


def test_tree_search_is_never_worse_than_a_star():
    rng = random.Random(496)
    for _ in range(300):
        verts, arcs = random_digraph(rng, rng.randint(2, 14))
        score = tree_distance_score(min_max_spanning_tree(verts, arcs), arcs)
        for c in verts:
            star = [(min(c, v), max(c, v)) for v in verts if v != c]
            assert score <= tree_distance_score(star, arcs)


# ---------------------------------------------------------------------------
# full design pipeline


def test_design_four_user_strong_is_optimal_star():
    problem = parse_problem(problem_path("four_user_strong"))
    design = design_min_max_code(problem)
    assert design.code.length == 3
    counts = transmission_counts(decoding_plan(design.code, problem))
    assert tuple(sorted(counts.values())) == FOUR_USER_STRONG_COUNT_MULTISET
    assert max(counts.values()) == 2
    assert sum(counts.values()) == 9


def test_design_five_user_two_step_matches_expected_counts():
    problem = parse_problem(problem_path("five_user_two_step"))
    design = design_min_max_code(problem)
    assert design.code.length == 4
    counts = transmission_counts(decoding_plan(design.code, problem))
    assert tuple(sorted(counts.values())) == FIVE_USER_TWO_STEP_COUNT_MULTISET


def test_design_seven_user_complete_is_star_with_max_two():
    problem = parse_problem(problem_path("seven_user_complete"))
    design = design_min_max_code(problem)
    assert design.trees == (((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)),)
    counts = transmission_counts(decoding_plan(design.code, problem))
    assert max(counts.values()) == 2
    assert sum(counts.values()) == 72


def test_design_nine_user_uses_star_fallback_with_max_two():
    problem = parse_problem(problem_path("nine_user_skip"))
    design = design_min_max_code(problem)
    assert design.code.length == 8
    counts = transmission_counts(decoding_plan(design.code, problem))
    assert max(counts.values()) == 2
    # star fallback: one central vertex on every tree edge
    (tree,) = design.trees
    flat = [v for e in tree for v in e]
    center = max(set(flat), key=flat.count)
    assert all(center in e for e in tree)


def test_design_two_user_swap_single_transmission():
    problem = parse_problem(problem_path("two_user_swap"))
    design = design_min_max_code(problem)
    assert [codeword_label(c, 2) for c in design.code.columns] == ["x1+x2"]
    counts = transmission_counts(decoding_plan(design.code, problem))
    assert counts == {(1, 2): 1, (2, 1): 1}


def test_design_handles_leftover_and_direct_messages():
    # Receivers 1 and 2 swap messages (a kept cycle); receiver 1 also wants
    # x_3, whose owner sits outside the cycle (a leftover arc); message 4 is
    # known to nobody (a direct transmission).
    problem = parse_problem_text(
        "q: 2\nn: 4\nreceivers:\n"
        "  - {id: 1, wants: [2, 3], knows: [1]}\n"
        "  - {id: 2, wants: [1, 4], knows: [2]}\n"
        "  - {id: 3, wants: [], knows: [3]}\n"
    )
    design = design_min_max_code(problem)
    labels = [codeword_label(c, 2) for c in design.code.columns]
    assert labels == ["x1+x2", "x3", "x4"]
    assert design.trees == (((1, 2),),)
    assert design.pruned.leftover_arcs == {(3, 1)}
    assert design.reduction.direct_messages == {4}
    counts = transmission_counts(decoding_plan(design.code, problem))
    assert counts == {(1, 2): 1, (1, 3): 1, (2, 1): 1, (2, 4): 1}


def test_pruning_dissolves_cycle_when_off_cycle_demand_exists():
    # Vertex 1 feeds both the 1<->2 cycle and an off-cycle demand from
    # receiver 3; the off-cycle arc wins, so everything goes out uncoded and
    # every demand still decodes with a single transmission.
    problem = parse_problem_text(
        "q: 2\nn: 3\nreceivers:\n"
        "  - {id: 1, wants: [2], knows: [1]}\n"
        "  - {id: 2, wants: [1], knows: [2]}\n"
        "  - {id: 3, wants: [1], knows: [3]}\n"
    )
    design = design_min_max_code(problem)
    labels = [codeword_label(c, 2) for c in design.code.columns]
    assert labels == ["x1", "x2"]
    counts = transmission_counts(decoding_plan(design.code, problem))
    assert counts == {(1, 2): 1, (2, 1): 1, (3, 1): 1}


def test_design_ternary_uses_signed_differences():
    problem = parse_problem_text(
        "q: 3\nn: 2\nreceivers:\n"
        "  - {id: 1, wants: [2], knows: [1]}\n"
        "  - {id: 2, wants: [1], knows: [2]}\n"
    )
    design = design_min_max_code(problem)
    # tree edge {1, 2} -> e_1 - e_2 = (1, 2) over F_3
    assert design.code.columns == ((1, 2),)
    counts = transmission_counts(decoding_plan(design.code, problem))
    assert counts == {(1, 2): 1, (2, 1): 1}


def test_build_index_code_validates_tree_shape():
    problem = parse_problem(problem_path("four_user_strong"))
    design = design_min_max_code(problem)
    with pytest.raises(ValidationError, match="span"):
        build_index_code(design.pruned, (((1, 2), (1, 2), (3, 4)),), q=2)
    with pytest.raises(ValidationError, match="one spanning tree per component"):
        build_index_code(design.pruned, (), q=2)


# ---------------------------------------------------------------------------
# LinearCode container


def test_linear_code_matrix_and_encode():
    code = LinearCode(q=2, n=3, columns=((1, 1, 0), (0, 1, 1)))
    assert code.matrix().shape == (3, 2)
    out = np.array([1, 0, 1]) @ code.matrix() % code.q
    assert out.tolist() == [1, 1]
    block = np.array([[1, 0, 1], [1, 1, 1]]) @ code.matrix() % code.q
    assert block.tolist() == [[1, 1], [0, 0]]


def test_linear_code_rejects_bad_columns():
    with pytest.raises(ValidationError, match="zero codeword"):
        LinearCode(q=2, n=2, columns=((0, 0),))
    with pytest.raises(ValidationError, match="length"):
        LinearCode(q=2, n=2, columns=((1, 0, 1),))
    with pytest.raises(ValidationError, match="entries"):
        LinearCode(q=2, n=2, columns=((1, 2),))


def test_code_hash_depends_on_content():
    a = LinearCode(q=2, n=2, columns=((1, 1),))
    b = LinearCode(q=2, n=2, columns=((1, 0),))
    assert a.code_hash() != b.code_hash()
    assert a.code_hash() == LinearCode(q=2, n=2, columns=((1, 1),)).code_hash()
    assert len(a.code_hash()) == 16


def test_code_yaml_roundtrip(tmp_path):
    code = LinearCode(q=3, n=3, columns=((1, 2, 0), (0, 1, 1)))
    path = tmp_path / "code.yaml"
    write_code(code, path)
    again = parse_code(path)
    assert again.q == code.q and again.n == code.n and again.columns == code.columns


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("q: 2\nn: 2", "missing field"),
        ("q: 2\nn: 2\ncolumns: [[1, 0]]\nfoo: 1", "unknown field"),
        ("q: 2\nn: 2\ncolumns: 3", "list"),
        ("q: 2\nn: 2\ncolumns: [[1, 0], [0, 0]]", "zero codeword"),
    ],
)
def test_code_parse_rejections(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_code_text(text)


# ---------------------------------------------------------------------------
# decoding plans against independently derived count tables


@pytest.mark.parametrize(
    "name, expected",
    [
        ("nine_user_star", NINE_USER_STAR_COUNTS),
        ("nine_user_tree_b", NINE_USER_TREE_B_COUNTS),
        ("nine_user_tree_c", NINE_USER_TREE_C_COUNTS),
        ("nine_user_path", NINE_USER_PATH_COUNTS),
    ],
)
def test_nine_user_fixed_code_counts(name, expected):
    problem = parse_problem(problem_path("nine_user_skip"))
    code = parse_code(code_path(name))
    assert transmission_counts(decoding_plan(code, problem)) == expected


def test_nine_user_star_plan_expressions_are_exact():
    problem = parse_problem(problem_path("nine_user_skip"))
    code = parse_code(code_path("nine_user_star"))
    plan = decoding_plan(code, problem)
    assert [e.expression() for e in plan.entries] == NINE_USER_STAR_EXPRESSIONS


def test_three_user_code_counts():
    problem = parse_problem(problem_path("three_user"))
    for supports, expected in THREE_USER_COUNTS.items():
        columns = []
        for s in sorted(supports, key=sorted):
            columns.append(tuple(1 if i in s else 0 for i in range(1, 4)))
        code = LinearCode(q=2, n=3, columns=tuple(columns))
        assert transmission_counts(decoding_plan(code, problem)) == expected


def test_plan_prefers_smallest_count_then_earliest_columns():
    # Count comes first; among equal counts the earliest column subset wins,
    # and adding the receiver's own known symbol costs nothing.
    problem = parse_problem_text(
        "q: 2\nn: 2\nreceivers:\n"
        "  - {id: 1, wants: [2], knows: [1]}\n"
        "  - {id: 2, wants: [1], knows: [2]}\n"
    )
    code = LinearCode(q=2, n=2, columns=((1, 1), (1, 0), (0, 1)))
    plan = decoding_plan(code, problem)
    # x2 = x1 + t1 uses column 1; the direct column 3 loses the subset tie
    assert plan_entry(plan, 1, 2).code_terms == ((1, 1),)
    assert plan_entry(plan, 1, 2).known_terms == ((1, 1),)
    assert plan_entry(plan, 2, 1).expression() == "x1 = x2 + t1"
    # with the combined column removed, the direct column is the only
    # single-transmission option left
    direct = LinearCode(q=2, n=2, columns=((1, 0), (0, 1)))
    direct_plan = decoding_plan(direct, problem)
    assert plan_entry(direct_plan, 1, 2).code_terms == ((2, 1),)
    assert plan_entry(direct_plan, 1, 2).known_terms == ()


def test_plan_uses_known_message_when_needed():
    problem = parse_problem(problem_path("two_user_swap"))
    code = LinearCode(q=2, n=2, columns=((1, 1),))
    plan = decoding_plan(code, problem)
    assert plan_entry(plan, 1, 2).known_terms == ((1, 1),)
    assert plan_entry(plan, 1, 2).expression() == "x2 = x1 + t1"


def test_plan_ternary_coefficients():
    problem = parse_problem_text(
        "q: 3\nn: 2\nreceivers:\n"
        "  - {id: 1, wants: [2], knows: [1]}\n"
        "  - {id: 2, wants: [1], knows: [2]}\n"
    )
    code = LinearCode(q=3, n=2, columns=((1, 2),))
    plan = decoding_plan(code, problem)
    # receiver 1: x2 = 2*(x1 - x2) + ... -> e2 = a*e1 + b*(1,2): b=2 gives (2,4)=(2,1),
    # need a=1: (1,0)+(2,1)=(0,1). So x2 = x1 + 2*t1.
    assert plan_entry(plan, 1, 2).expression() == "x2 = x1 + 2*t1"
    # receiver 2: e1 = a*e2 + b*(1,2): b=1, a=1: (1,2)+(0,1)=(1,0). x1 = x2 + t1.
    assert plan_entry(plan, 2, 1).expression() == "x1 = x2 + t1"


def test_plan_infeasible_when_code_cannot_serve_demand():
    problem = parse_problem_text(
        "q: 2\nn: 3\nreceivers:\n"
        "  - {id: 1, wants: [2, 3], knows: [1]}\n"
        "  - {id: 2, wants: [1], knows: [2]}\n"
        "  - {id: 3, wants: [1], knows: [3]}\n"
    )
    code = LinearCode(q=2, n=3, columns=((1, 1, 0),))
    with pytest.raises(InfeasibleError, match="cannot recover message 3"):
        decoding_plan(code, problem)


def test_plan_rejects_mismatched_field_or_size():
    problem = parse_problem(problem_path("two_user_swap"))
    with pytest.raises(ValidationError, match="q="):
        decoding_plan(LinearCode(q=3, n=2, columns=((1, 2),)), problem)
    with pytest.raises(ValidationError, match="covers"):
        decoding_plan(LinearCode(q=2, n=3, columns=((1, 1, 0),)), problem)


def test_plan_csv_schema():
    problem = parse_problem(problem_path("two_user_swap"))
    code = LinearCode(q=2, n=2, columns=((1, 1),))
    text = plan_to_csv(decoding_plan(code, problem))
    lines = text.strip().split("\n")
    assert lines[0] == "receiver,demand,count,expression"
    assert lines[1] == "1,2,1,x2 = x1 + t1"
    assert lines[2] == "2,1,1,x1 = x2 + t1"


def test_codeword_label_formats():
    assert codeword_label((1, 1, 0), 2) == "x1+x2"
    assert codeword_label((0, 0, 1), 2) == "x3"
    assert codeword_label((1, 0, 2), 3) == "x1+2*x3"


# ---------------------------------------------------------------------------
# plans read off the solution coset against the subset search


def _best_decode(code: LinearCode, receiver: int, demand: int, known: list[int]) -> DemandPlan:
    """Reference plan: try column subsets by size, in itertools.combinations
    order, each with every known-message multiple and every coefficient
    choice; the first combination giving e_demand wins."""
    q, n = code.q, code.n
    target = unit_vector(n, demand)
    known_vecs = [unit_vector(n, k) for k in known]
    if not SpanBasis(n, q, known_vecs + list(code.columns)).contains(target):
        raise InfeasibleError(f"receiver {receiver} cannot recover message {demand} from this code")
    zero = (0,) * n
    for card in range(code.length + 1):
        for subset in itertools.combinations(range(code.length), card):
            for alphas in itertools.product(range(q), repeat=len(known)):
                base = zero
                for a, kv in zip(alphas, known_vecs):
                    if a:
                        base = vec_add(base, vec_scale(kv, a, q), q)
                for betas in itertools.product(range(1, q), repeat=card):
                    total = base
                    for b, t in zip(betas, subset):
                        total = vec_add(total, vec_scale(code.columns[t], b, q), q)
                    if total == target:
                        return DemandPlan(
                            receiver=receiver,
                            demand=demand,
                            known_terms=tuple((k, a) for k, a in zip(known, alphas) if a),
                            code_terms=tuple((t + 1, b) for t, b in zip(subset, betas)),
                        )
    raise InfeasibleError(f"receiver {receiver} cannot recover message {demand} from this code")


def search_plan(code, problem):
    """_best_decode's entry for every demand, or the text of its refusal."""
    entries = []
    for receiver, demand in problem.demands():
        known = sorted(problem.known_sets[receiver - 1])
        try:
            entries.append(_best_decode(code, receiver, demand, known))
        except InfeasibleError as exc:
            entries.append(str(exc))
    return entries


def assert_plan_matches_search(code, problem, independent=True) -> bool:
    """decoding_plan gives _best_decode's entry for every demand, or refuses
    with the text of the first demand the search refuses; returns whether it
    refused.

    `independent` states whether the code's columns are linearly independent,
    checked on the row reduction: designed and optimal-length codes are, so
    their plans need no walk over a kernel."""
    assert (ColumnBasis.of(code.n, code.q, code.columns).kernel == ()) == independent
    expected = search_plan(code, problem)
    refusals = [e for e in expected if isinstance(e, str)]
    if not refusals:
        assert list(decoding_plan(code, problem).entries) == expected
        return False
    with pytest.raises(InfeasibleError) as caught:
        decoding_plan(code, problem)
    assert str(caught.value) == refusals[0]
    return True


def test_plans_match_search_on_random_designed_codes():
    rng = random.Random(987123)  # the 1000-instance acceptance test's first 200
    for _ in range(200):
        problem = _random_instance(rng)
        assert_plan_matches_search(design_min_max_code(problem).code, problem)


FOUR_CYCLE_F3 = "q: 3\nn: 4\nreceivers:\n" + "".join(
    f"  - {{id: {i}, wants: [{i % 4 + 1}], knows: [{i}]}}\n" for i in range(1, 5)
)


@pytest.mark.parametrize(
    "problem, total",
    [(parse_problem(problem_path("five_user_cycle")), 840), (parse_problem_text(FOUR_CYCLE_F3), 1872)],
    ids=["five_user_cycle", "four_cycle_f3"],
)
def test_plans_match_search_on_every_optimal_code(problem, total):
    codes = list(enumerate_optimal_codes(problem, optimal_length(problem)))
    assert len(codes) == total
    for code in codes:
        assert_plan_matches_search(code, problem)


@pytest.mark.parametrize(
    "problem_name, code_name",
    [("nine_user_skip", c) for c in ("nine_user_star", "nine_user_path", "nine_user_tree_b", "nine_user_tree_c")]
    + [("seven_user_complete", c) for c in ("seven_user_star", "seven_user_path")]
    + [("seven_user_complete_f3", c) for c in ("seven_user_star_f3", "seven_user_path_f3")],
)
def test_plans_match_search_on_fixture_codes(problem_name, code_name):
    assert_plan_matches_search(parse_code(code_path(code_name)), parse_problem(problem_path(problem_name)))


def test_plans_match_search_with_several_known_messages():
    # Receivers knowing up to three messages try up to 27 multiples each, and
    # random codes leave some demands unserved, so the refusal is compared too.
    rng = random.Random(2718)
    refused = 0
    for _ in range(200):
        q, n = rng.choice((2, 3)), rng.randint(2, 6)
        basis, columns = SpanBasis(n, q), []
        for _ in range(rng.randint(1, n)):
            col = tuple(rng.randrange(q) for _ in range(n))
            if basis.add(col):
                columns.append(col)
        code = LinearCode(q=q, n=n, columns=tuple(columns))
        for _ in range(3):
            messages = rng.sample(range(1, n + 1), rng.randint(2, min(n, 5)))
            split = rng.randint(1, min(3, len(messages) - 1))
            receiver = {"id": 1, "knows": messages[:split], "wants": messages[split:]}
            problem = problem_from_mapping({"q": q, "n": n, "receivers": [receiver]})
            refused += assert_plan_matches_search(code, problem)
    assert 50 < refused < 550


def random_dependent_code(rng, q, n):
    """Up to n + 3 nonzero columns over F_q, some repeating or scaling an
    earlier one, drawn until they are linearly dependent."""
    while True:
        columns = []
        for _ in range(rng.randint(2, n + 3)):
            if columns and rng.random() < 0.3:
                columns.append(vec_scale(rng.choice(columns), rng.randrange(1, q), q))
            else:
                col = tuple(rng.randrange(q) for _ in range(n))
                if any(col):
                    columns.append(col)
        if SpanBasis(n, q, columns).rank < len(columns):
            return LinearCode(q=q, n=n, columns=tuple(columns))


@pytest.mark.parametrize("q", [2, 3])
def test_plans_match_search_on_random_dependent_codes(q):
    rng = random.Random(4100 + q)
    refused = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        code = random_dependent_code(rng, q, n)
        receivers = []
        for rid in range(1, rng.randint(1, 3) + 1):
            messages = rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))
            split = rng.randint(0, min(2, len(messages) - 1))
            receivers.append({"id": rid, "knows": messages[:split], "wants": messages[split:]})
        problem = problem_from_mapping({"q": q, "n": n, "receivers": receivers})
        refused += assert_plan_matches_search(code, problem, independent=False)
    assert 30 < refused < 270


def _dependent_codes_above_optimum(problem):
    """The codes of `enumerate --length opt+1` whose columns are dependent.

    On these fixtures opt + 1 = n, so each generator matrix is square and
    its columns are dependent iff its determinant vanishes mod q."""
    length = optimal_length(problem) + 1
    assert length == problem.n
    codes = list(enumerate_optimal_codes(problem, length))
    det = np.linalg.det(np.array([code.columns for code in codes], dtype=float))
    return [code for code, d in zip(codes, np.rint(det).astype(np.int64)) if d % problem.q == 0]


@pytest.mark.parametrize(
    "name, dependent, sample",
    [
        ("three_user", 1, 1),
        ("four_user_cycle", 35, 35),
        ("four_user_strong", 35, 35),
        ("five_user_cycle", 2688, 150),
        ("five_user_two_step", 2688, 150),
    ],
)
def test_plans_match_search_on_dependent_codes_above_the_optimum(name, dependent, sample):
    problem = parse_problem(problem_path(name))
    codes = _dependent_codes_above_optimum(problem)
    assert len(codes) == dependent
    for code in random.Random(name).sample(codes, sample):
        assert not assert_plan_matches_search(code, problem, independent=False)


def dependent_path_code(q, length):
    """x_i - x_{i+1} over F_q on `length` messages, with the first column repeated."""
    path = [
        tuple(1 if j == i else q - 1 if j == i + 1 else 0 for j in range(1, length + 1))
        for i in range(1, length)
    ]
    return LinearCode(q=q, n=length, columns=tuple(path + path[:1]))


@pytest.mark.parametrize("q, most", [(2, 20), (3, 12)])
def test_dependent_column_search_bound_is_per_field(q, most):
    # Path codes at and past the old column bound (20 over F_2, 12 over F_3)
    # have one kernel vector, so they are planned; x_1 -> x_N takes every
    # path column, the repeated first column losing the tie to column 1.
    for length in (most, most + 1):
        code = dependent_path_code(q, length)
        assert len(ColumnBasis.of(code.n, q, code.columns).kernel) == 1
        receiver = {"id": 1, "knows": [1], "wants": [2, length]}
        problem = problem_from_mapping({"q": q, "n": length, "receivers": [receiver]})
        plan = decoding_plan(code, problem)
        assert plan_entry(plan, 1, 2).count == 1
        far = plan_entry(plan, 1, length)
        assert far.known_terms == ((1, 1),)
        assert far.code_terms == tuple((j, q - 1) for j in range(1, length))
    # The bound is on the kernel's dimension: x_1 sent d + 1 times.  Up to
    # the bound the demand for x_2 is refused as unservable, which needs no
    # walk; one past it the code is refused before any demand is read.
    receiver = {"id": 1, "knows": [], "wants": [2]}
    problem = problem_from_mapping({"q": q, "n": 2, "receivers": [receiver]})
    for d in (most, most + 1):
        code = LinearCode(q=q, n=2, columns=((1, 0),) * (d + 1))
        assert len(ColumnBasis.of(2, q, code.columns).kernel) == d
        with pytest.raises(InfeasibleError) as caught:
            decoding_plan(code, problem)
        if d == most:
            assert str(caught.value) == "receiver 1 cannot recover message 2 from this code"
        else:
            assert str(caught.value) == (
                "decoding-plan search not attempted for codes with more than "
                f"{most} dependent columns (length minus rank) over F_{q}"
            )


def test_designed_300_receiver_code_gets_an_exact_plan():
    problem = parse_problem_text(random_square_problem_text(300, 2, 0.1, seed=300))
    design = design_min_max_code(problem)
    code = design.code
    # far longer than the kernel bound, but with independent columns
    assert code.length > PLAN_SEARCH_LIMIT
    assert ColumnBasis.of(code.n, code.q, code.columns).kernel == ()
    plan = decoding_plan(code, problem)
    assert [(e.receiver, e.demand) for e in plan.entries] == problem.demands()

    component_messages = {
        design.reduction.message_of_vertex[v] for comp in design.pruned.components for v in comp
    }
    matrix = code.matrix()
    for e in plan.entries:
        total = np.zeros(code.n, dtype=np.int64)
        for msg, coeff in e.known_terms:
            total[msg - 1] += coeff
        for col, coeff in e.code_terms:
            total += coeff * matrix[:, col - 1]
        assert (total % code.q).tolist() == list(unit_vector(code.n, e.demand))
        assert e.count <= (2 if e.demand in component_messages else 1)
