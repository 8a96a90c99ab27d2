import random

import pytest
import yaml

from conftest import FIXTURES, problem_path
from oracles import FOUR_USER_STRONG_ARCS, NINE_USER_ARCS, problem_from_graph
from uniprior import graphcore
from uniprior.channelsim import parse_config_text
from uniprior.codegen import parse_code_text
from uniprior.errors import ValidationError
from uniprior.graphcore import (
    IndexCodingProblem,
    InformationFlowGraph,
    PrunedGraph,
    build_flow_graph,
    parse_problem,
    parse_problem_text,
    prune,
    reduce_to_square,
)


def _adjacency(vertex_count, arcs) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, vertex_count + 1)}
    for i, j in sorted(arcs):
        adj[i].append(j)
    return adj


def _kosaraju_components(adj: dict[int, list[int]]) -> list[frozenset[int]]:
    """Maximal SCC partition by Kosaraju's two passes, ordered by smallest vertex."""
    radj: dict[int, list[int]] = {v: [] for v in adj}
    for i, heads in adj.items():
        for j in heads:
            radj[j].append(i)

    # First pass: finish order, by an iterative DFS.
    visited: set[int] = set()
    order: list[int] = []
    for start in adj:
        if start in visited:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        visited.add(start)
        while stack:
            v, idx = stack.pop()
            if idx < len(adj[v]):
                stack.append((v, idx + 1))
                w = adj[v][idx]
                if w not in visited:
                    visited.add(w)
                    stack.append((w, 0))
            else:
                order.append(v)

    # Second pass: on the reverse graph, in reverse finish order.
    assigned: set[int] = set()
    components: list[frozenset[int]] = []
    for root in reversed(order):
        if root in assigned:
            continue
        members = [root]
        assigned.add(root)
        stack2 = [root]
        while stack2:
            v = stack2.pop()
            for w in radj[v]:
                if w not in assigned:
                    assigned.add(w)
                    members.append(w)
                    stack2.append(w)
        components.append(frozenset(members))
    return sorted(components, key=min)


def strongly_connected_components(graph: InformationFlowGraph) -> list[frozenset[int]]:
    """Maximal SCC partition, ordered by each component's smallest vertex."""
    return _kosaraju_components(_adjacency(graph.vertex_count, graph.arcs))


def test_parse_valid_problem():
    problem = parse_problem(problem_path("three_user"))
    assert problem.q == 2
    assert problem.n == 3
    assert problem.m == 3
    assert problem.want_sets[0] == frozenset({2, 3})
    assert problem.known_sets[2] == frozenset({3})
    assert problem.is_uniprior


def test_demands_are_sorted():
    problem = parse_problem(problem_path("three_user"))
    assert problem.demands() == [(1, 2), (1, 3), (2, 1), (3, 1), (3, 2)]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[]", "must be a mapping"),
        ("q: 2\nn: 2", "missing field"),
        ("q: 2\nn: 2\nreceivers: []\nextra: 1", "unknown field"),
        ("q: 4\nn: 2\nreceivers:\n  - {id: 1, wants: [2], knows: [1]}", "field order"),
        ("q: 2\nn: 0\nreceivers:\n  - {id: 1, wants: [], knows: []}", "positive"),
        ("q: 2\nn: 2\nreceivers: []", "non-empty"),
        ("q: 2\nn: 2\nreceivers:\n  - {id: 1, wants: [2], knows: [1], note: hi}", "unknown field"),
        ("q: 2\nn: 2\nreceivers:\n  - {id: 1, wants: [3], knows: [1]}", "out of range"),
        ("q: 2\nn: 2\nreceivers:\n  - {id: 1, wants: [2, 2], knows: [1]}", "duplicate indices"),
        ("q: 2\nn: 2\nreceivers:\n  - {id: 1, wants: [1], knows: [1]}", "overlap"),
        (
            "q: 2\nn: 2\nreceivers:\n  - {id: 1, wants: [2], knows: [1]}\n"
            "  - {id: 1, wants: [1], knows: [2]}",
            "duplicate receiver",
        ),
        (
            "q: 2\nn: 3\nreceivers:\n  - {id: 1, wants: [2], knows: [1]}\n"
            "  - {id: 3, wants: [1], knows: [2]}",
            "exactly 1..2",
        ),
        ("q: true\nn: 2\nreceivers:\n  - {id: 1, wants: [2], knows: [1]}", "integer"),
        ("q: 2\nn: 2\nreceivers:\n  - {id: 1, wants: 2, knows: [1]}", "list"),
        ("q: 2\nn: 2\nreceivers: [\n", "malformed"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_problem_text(text)


FIXTURE_PARSERS = {"problems": parse_problem_text, "configs": parse_config_text, "codes": parse_code_text}


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*/*.yaml")), ids=lambda p: f"{p.parent.name}/{p.stem}"
)
def test_libyaml_and_pure_python_loaders_agree_on_fixtures(path, monkeypatch):
    text = path.read_text()
    parse = FIXTURE_PARSERS[path.parent.name]
    assert graphcore.YAML_LOADER is yaml.CSafeLoader
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    parsed = parse(text)
    monkeypatch.setattr(graphcore, "YAML_LOADER", yaml.SafeLoader)
    assert parse(text) == parsed


@pytest.mark.parametrize("loader", [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)])
@pytest.mark.parametrize("parse, what", [(p, w[:-1]) for w, p in FIXTURE_PARSERS.items()])
def test_malformed_document_is_rejected_by_either_loader(loader, parse, what, monkeypatch):
    monkeypatch.setattr(graphcore, "YAML_LOADER", loader)
    with pytest.raises(ValidationError, match=f"malformed {what} document"):
        parse("q: [unclosed\n")


def test_uniprior_detection():
    shared = parse_problem_text(
        "q: 2\nn: 3\nreceivers:\n"
        "  - {id: 1, wants: [3], knows: [1]}\n"
        "  - {id: 2, wants: [3], knows: [1]}\n"
    )
    assert not shared.is_uniprior
    with pytest.raises(ValidationError):
        reduce_to_square(shared)


def test_reduce_to_square_identity_when_already_square():
    problem = parse_problem(problem_path("nine_user_skip"))
    reduction = reduce_to_square(problem)
    assert reduction.direct_messages == frozenset()
    assert reduction.message_of_vertex == {i: i for i in range(1, 10)}
    assert reduction.problem == problem


def test_reduce_to_square_relabels_and_extracts_direct():
    # Receiver 1 knows message 3, receiver 2 knows message 1; message 2 is
    # known to nobody and wanted by receiver 2.
    problem = parse_problem_text(
        "q: 2\nn: 3\nreceivers:\n"
        "  - {id: 1, wants: [1], knows: [3]}\n"
        "  - {id: 2, wants: [2, 3], knows: [1]}\n"
    )
    reduction = reduce_to_square(problem)
    assert reduction.direct_messages == frozenset({2})
    assert reduction.message_of_vertex == {1: 3, 2: 1}
    reduced = reduction.problem
    assert reduced.n == reduced.m == 2
    # receiver 1 wanted message 1 = vertex 2's message
    assert reduced.want_sets[0] == frozenset({2})
    # receiver 2 wanted messages {2 (direct, dropped), 3 = vertex 1}
    assert reduced.want_sets[1] == frozenset({1})


def test_flow_graph_arcs_for_nine_user_problem():
    problem = parse_problem(problem_path("nine_user_skip"))
    graph = build_flow_graph(problem)
    assert graph.vertex_count == 9
    assert graph.arcs == NINE_USER_ARCS


def test_flow_graph_requires_square_uniprior():
    problem = parse_problem_text(
        "q: 2\nn: 3\nreceivers:\n"
        "  - {id: 1, wants: [3], knows: [1]}\n"
        "  - {id: 2, wants: [1], knows: [2]}\n"
    )
    with pytest.raises(ValidationError, match="n = m"):
        build_flow_graph(problem)


def test_problem_from_graph_round_trips():
    problem = parse_problem(problem_path("four_user_cycle"))
    graph = build_flow_graph(problem)
    again = problem_from_graph(graph, q=2)
    assert again == problem


def test_scc_chain_gives_singletons():
    graph = InformationFlowGraph(vertex_count=3, arcs=frozenset({(1, 2), (2, 3)}))
    comps = strongly_connected_components(graph)
    assert comps == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_scc_cycle_and_tail():
    graph = InformationFlowGraph(
        vertex_count=4, arcs=frozenset({(1, 2), (2, 1), (2, 3), (3, 4)})
    )
    comps = strongly_connected_components(graph)
    assert frozenset({1, 2}) in comps
    assert frozenset({3}) in comps
    assert frozenset({4}) in comps


def test_prune_keeps_strongly_connected_graph_unchanged():
    problem = parse_problem(problem_path("four_user_strong"))
    graph = build_flow_graph(problem)
    assert graph.arcs == FOUR_USER_STRONG_ARCS
    pruned = prune(graph)
    assert pruned.residual.arcs == graph.arcs
    assert pruned.components == (frozenset({1, 2, 3, 4}),)
    assert pruned.leftover_arcs == frozenset()


def test_prune_keeps_single_cycle():
    problem = parse_problem(problem_path("nine_user_skip"))
    pruned = prune(build_flow_graph(problem))
    assert pruned.components == (frozenset(range(1, 10)),)
    assert pruned.leftover_arcs == frozenset()
    assert pruned.residual.arcs == NINE_USER_ARCS


def test_prune_removes_off_cycle_arcs_keeping_smallest_head():
    # Vertex 1 has three outgoing arcs, none on a cycle: the smallest head
    # must be the one kept.
    graph = InformationFlowGraph(
        vertex_count=4, arcs=frozenset({(1, 2), (1, 3), (1, 4)})
    )
    pruned = prune(graph)
    assert pruned.residual.arcs == frozenset({(1, 2)})
    assert pruned.components == ()
    assert pruned.leftover_arcs == frozenset({(1, 2)})


def test_prune_prefers_off_cycle_arc_but_keeps_cycles_elsewhere():
    # Vertex 1 sits on a 2-cycle with vertex 2 and also points at vertex 3.
    # The off-cycle arc (1, 3) is kept, the cycle arc (1, 2) is dropped, and
    # the cycle dissolves: (2, 1) becomes the leftover arc of vertex 2.
    graph = InformationFlowGraph(
        vertex_count=3, arcs=frozenset({(1, 2), (2, 1), (1, 3)})
    )
    pruned = prune(graph)
    assert pruned.residual.arcs == frozenset({(1, 3), (2, 1)})
    assert pruned.components == ()
    assert set(pruned.leftover_arcs) == {(1, 3), (2, 1)}


def test_prune_leftover_tails_are_distinct():
    problem = parse_problem(problem_path("five_user_two_step"))
    graph = build_flow_graph(problem)
    pruned = prune(graph)
    tails = [a for a, _ in pruned.leftover_arcs]
    assert len(tails) == len(set(tails))


def test_pruned_vertices_keep_at_most_one_outgoing_arc_or_all_on_cycles():
    problem = parse_problem(problem_path("nine_user_skip"))
    pruned = prune(build_flow_graph(problem))
    in_any_component = {
        a for i in range(len(pruned.components)) for a in pruned.component_arcs(i)
    }
    for v in range(1, 10):
        out = [a for a in pruned.residual.arcs if a[0] == v]
        assert len(out) <= 1 or all(a in in_any_component for a in out)


# ---------------------------------------------------------------- prune vs. reachability


def _reaches(adj, source, target):
    """True iff target is reachable from source (trivially when source == target)."""
    if source == target:
        return True
    seen = {source}
    stack = [source]
    while stack:
        for w in adj[stack.pop()]:
            if w == target:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def reference_prune(graph):
    """Pruning with one reachability search per arc, as prune once did it."""
    arcs = set(graph.arcs)
    while True:
        adj = {v: sorted(j for i, j in arcs if i == v) for v in range(1, graph.vertex_count + 1)}
        pick = None
        for i in range(1, graph.vertex_count + 1):
            heads = adj[i]
            if len(heads) <= 1:
                continue
            off_cycle = [j for j in heads if not _reaches(adj, j, i)]
            if off_cycle:
                pick = (i, off_cycle[0])
                break
        if pick is None:
            break
        arcs = {a for a in arcs if a[0] != pick[0]}
        arcs.add(pick)
    residual = InformationFlowGraph(vertex_count=graph.vertex_count, arcs=frozenset(arcs))
    components = tuple(c for c in strongly_connected_components(residual) if len(c) >= 2)
    inside = {a for c in components for a in arcs if a[0] in c and a[1] in c}
    return PrunedGraph(
        residual=residual, components=components, leftover_arcs=frozenset(arcs - inside)
    )


def _assert_same_pruning(graph):
    fast, slow = prune(graph), reference_prune(graph)
    assert fast.residual.arcs == slow.residual.arcs
    assert fast.components == slow.components
    assert fast.leftover_arcs == slow.leftover_arcs


@pytest.mark.parametrize("path", sorted((FIXTURES / "problems").glob("*.yaml")), ids=lambda p: p.stem)
def test_prune_matches_reachability_reference_on_fixtures(path):
    _assert_same_pruning(build_flow_graph(reduce_to_square(parse_problem(path)).problem))


def test_prune_matches_reachability_reference_on_random_digraphs():
    rng = random.Random(4031)
    for _ in range(2000):
        v_count = rng.randint(2, 14)
        density = rng.random()
        # Self-loops are drawn too, although flow graphs have none.
        arcs = frozenset(
            (i, j)
            for i in range(1, v_count + 1)
            for j in range(1, v_count + 1)
            if rng.random() < density
        )
        _assert_same_pruning(InformationFlowGraph(vertex_count=v_count, arcs=arcs))


# ---------------------------------------------------------------- prune vs. round-by-round relabelling


def reference_rounds_prune(graph):
    """Pruning that labels every SCC afresh after each cut and rescans from vertex 1."""
    adj = _adjacency(graph.vertex_count, graph.arcs)
    pruned_some = True
    while pruned_some:
        components = _kosaraju_components(adj)
        label = {v: c for c, comp in enumerate(components) for v in comp}
        pruned_some = False
        for i, heads in adj.items():
            if len(heads) <= 1:
                continue
            off_cycle = [j for j in heads if label[j] != label[i]]
            if off_cycle:
                adj[i] = off_cycle[:1]
                pruned_some = True
                break

    arcs = frozenset((i, j) for i, heads in adj.items() for j in heads)
    residual = InformationFlowGraph(vertex_count=graph.vertex_count, arcs=arcs)
    non_trivial = tuple(c for c in components if len(c) >= 2)
    leftover = frozenset(
        (i, j) for i, j in arcs if label[i] != label[j] or len(components[label[i]]) < 2
    )
    return PrunedGraph(residual=residual, components=non_trivial, leftover_arcs=leftover)


def _random_digraph(rng, v_count, rate, self_loops=False):
    arcs = frozenset(
        (i, j)
        for i in range(1, v_count + 1)
        for j in range(1, v_count + 1)
        if (self_loops or i != j) and rng.random() < rate
    )
    return InformationFlowGraph(vertex_count=v_count, arcs=arcs)


def _assert_same_as_rounds(graph):
    fast, slow = prune(graph), reference_rounds_prune(graph)
    assert fast.residual.arcs == slow.residual.arcs
    assert fast.components == slow.components
    assert fast.leftover_arcs == slow.leftover_arcs


@pytest.mark.parametrize("seed", range(6))
def test_prune_matches_rounds_reference_on_dense_sized_digraphs(seed):
    # The design_dense shapes: sparse graphs (mean out-degree 3) need many
    # rounds, half of them cutting an arc on a cycle; rate 0.1 needs one.
    rng = random.Random(seed)
    v_count = rng.randint(100, 300)
    _assert_same_as_rounds(_random_digraph(rng, v_count, 3 / v_count))
    _assert_same_as_rounds(_random_digraph(rng, v_count, 0.1))


def test_prune_matches_rounds_reference_on_small_digraphs_with_self_loops():
    rng = random.Random(7219)
    for _ in range(600):
        _assert_same_as_rounds(_random_digraph(rng, rng.randint(1, 14), rng.random(), self_loops=True))


def test_label_components_matches_kosaraju_on_vertex_subsets():
    rng = random.Random(515)
    for _ in range(300):
        graph = _random_digraph(rng, rng.randint(1, 16), rng.random() * 0.4, self_loops=True)
        members = sorted(rng.sample(range(1, graph.vertex_count + 1), rng.randint(1, graph.vertex_count)))
        label = [0] * (graph.vertex_count + 1)
        for v in members:
            label[v] = 5
        adj = graphcore._adjacency(graph.vertex_count, graph.arcs)
        fresh = graphcore._label_components(adj, members, label, 6)
        inside = frozenset((i, j) for i, j in graph.arcs if i in members and j in members)
        restricted = InformationFlowGraph(vertex_count=graph.vertex_count, arcs=inside)
        expected = [c for c in strongly_connected_components(restricted) if min(c) in members]
        classes = {}
        for v in members:
            classes.setdefault(label[v], set()).add(v)
        assert sorted(map(frozenset, classes.values()), key=min) == expected
        assert set(classes) == set(range(6, fresh))
        assert all(label[v] == 0 for v in range(1, graph.vertex_count + 1) if v not in members)


def reference_flow_graph(problem):
    """Arc (i, j) by testing every ordered receiver pair."""
    return frozenset(
        (i, j)
        for j in range(1, problem.m + 1)
        for i in range(1, problem.m + 1)
        if i != j and problem.known_message(i) in problem.want_sets[j - 1]
    )


def test_flow_graph_matches_pairwise_reference_with_direct_and_unused_messages():
    rng = random.Random(88)
    seen_direct = seen_unused = 0
    for _ in range(200):
        n = rng.randint(2, 30)
        m = rng.randint(1, n)
        owned = rng.sample(range(1, n + 1), m)
        receivers = [
            (frozenset(x for x in range(1, n + 1) if x != k and rng.random() < 0.3), frozenset({k}))
            for k in owned
        ]
        problem = IndexCodingProblem(
            q=2, n=n, want_sets=tuple(w for w, _ in receivers), known_sets=tuple(k for _, k in receivers)
        )
        reduction = reduce_to_square(problem)
        seen_direct += bool(reduction.direct_messages)
        seen_unused += len(reduction.direct_messages) + m < n
        graph = build_flow_graph(reduction.problem)
        assert graph.vertex_count == m
        assert graph.arcs == reference_flow_graph(reduction.problem)
    assert seen_direct and seen_unused
