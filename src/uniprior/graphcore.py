"""Problem representation, information flow graphs, and graph pruning.

A single-uniprior broadcast problem has n messages over F_q and m receivers;
receiver i knows exactly one message and wants an arbitrary subset of the
others.  The information flow graph puts an arc (i, j) whenever receiver j
wants the message receiver i knows.  Pruning repeatedly strips redundant
off-cycle demand arcs until what remains is a set of non-trivial strongly
connected components plus leftover arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ValidationError
from .fields import SUPPORTED_FIELD_ORDERS


@dataclass(frozen=True)
class IndexCodingProblem:
    """n messages over F_q, m receivers with want/known sets (1-based ids)."""

    q: int
    n: int
    want_sets: tuple[frozenset[int], ...]
    known_sets: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.want_sets)

    @property
    def is_uniprior(self) -> bool:
        """Each receiver knows exactly one message, all pairwise distinct."""
        if any(len(k) != 1 for k in self.known_sets):
            return False
        singles = [next(iter(k)) for k in self.known_sets]
        return len(set(singles)) == len(singles)

    def known_message(self, receiver: int) -> int:
        """The unique message receiver knows (uniprior problems only)."""
        known = self.known_sets[receiver - 1]
        if len(known) != 1:
            raise ValidationError(f"receiver {receiver} does not know exactly one message")
        return next(iter(known))

    def demands(self) -> list[tuple[int, int]]:
        """All (receiver, wanted message) pairs, sorted."""
        return [(r, d) for r in range(1, self.m + 1) for d in sorted(self.want_sets[r - 1])]


@dataclass(frozen=True)
class InformationFlowGraph:
    """Directed demand graph on receiver vertices 1..vertex_count."""

    vertex_count: int
    arcs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class PrunedGraph:
    """Residual graph after pruning: non-trivial SCCs plus leftover arcs."""

    residual: InformationFlowGraph
    components: tuple[frozenset[int], ...]
    leftover_arcs: frozenset[tuple[int, int]]

    def component_arcs(self, index: int) -> frozenset[tuple[int, int]]:
        members = self.components[index]
        return frozenset(a for a in self.residual.arcs if a[0] in members and a[1] in members)


@dataclass
class SquareReduction:
    """Result of reduce_to_square: relabeled problem plus bookkeeping.

    The reduced problem has n = m and receiver i knows message i.  Messages
    known to nobody are pulled out into direct_messages (original indices) and
    must be transmitted uncoded.  message_of_vertex maps reduced index ->
    original message index so codewords can be emitted in the original space.
    """

    problem: IndexCodingProblem
    direct_messages: frozenset[int]
    message_of_vertex: dict[int, int] = field(default_factory=dict)


def _require_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = allowed - set(mapping)
    if missing:
        raise ValidationError(f"missing field(s) {sorted(missing)} in {where}")


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _as_index_list(value, what: str, n: int) -> frozenset[int]:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list of message indices")
    indices = [_as_int(x, f"{what} entry") for x in value]
    for x in indices:
        if not 1 <= x <= n:
            raise ValidationError(f"{what} index {x} out of range 1..{n}")
    if len(set(indices)) != len(indices):
        raise ValidationError(f"duplicate indices in {what}")
    return frozenset(indices)


def problem_from_mapping(data) -> IndexCodingProblem:
    """Validate a decoded problem document (see README for the schema)."""
    if not isinstance(data, dict):
        raise ValidationError("problem document must be a mapping")
    _require_keys(data, {"q", "n", "receivers"}, "problem document")
    q = _as_int(data["q"], "q")
    if q not in SUPPORTED_FIELD_ORDERS:
        raise ValidationError(f"unsupported field order q={q}; expected one of {SUPPORTED_FIELD_ORDERS}")
    n = _as_int(data["n"], "n")
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    receivers = data["receivers"]
    if not isinstance(receivers, list) or not receivers:
        raise ValidationError("receivers must be a non-empty list")

    by_id: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    for entry in receivers:
        if not isinstance(entry, dict):
            raise ValidationError("each receiver must be a mapping")
        _require_keys(entry, {"id", "wants", "knows"}, "receiver entry")
        rid = _as_int(entry["id"], "receiver id")
        if rid in by_id:
            raise ValidationError(f"duplicate receiver id {rid}")
        wants = _as_index_list(entry["wants"], f"receiver {rid} wants", n)
        knows = _as_index_list(entry["knows"], f"receiver {rid} knows", n)
        if wants & knows:
            raise ValidationError(
                f"receiver {rid} wants and knows overlap: {sorted(wants & knows)}"
            )
        by_id[rid] = (wants, knows)

    m = len(by_id)
    if set(by_id) != set(range(1, m + 1)):
        raise ValidationError(f"receiver ids must be exactly 1..{m}, got {sorted(by_id)}")
    want_sets = tuple(by_id[r][0] for r in range(1, m + 1))
    known_sets = tuple(by_id[r][1] for r in range(1, m + 1))
    return IndexCodingProblem(q=q, n=n, want_sets=want_sets, known_sets=known_sets)


# libyaml's scanner builds the same objects as the pure-Python one, faster.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_yaml(text: str, what: str):
    """Decode one YAML document safely; `what` names it in the error."""
    try:
        return yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"malformed {what} document: {exc}") from exc


def parse_problem_text(text: str) -> IndexCodingProblem:
    return problem_from_mapping(load_yaml(text, "problem"))


def parse_problem(path: str | Path) -> IndexCodingProblem:
    """Load and validate a problem file (YAML; unknown fields rejected)."""
    return parse_problem_text(Path(path).read_text())


def reduce_to_square(problem: IndexCodingProblem) -> SquareReduction:
    """Relabel a uniprior problem so receiver i knows message i (n = m).

    Messages known to nobody but wanted by someone become direct_messages;
    they are dropped from the reduced want-sets (they can only be served by
    uncoded transmissions, which the code builder appends from
    direct_messages).  Messages nobody knows or wants are not sent at all.
    """
    if not problem.is_uniprior:
        raise ValidationError("reduce_to_square requires a uniprior problem")
    owner = {}  # original message -> receiver knowing it
    for r in range(1, problem.m + 1):
        owner[problem.known_message(r)] = r
    wanted = frozenset().union(*problem.want_sets)
    direct = frozenset(x for x in range(1, problem.n + 1) if x not in owner and x in wanted)
    message_of_vertex = {r: k for k, r in owner.items()}
    vertex_of_message = {k: r for k, r in owner.items()}

    want_sets = tuple(
        frozenset(vertex_of_message[x] for x in problem.want_sets[r - 1] if x not in direct)
        for r in range(1, problem.m + 1)
    )
    known_sets = tuple(frozenset({r}) for r in range(1, problem.m + 1))
    reduced = IndexCodingProblem(q=problem.q, n=problem.m, want_sets=want_sets, known_sets=known_sets)
    return SquareReduction(problem=reduced, direct_messages=direct, message_of_vertex=message_of_vertex)


def build_flow_graph(problem: IndexCodingProblem) -> InformationFlowGraph:
    """Arc (i, j) iff receiver j wants the message receiver i knows."""
    if not problem.is_uniprior:
        raise ValidationError("information flow graph requires a single-uniprior problem")
    if problem.n != problem.m:
        raise ValidationError(
            "information flow graph requires n = m; call reduce_to_square first"
        )
    known = {r: problem.known_message(r) for r in range(1, problem.m + 1)}
    arcs = frozenset(
        (i, j)
        for j in range(1, problem.m + 1)
        for i in range(1, problem.m + 1)
        if i != j and known[i] in problem.want_sets[j - 1]
    )
    return InformationFlowGraph(vertex_count=problem.m, arcs=arcs)


def _adjacency(vertex_count: int, arcs) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, vertex_count + 1)}
    for i, j in sorted(arcs):
        adj[i].append(j)
    return adj


def _components(adj: dict[int, list[int]]) -> list[frozenset[int]]:
    """Maximal SCC partition, ordered by each component's smallest vertex."""
    v_count = len(adj)
    radj: dict[int, list[int]] = {v: [] for v in adj}
    for i, heads in adj.items():
        for j in heads:
            radj[j].append(i)

    # Kosaraju: first pass records finish order with an iterative DFS.
    visited: set[int] = set()
    order: list[int] = []
    for start in range(1, v_count + 1):
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


def prune(graph: InformationFlowGraph) -> PrunedGraph:
    """Iteratively drop redundant off-cycle demand arcs, then label SCCs.

    While some vertex has more than one outgoing arc and at least one outgoing
    arc (i, j) lying on no cycle, all outgoing arcs of i except (i, j) are
    removed.  An arc lies on no cycle iff its endpoints are in different
    SCCs, so each round labels the SCCs once.  Deterministic choice: vertices
    scanned in ascending order, and among off-cycle arcs the smallest head is
    kept.
    """
    adj = _adjacency(graph.vertex_count, graph.arcs)
    pruned_some = True
    while pruned_some:
        components = _components(adj)
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
    # Leftover: every arc not inside a non-trivial SCC (a self-loop on a
    # singleton SCC included).
    leftover = frozenset(
        (i, j) for i, j in arcs if label[i] != label[j] or len(components[label[i]]) < 2
    )
    return PrunedGraph(residual=residual, components=non_trivial, leftover_arcs=leftover)
