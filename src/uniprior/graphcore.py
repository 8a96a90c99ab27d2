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


def _require_keys(mapping: dict, required: set[str], where: str, optional: frozenset = frozenset()) -> None:
    unknown = set(mapping) - required
    if unknown and not unknown <= optional:
        raise ValidationError(f"unknown field(s) {sorted(unknown - optional)} in {where}")
    missing = required - set(mapping)
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
    owner = {problem.known_message(r): r for r in range(1, problem.m + 1)}
    arcs = frozenset(
        (owner[x], j) for j, wants in enumerate(problem.want_sets, start=1) for x in wants if owner[x] != j
    )
    return InformationFlowGraph(vertex_count=problem.m, arcs=arcs)


def _adjacency(vertex_count: int, arcs) -> list[list[int]]:
    """Heads of each vertex's arcs in ascending order, indexed by vertex (entry 0 unused)."""
    adj: list[list[int]] = [[] for _ in range(vertex_count + 1)]
    for i, j in sorted(arcs):
        adj[i].append(j)
    return adj


def _label_components(adj: list[list[int]], members, label: list[int], fresh: int) -> int:
    """Tarjan's search over `members`, which all carry the same label.

    Arcs to vertices with another label are ignored.  Each strongly connected
    component found gets its own label, counting up from `fresh`; returns the
    next unused label.  A visited vertex keeps the old label exactly while it
    is on Tarjan's stack.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    for root in members:
        if root in index:
            continue
        old = label[root]  # every unvisited member still carries the label
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, heads = work[-1]
            for w in heads:
                if label[w] != old:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = fresh
                        if w == v:
                            break
                    fresh += 1
    return fresh


def prune(graph: InformationFlowGraph) -> PrunedGraph:
    """Iteratively drop redundant off-cycle demand arcs, then label SCCs.

    While some vertex has more than one outgoing arc and at least one outgoing
    arc (i, j) lying on no cycle, all outgoing arcs of i except (i, j) are
    removed.  An arc lies on no cycle iff its endpoints are in different
    SCCs.  Deterministic choice: vertices scanned in ascending order, and
    among off-cycle arcs the smallest head is kept.

    The SCCs are labelled once.  A cut that drops only off-cycle arcs leaves
    them as they are, and the scan goes on at i + 1.  A cut that drops an arc
    on a cycle can split only i's component C: C alone is relabelled, and the
    scan resumes at min(C), since no vertex outside C sees a head's label
    change from or to its own.
    """
    v_count = graph.vertex_count
    adj = _adjacency(v_count, graph.arcs)
    label = [0] * (v_count + 1)
    fresh = _label_components(adj, range(1, v_count + 1), label, 1)
    i = 1
    while i <= v_count:
        heads, own = adj[i], label[i]
        keep = len(heads) > 1 and next((j for j in heads if label[j] != own), 0)
        if keep:
            adj[i] = [keep]
            if any(label[j] == own for j in heads):
                members = [v for v in range(1, v_count + 1) if label[v] == own]
                fresh = _label_components(adj, members, label, fresh)
                i = members[0]
                continue
        i += 1

    classes: dict[int, list[int]] = {}
    for v in range(1, v_count + 1):
        classes.setdefault(label[v], []).append(v)
    arcs = frozenset((i, j) for i in range(1, v_count + 1) for j in adj[i])
    residual = InformationFlowGraph(vertex_count=v_count, arcs=arcs)
    non_trivial = tuple(frozenset(c) for c in classes.values() if len(c) >= 2)
    # Leftover: every arc not inside a non-trivial SCC (a self-loop on a
    # singleton SCC included).
    leftover = frozenset((i, j) for i, j in arcs if label[i] != label[j] or len(classes[label[i]]) < 2)
    return PrunedGraph(residual=residual, components=non_trivial, leftover_arcs=leftover)
