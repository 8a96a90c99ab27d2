"""Code construction: spanning-tree search, codeword assembly, decoding plans.

The designed code sends one coded symbol per spanning-tree edge of each
non-trivial component (the difference of the two endpoint messages), one
uncoded symbol per leftover arc (the tail's message), and one uncoded symbol
per message known to nobody.  Receivers decode a wanted message by adding a
multiple of their known message to a subset of received symbols; the number of
received symbols used is that demand's transmission count, which the tree
search minimizes in the worst case over demands.  decoding_plan finds each
demand's least count for any code, from one row reduction of its columns.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InfeasibleError, ValidationError
from .fields import SUPPORTED_FIELD_ORDERS, ColumnBasis, unit_vector
from .graphcore import (
    IndexCodingProblem,
    InformationFlowGraph,
    PrunedGraph,
    SquareReduction,
    _as_int,
    _require_keys,
    build_flow_graph,
    load_yaml,
    prune,
    reduce_to_square,
)

# Components with at most this many vertices whose demand support has a cycle
# are searched exhaustively over all labeled spanning trees (k^(k-2) of them);
# larger ones use a star.
EXHAUSTIVE_TREE_LIMIT = 8
# A decoding plan walks every solution of a demand's linear system: q^d of
# them for a code whose columns have a kernel of dimension d (length minus
# rank).  Refuse when q^d exceeds 2^PLAN_SEARCH_LIMIT (d above 20 over F_2,
# above 12 over F_3).  Codes with independent columns (d = 0) are planned at
# any length.
PLAN_SEARCH_LIMIT = 20


@lru_cache(maxsize=None)
def _pair_bits(k: int) -> dict[tuple[int, int], int]:
    """The mask bit of each vertex pair (a, b), a < b, in ascending order.

    The pair of rank r gets bit P - 1 - r, where P = k(k-1)/2.  Between two
    trees, the larger edge mask is then the lexicographically smaller sorted
    edge list.
    """
    pairs = list(itertools.combinations(range(k), 2))
    return {pair: len(pairs) - 1 - rank for rank, pair in enumerate(pairs)}


@lru_cache(maxsize=None)
def _tree_search_tables(k: int):
    """All labeled trees on vertices 0..k-1, as two int32 pair masks each.

    Returns (edges, squares): edges[t] has the bit (see _pair_bits) of every
    edge of tree t; squares[t] has the bit of every pair at tree distance at
    most 2: every edge, and the two outer ends of every two edges that meet.
    Trees are decoded from all k^(k-2) Pruefer sequences on vertex bit sets,
    vectorized across trees: at step i the smallest leaf is the lowest vertex
    still alive that no later position names.
    """
    if k == 2:
        seq_bits = np.zeros((0, 1), dtype=np.int16)
    else:
        seq_bits = 1 << np.indices((k,) * (k - 2), dtype=np.int16).reshape(k - 2, -1)
    # later[i] is the OR of the bits of positions i onward
    later = list(itertools.accumulate(seq_bits[::-1], np.bitwise_or))[::-1]
    alive = np.full(seq_bits.shape[1], (1 << k) - 1, dtype=np.int16)
    edge_sets = []  # each edge as the bit set of its two vertices
    for bit, rest in zip(seq_bits, later):
        free = alive & ~rest
        leaf = free & -free  # the lowest bit of free
        edge_sets.append(leaf | bit)
        alive ^= leaf
    edge_sets.append(alive)

    # pair_of[s] is the bit of the pair s when s is a set of two vertices, else 0
    pair_of = np.zeros(1 << k, dtype=np.int32)
    for (a, b), bit in _pair_bits(k).items():
        pair_of[1 << a | 1 << b] = 1 << bit
    edges = np.zeros(seq_bits.shape[1], dtype=np.int32)
    squares = np.zeros_like(edges)
    for i, edge in enumerate(edge_sets):
        edges |= pair_of.take(edge)
        for other in edge_sets[:i]:
            squares |= pair_of.take(edge ^ other)
    squares |= edges
    return edges, squares


def _support_tree(k: int, pairs) -> list[tuple[int, int]] | None:
    """The lexicographically first spanning tree on 0..k-1 containing every
    pair, or None when the pairs contain a cycle.

    Kruskal's greedy with the pairs forced first and then every pair in
    ascending (a, b) order; on a graphic matroid this gives, position by
    position, the smallest sorted edge list among the trees containing them.
    """
    if len(pairs) >= k:  # a forest on k vertices has at most k - 1 edges
        return None
    parent = list(range(k))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def join(a, b):
        a, b = root(a), root(b)
        parent[a] = b
        return a != b

    tree = []
    for a, b in sorted(pairs):
        if not join(a, b):
            return None
        tree.append((a, b))
    for a, b in itertools.combinations(range(k), 2):
        if len(tree) == k - 1:
            break
        if join(a, b):
            tree.append((a, b))
    return sorted(tree)


def min_max_spanning_tree(
    component_vertices, demand_arcs
) -> list[tuple[int, int]]:
    """Spanning tree minimizing the worst tree distance over demand arcs.

    Ties are broken by smallest total distance, then by the lexicographically
    smallest sorted edge list.  A star puts every pair within distance 2, so
    the best worst distance is at most 2, and it is at most 1 exactly when
    the undirected demand support S is a forest: then the winner is the first
    tree containing S, at any size.  Otherwise a tree T is feasible iff every
    pair of S lies in T's square, and its total is 2 * W - w(T & S), with a
    pair's weight w its number of demand arcs; components of at most
    EXHAUSTIVE_TREE_LIMIT vertices take the best feasible tree from the
    precomputed masks, larger ones fall back to the star whose center touches
    the most demand arcs (smallest vertex on ties).  Returns edges as (u, v)
    pairs with u < v, sorted.
    """
    verts = sorted(set(component_vertices))
    if not verts:
        raise ValidationError("cannot build a spanning tree of an empty vertex set")
    k = len(verts)
    if k == 1:
        return []
    index_of = {v: i for i, v in enumerate(verts)}
    local = []
    for a, b in demand_arcs:
        if a not in index_of or b not in index_of:
            raise ValidationError(f"demand arc ({a}, {b}) leaves the component")
        if a == b:
            raise ValidationError(f"demand arc ({a}, {a}) is a self-loop")
        i, j = index_of[a], index_of[b]
        local.append((i, j) if i < j else (j, i))

    weight = Counter(local)
    tree = _support_tree(k, weight)
    if tree is not None:
        return [(verts[a], verts[b]) for a, b in tree]

    if k <= EXHAUSTIVE_TREE_LIMIT:
        edges, squares = _tree_search_tables(k)
        bits = _pair_bits(k)
        need = sum(1 << bits[pair] for pair in weight)
        feasible = edges[(squares & need) == need]
        # demand weight on each feasible tree's edges
        on_tree = (feasible[:, None] >> np.array([bits[pair] for pair in weight])) & 1
        gain = on_tree @ np.array(list(weight.values()), dtype=np.int64)
        mask = int(feasible[np.argmax((gain << 32) | feasible)])
        return [(verts[a], verts[b]) for (a, b), bit in bits.items() if mask >> bit & 1]

    incidence = {v: 0 for v in verts}
    for a, b in demand_arcs:
        incidence[a] += 1
        incidence[b] += 1
    center = min(verts, key=lambda v: (-incidence[v], v))
    return sorted((min(center, v), max(center, v)) for v in verts if v != center)


@dataclass(frozen=True)
class LinearCode:
    """A linear broadcast code: each column is one transmitted combination."""

    q: int
    n: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.q not in SUPPORTED_FIELD_ORDERS:
            raise ValidationError(f"unsupported field order q={self.q}")
        if self.n < 1:
            raise ValidationError(f"message count must be positive, got {self.n}")
        field = set(range(self.q))
        for col in self.columns:
            if len(col) != self.n:
                raise ValidationError(
                    f"codeword length {len(col)} does not match message count {self.n}"
                )
            if not field.issuperset(col):
                raise ValidationError(f"codeword entries must lie in 0..{self.q - 1}: {col}")
            if not any(col):
                raise ValidationError("zero codeword column is not allowed")

    @property
    def length(self) -> int:
        return len(self.columns)

    def matrix(self) -> np.ndarray:
        """n x N generator matrix; transmitting x sends x @ matrix mod q."""
        if not self.columns:
            return np.zeros((self.n, 0), dtype=np.int64)
        return np.array(self.columns, dtype=np.int64).T

    def code_hash(self) -> str:
        payload = f"q={self.q};n={self.n};columns={[list(c) for c in self.columns]}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _check_spanning(component, edges) -> None:
    members = sorted(component)
    if len(edges) != len(members) - 1:
        raise ValidationError(
            f"tree must have {len(members) - 1} edges for {len(members)} vertices, got {len(edges)}"
        )
    adj = {v: [] for v in members}
    for a, b in edges:
        if a not in adj or b not in adj:
            raise ValidationError(f"tree edge ({a}, {b}) leaves the component")
        adj[a].append(b)
        adj[b].append(a)
    seen = {members[0]}
    stack = [members[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(members):
        raise ValidationError("tree edges do not span the component")


def build_index_code(
    pruned: PrunedGraph,
    trees,
    direct_messages=(),
    *,
    q: int = 2,
    message_of_vertex: dict[int, int] | None = None,
    n: int | None = None,
) -> LinearCode:
    """Assemble the code: tree-edge differences, then uncoded singletons.

    Tree edge {i, j} with i < j contributes the codeword e_i - e_j; a leftover
    arc contributes its tail's unit vector; each direct message (wanted, but
    known to nobody) contributes its own unit vector.  Vertices are translated
    through message_of_vertex when the problem was relabeled to square form.
    """
    v_count = pruned.residual.vertex_count
    if message_of_vertex is None:
        message_of_vertex = {v: v for v in range(1, v_count + 1)}
    trees = tuple(tuple(tuple(sorted(e)) for e in t) for t in trees)
    if len(trees) != len(pruned.components):
        raise ValidationError(
            f"need one spanning tree per component: {len(pruned.components)} components, "
            f"{len(trees)} trees"
        )
    direct = sorted(direct_messages)
    if n is None:
        mentioned = list(message_of_vertex.values()) + direct
        n = max(mentioned) if mentioned else v_count

    columns: list[tuple[int, ...]] = []
    for comp, tree in zip(pruned.components, trees):
        _check_spanning(comp, tree)
        for a, b in sorted(tree):
            col = [0] * n
            col[message_of_vertex[a] - 1] = 1
            col[message_of_vertex[b] - 1] = q - 1
            columns.append(tuple(col))
    for a, b in sorted(pruned.leftover_arcs):
        columns.append(unit_vector(n, message_of_vertex[a]))
    for msg in direct:
        columns.append(unit_vector(n, msg))
    return LinearCode(q=q, n=n, columns=tuple(columns))


@dataclass
class CodeDesign:
    """Full output of the tree-based design pipeline for one problem."""

    reduction: SquareReduction
    # Read by no caller, but dropping it moves design_dense's one full garbage
    # collection per block into another operation (op_p50_ms ×1.24).
    graph: InformationFlowGraph
    pruned: PrunedGraph
    trees: tuple[tuple[tuple[int, int], ...], ...]
    code: LinearCode


def design_min_max_code(problem: IndexCodingProblem) -> CodeDesign:
    """Run the whole pipeline: square reduction, pruning, tree search, code."""
    if not problem.is_uniprior:
        raise ValidationError("code design requires a uniprior problem")
    reduction = reduce_to_square(problem)
    graph = build_flow_graph(reduction.problem)
    pruned = prune(graph)
    trees = tuple(
        tuple(min_max_spanning_tree(comp, sorted(pruned.component_arcs(idx))))
        for idx, comp in enumerate(pruned.components)
    )
    code = build_index_code(
        pruned,
        trees,
        reduction.direct_messages,
        q=problem.q,
        message_of_vertex=reduction.message_of_vertex,
        n=problem.n,
    )
    return CodeDesign(reduction, graph, pruned, trees, code)


@dataclass(frozen=True)
class DemandPlan:
    """How one receiver recovers one wanted message.

    known_terms are (message, coeff) pairs over the receiver's known messages;
    code_terms are (column, coeff) pairs over received symbols, 1-based.  The
    transmission count for the demand is len(code_terms).
    """

    receiver: int
    demand: int
    known_terms: tuple[tuple[int, int], ...]
    code_terms: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.code_terms)

    def expression(self) -> str:
        parts = [_format_term(coeff, f"x{msg}") for msg, coeff in self.known_terms]
        parts += [_format_term(coeff, f"t{col}") for col, coeff in self.code_terms]
        return f"x{self.demand} = " + " + ".join(parts)


def _format_term(coeff: int, name: str) -> str:
    return name if coeff == 1 else f"{coeff}*{name}"


def codeword_label(vector, q: int) -> str:
    """Human-readable form of a codeword, e.g. (1,1,0) -> 'x1+x2'."""
    parts = [_format_term(coeff, f"x{i}") for i, coeff in enumerate(vector, start=1) if coeff]
    return "+".join(parts) if parts else "0"


@dataclass(frozen=True)
class DecodingPlan:
    code: LinearCode
    entries: tuple[DemandPlan, ...]


def check_code_space(q: int, n: int, problem: IndexCodingProblem) -> None:
    """Refuse a code over F_q on n messages unless problem has that field and n."""
    if q != problem.q:
        raise ValidationError(f"code is over q={q} but problem is over q={problem.q}")
    if n != problem.n:
        raise ValidationError(f"code covers {n} messages but problem has {problem.n}")


def decoding_plan(code: LinearCode, problem: IndexCodingProblem) -> DecodingPlan:
    """Minimal-count decoding recipe for every (receiver, demand) pair.

    For each demand the plan uses the fewest received symbols whose
    combination with a multiple of the receiver's known messages yields the
    wanted one; ties go to the lexicographically earliest column subset and
    smallest coefficients.  One row reduction of the columns serves every
    demand, and one table of each receiver's known-message multiples, keyed
    by residue, serves all its demands: a demand solves only the multiples
    whose residue is its own.  Each multiple's solutions form one coset of
    the columns' kernel, of q^d members for kernel dimension d; every
    designed code and every optimal-length code has d = 0, so its plan is
    read off directly.  Codes are refused when q^d exceeds
    2^PLAN_SEARCH_LIMIT.
    """
    check_code_space(code.q, code.n, problem)
    basis = ColumnBasis.of(code.n, code.q, code.columns)
    if code.q ** len(basis.kernel) > 1 << PLAN_SEARCH_LIMIT:
        most = next(d for d in itertools.count() if code.q ** (d + 1) > 1 << PLAN_SEARCH_LIMIT)
        raise InfeasibleError(
            "decoding-plan search not attempted for codes with more than "
            f"{most} dependent columns (length minus rank) over F_{code.q}"
        )
    entries = []
    for receiver, (wants, known) in enumerate(zip(problem.want_sets, problem.known_sets), start=1):
        if not wants:
            continue
        multiples = basis.multiples(sorted(known))
        for demand in sorted(wants):
            found = basis.solve(demand, multiples)
            if found is None:
                raise InfeasibleError(f"receiver {receiver} cannot recover message {demand} from this code")
            entries.append(DemandPlan(receiver, demand, *found))
    return DecodingPlan(code=code, entries=tuple(entries))


def transmission_counts(plan: DecodingPlan) -> dict[tuple[int, int], int]:
    """(receiver, demand) -> number of received symbols that demand combines."""
    return {(e.receiver, e.demand): e.count for e in plan.entries}


def plan_to_csv(plan: DecodingPlan) -> str:
    lines = ["receiver,demand,count,expression"]
    for e in plan.entries:
        lines.append(f"{e.receiver},{e.demand},{e.count},{e.expression()}")
    return "\n".join(lines) + "\n"


def code_from_mapping(data) -> LinearCode:
    if not isinstance(data, dict):
        raise ValidationError("code document must be a mapping")
    _require_keys(data, {"q", "n", "columns"}, "code document")
    q = _as_int(data["q"], "q")
    n = _as_int(data["n"], "n")
    cols = data["columns"]
    if not isinstance(cols, list):
        raise ValidationError("columns must be a list of codewords")
    columns = []
    for col in cols:
        if not isinstance(col, list):
            raise ValidationError("each codeword must be a list of field elements")
        columns.append(tuple(_as_int(e, "codeword entry") for e in col))
    return LinearCode(q=q, n=n, columns=tuple(columns))


def parse_code_text(text: str) -> LinearCode:
    return code_from_mapping(load_yaml(text, "code"))


def parse_code(path: str | Path) -> LinearCode:
    return parse_code_text(Path(path).read_text())


def write_code(code: LinearCode, path: str | Path) -> None:
    lines = [f"q: {code.q}", f"n: {code.n}", "columns:" if code.columns else "columns: []"]
    for col in code.columns:
        lines.append(f"  - [{', '.join(str(e) for e in col)}]")
    Path(path).write_text("\n".join(lines) + "\n")
