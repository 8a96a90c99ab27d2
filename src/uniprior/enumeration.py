"""Exhaustive enumeration and classification of optimal-length linear codes.

A code's codewords are distinct nonzero vectors of F_q^n (taken up to nonzero
scaling when q > 2).  Whether a code is decodable depends only on its span:
each receiver must find every wanted unit vector, less some combination of
its known unit vectors, inside it.  So the census walks the subspaces of
F_q^n (in reduced row echelon form), tests each for decodability once, and
then lists the N-subsets of candidate codewords that span a decodable one.
When N is minimal these are exactly the optimal-length linear codes.
Classification reads each code's transmission counts off a weight table over
F_q^n: the fewest columns that combine to each vector of the span.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Iterable, Iterator, NamedTuple

from .codegen import LinearCode, codeword_label, decoding_plan, transmission_counts
from .errors import InfeasibleError, ValidationError
from .graphcore import (
    IndexCodingProblem,
    PrunedGraph,
    SquareReduction,
    build_flow_graph,
    prune,
    reduce_to_square,
)

# Past these message counts the census is refused rather than attempted: the
# six-user cycle over F_2 already has 83,328 optimal codes.
ENUMERATION_MESSAGE_LIMIT = {2: 6, 3: 4}


def _check_enumeration_bounds(problem: IndexCodingProblem) -> None:
    limit = ENUMERATION_MESSAGE_LIMIT.get(problem.q)
    if limit is None:
        raise ValidationError(f"unsupported field order q={problem.q}")
    if problem.n > limit:
        raise InfeasibleError(
            f"exhaustive enumeration over F_{problem.q} is limited to "
            f"n <= {limit} messages, got n = {problem.n}"
        )


def candidate_vectors(n: int, q: int) -> list[tuple[int, ...]]:
    """All distinct nonzero candidate codewords, lexicographically ordered.

    For q > 2 a codeword and its nonzero multiples carry the same information,
    so only the representative whose first nonzero coordinate is 1 is kept.
    """
    vectors = itertools.product(range(q), repeat=n)
    return [v for v in vectors if any(v) and next(d for d in v if d) == 1]


# Vectors of F_q^n are numbered in lexicographic order: v has the number
# sum(v_i * q^(n - i)), so e_i has q^(n - i) and candidate order is number
# order.  A set of vectors is an int with bit x set for each member x.


@functools.lru_cache(maxsize=None)
def _numbering(n: int, q: int) -> tuple[tuple[tuple[int, ...], ...], dict, dict]:
    """(plus, candidates, number): plus[x][y] is the number of vector x +
    vector y, candidates maps the number of each candidate codeword to the
    codeword, and number maps every vector to its number."""
    vectors = list(itertools.product(range(q), repeat=n))
    number = {v: x for x, v in enumerate(vectors)}
    sums = ([number[tuple((a + b) % q for a, b in zip(u, v))] for v in vectors] for u in vectors)
    plus = tuple(map(tuple, sums))
    return plus, {number[v]: v for v in candidate_vectors(n, q)}, number


def _span(points: list[int], generators: Iterable[int], plus, q: int) -> list[int]:
    """points + span(generators), each generator outside the span of those before."""
    for g in generators:
        multiples = [g] if q == 2 else [g, plus[g][g]]
        points = [*points, *(plus[p][m] for m in multiples for p in points)]
    return points


@functools.lru_cache(maxsize=None)
def _subspaces(n: int, q: int, dim: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every dim-dimensional subspace of F_q^n: (its vector set, the numbers of
    the candidate codewords in it, ascending)."""
    plus, candidates, _ = _numbering(n, q)
    out = []
    for pivots in itertools.combinations(range(n), dim):
        # reduced row echelon form: row r has a 1 at pivots[r], 0 at the other
        # pivots and left of its own, and free entries elsewhere to its right
        free = [(r, c) for r, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for entries in itertools.product(range(q), repeat=len(free)):
            rows = [q ** (n - 1 - p) for p in pivots]
            for (r, c), x in zip(free, entries):
                rows[r] += x * q ** (n - 1 - c)
            points = _span([0], rows, plus, q)
            members = tuple(sorted(x for x in points if x in candidates))
            out.append((sum(1 << x for x in points), members))
    return tuple(out)


def _demand_cosets(problem: IndexCodingProblem, plus) -> list[tuple[tuple[int, int], list[int]]]:
    """Per (receiver, demand), in problem.demands() order, the vectors of
    e_d - span(e_k : k known to the receiver): the targets a decoder may hit."""
    n, q = problem.n, problem.q
    return [
        ((r, d), _span([q ** (n - d)], [q ** (n - k) for k in problem.known_sets[r - 1]], plus, q))
        for r, d in problem.demands()
    ]


def _spanning_subsets(members: tuple[int, ...], dim: int, length: int, plus, q: int):
    """length-subsets of members that span their dim-dimensional space, in lex
    order: up to length - dim picks may lie in the span of the earlier ones."""

    def extend(start, chosen, points, span, spare):
        need = length - len(chosen)
        for i in range(start, len(members) - need + 1):
            x = members[i]
            inside = span >> x & 1
            if inside and not spare:
                continue
            if need == 1:
                yield (*chosen, x)
            elif inside:
                yield from extend(i + 1, (*chosen, x), points, span, spare - 1)
            else:
                grown = _span(points, [x], plus, q)
                yield from extend(i + 1, (*chosen, x), grown, sum(1 << y for y in grown), spare)

    return extend(0, (), [0], 1, length - dim) if length else iter([()])


def enumerate_optimal_codes(problem: IndexCodingProblem, length: int) -> Iterator[LinearCode]:
    """Yield every decodable length-subset of candidate codewords, in lex order.

    Each subset spans one subspace, so the decodable subsets are the spanning
    subsets of the decodable subspaces of dimension at most `length`; the
    per-subspace lists are merged back into candidate order.
    """
    _check_enumeration_bounds(problem)
    if length < 0:
        raise ValidationError(f"code length must be non-negative, got {length}")
    n, q = problem.n, problem.q
    plus, candidates, _ = _numbering(n, q)
    # a span is decodable iff it meets every demand coset; smallest first, so
    # failures come early
    cosets = {sum(1 << x for x in targets) for _, targets in _demand_cosets(problem, plus)}
    demand_sets = sorted(cosets, key=int.bit_count)
    streams = [
        _spanning_subsets(members, dim, length, plus, q)
        for dim in range(min(length, n) + 1)
        if (q**dim - 1) // (q - 1) >= length  # enough candidate codewords inside
        for span, members in _subspaces(n, q, dim)
        if all(span & wanted for wanted in demand_sets)
    ]
    for combo in heapq.merge(*streams):
        columns = tuple(candidates[x] for x in combo)
        yield LinearCode(q=q, n=n, columns=columns)


def length_from_pruning(reduction: SquareReduction, pruned: PrunedGraph) -> int:
    """Closed-form optimal length of a uniprior problem.

    Over the pruned flow graph, each non-trivial component of size k needs
    k - 1 coded symbols, and each leftover arc and each wanted message known
    to nobody needs one uncoded symbol.
    """
    return (
        sum(len(c) - 1 for c in pruned.components)
        + len(pruned.leftover_arcs)
        + len(reduction.direct_messages)
    )


def optimal_length(problem: IndexCodingProblem) -> int:
    """Shortest achievable code length.

    Uniprior problems use the closed form (length_from_pruning).  Other
    problems fall back to brute force: the smallest N for which the
    enumeration is non-empty.
    """
    if problem.is_uniprior:
        reduction = reduce_to_square(problem)
        return length_from_pruning(reduction, prune(build_flow_graph(reduction.problem)))
    return brute_force_optimal_length(problem)


def brute_force_optimal_length(problem: IndexCodingProblem) -> int:
    """Smallest N with at least one decodable code (works for any problem)."""
    for length in range(problem.n + 1):
        if next(enumerate_optimal_codes(problem, length), None) is not None:
            return length
    raise InfeasibleError("no decodable code found at any length up to n")


# NamedTuples rather than dataclasses keep this module cheap to import: building
# a dataclass compiles generated methods, and two of them took most of it.
class CodeClassRow(NamedTuple):
    """One enumerated code with its per-demand transmission counts."""

    index: int
    code: LinearCode
    counts: dict[tuple[int, int], int]
    max_count: int


class CodeClassification(NamedTuple):
    rows: list[CodeClassRow]
    histogram: dict[int, int]

    @property
    def total(self) -> int:
        return len(self.rows)


def _weights(numbers: list[int], plus, q: int, blank: list[int]) -> list[int]:
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


def classify_codes(problem: IndexCodingProblem, codes: Iterable[LinearCode]) -> CodeClassification:
    """Group codes by their worst per-demand transmission count.

    Indexes are 1-based and follow the order codes are supplied in (for
    enumerate_optimal_codes, the deterministic lexicographic order).  A
    demand's count is the least weight (see _weights) over its coset
    e_d - span(e_k : k known), which is decoding_plan's count by definition;
    codes on more messages than the census allows get a decoding_plan.
    """
    n, q = problem.n, problem.q
    tabled = n <= ENUMERATION_MESSAGE_LIMIT.get(q, 0)
    if tabled:
        plus, _, number = _numbering(n, q)
        cosets = _demand_cosets(problem, plus)
        blank = [n + 1] * q**n  # no count exceeds n
    rows: list[CodeClassRow] = []
    histogram: dict[int, int] = {}
    for index, code in enumerate(codes, start=1):
        if tabled and (code.q, code.n) == (q, n):
            table = _weights([number[c] for c in code.columns], plus, q, blank)
            counts = {key: min([table[t] for t in targets]) for key, targets in cosets}
        else:
            counts = transmission_counts(decoding_plan(code, problem))
        max_count = max(counts.values(), default=0)
        if max_count > n:  # a coset outside the table's span; decoding_plan raises itself
            receiver, demand = next(key for key, count in counts.items() if count > n)
            raise InfeasibleError(
                f"receiver {receiver} cannot recover message {demand} from this code"
            )
        rows.append(CodeClassRow(index=index, code=code, counts=counts, max_count=max_count))
        histogram[max_count] = histogram.get(max_count, 0) + 1
    return CodeClassification(rows=rows, histogram=dict(sorted(histogram.items())))


def classification_to_csv(result: CodeClassification) -> str:
    """Per-code table: index, space-joined codeword labels, max count."""
    lines = ["index,codewords,max_count"]
    label = functools.lru_cache(maxsize=None)(codeword_label)  # codewords recur from row to row
    for row in result.rows:
        labels = " ".join(label(c, row.code.q) for c in row.code.columns)
        lines.append(f"{row.index},{labels},{row.max_count}")
    return "\n".join(lines) + "\n"
