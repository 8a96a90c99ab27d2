"""Exhaustive enumeration and classification of optimal-length linear codes.

A code's codewords are distinct nonzero vectors of F_q^n (taken up to nonzero
scaling when q > 2).  Whether a code is decodable depends only on its span:
each receiver must find every wanted unit vector, less some combination of
its known unit vectors, inside it.  So the census walks the subspaces of
F_q^n (in reduced row echelon form), tests each for decodability once, and
then lists the N-subsets of candidate codewords that span a decodable one.
When N is minimal these are exactly the optimal-length linear codes.
Classification, within the same bound on message counts, reads every code's
transmission counts off a weight table over F_q^n: the fewest columns that
combine to each vector of the span.  numpy builds the tables a block of
same-length codes at a time, from the subset sums of their columns.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .codegen import LinearCode, check_code_space, codeword_label
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


# Entries per row of a block's arrays, times its codes, stay under this: about
# 1,000 codes of the six-user cycle (q^n = 64) and under a megabyte of arrays,
# which is where larger blocks stopped paying for numpy's per-call overhead.
BLOCK_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=None)
def _plus_array(n: int, q: int) -> np.ndarray:
    """_numbering's plus table as a flat array: x + y has the number at x * q^n + y."""
    plus = np.array(_numbering(n, q)[0], dtype=np.intp).ravel()
    plus.flags.writeable = False  # shared by every caller
    return plus


def _weight_tables(numbers: np.ndarray, n: int, q: int) -> np.ndarray:
    """W[k, p]: the fewest columns of code k that combine, with nonzero
    coefficients, to vector p of F_q^n; n + 1 for p outside their span.

    numbers is (K, N): code k's column vector numbers.  The first n columns
    list every subset sum by doubling (the sums so far, then those plus a x
    for each nonzero a, one column heavier), and each cell of the table keeps
    the least weight of the sums that land on it.  Columns past n would list
    more sums than there are vectors, so they take
    W[p] = min over a of W[p - a x] + [a != 0] instead.
    """
    size = q**n
    plus = _plus_array(n, q)
    codes, length = numbers.shape
    doubled = min(length, n)

    def multiples(x):  # a x for each nonzero a of F_q, ascending
        return [x] if q == 2 else [x, plus.take(x * size + x)]

    sums = np.zeros((q**doubled, codes), dtype=np.intp)  # one column per code
    weights = np.zeros(q**doubled, dtype=np.int8)  # the columns each sum combines
    listed = 1
    for x in numbers[:, :doubled].T:
        for a, ax in enumerate(multiples(x), start=1):
            sums[a * listed : (a + 1) * listed] = plus.take(sums[:listed] * size + ax)
            weights[a * listed : (a + 1) * listed] = weights[:listed] + 1
        listed *= q
    cells = sums + np.arange(0, codes * size, size)  # into the flat table
    table = np.full((codes, size), n + 1, dtype=np.int8)
    np.minimum.at(table.ravel(), cells.ravel(), np.repeat(weights, codes))  # ravel: a view
    for x in numbers[:, doubled:].T:
        # in place: over F_3 the 2x step also sees W[p + 3x] + 2 = W[p] + 2,
        # which never wins
        for ax in multiples(x):
            shifted = plus.reshape(size, size)[ax]  # row k: p + a x_k for every p
            np.minimum(table, np.take_along_axis(table, shifted, axis=1) + 1, out=table)
    return table


def classify_codes(problem: IndexCodingProblem, codes: Iterable[LinearCode]) -> CodeClassification:
    """Group codes by their worst per-demand transmission count.

    Indexes are 1-based and follow the order codes are supplied in (for
    enumerate_optimal_codes, the deterministic lexicographic order).  Runs of
    codes of one length are classified a block at a time: one weight table
    per code (see _weight_tables), and a demand's count is the table's least
    entry over its coset e_d - span(e_k : k known), which is decoding_plan's
    count by definition.  Problems past the census bound are refused as
    enumerate_optimal_codes refuses them; a run over another field or
    message count raises decoding_plan's ValidationError when it is reached,
    and an undecodable code raises decoding_plan's InfeasibleError before any
    later code is classified.
    """
    _check_enumeration_bounds(problem)
    n, q = problem.n, problem.q
    plus, _, number = _numbering(n, q)
    cosets = _demand_cosets(problem, plus)
    keys = [key for key, _ in cosets]
    targets = np.array([t for _, members in cosets for t in members], dtype=np.intp)
    starts = np.cumsum([0] + [len(members) for _, members in cosets[:-1]])
    block_size = max(1, BLOCK_ENTRIES // max(q**n, len(targets)))

    rows: list[CodeClassRow] = []
    for (code_q, code_n, length), run in itertools.groupby(codes, lambda c: (c.q, c.n, len(c.columns))):
        check_code_space(code_q, code_n, problem)
        while block := list(itertools.islice(run, block_size)):
            columns = itertools.chain.from_iterable(code.columns for code in block)
            numbers = np.fromiter(map(number.__getitem__, columns), dtype=np.intp)
            table = _weight_tables(numbers.reshape(len(block), length), n, q)
            counts = np.minimum.reduceat(table[:, targets], starts, axis=1) if keys else table[:, :0]
            worst = counts.max(axis=1, initial=0)
            undecodable = np.flatnonzero(worst > n)  # a coset outside the code's span
            if len(undecodable):
                receiver, demand = keys[counts[undecodable[0]].tolist().index(n + 1)]
                raise InfeasibleError(f"receiver {receiver} cannot recover message {demand} from this code")
            by_demand = map(dict, map(zip, itertools.repeat(keys), counts.tolist()))
            rows += map(CodeClassRow, itertools.count(len(rows) + 1), block, by_demand, worst.tolist())
    histogram = collections.Counter(row.max_count for row in rows)
    return CodeClassification(rows=rows, histogram=dict(sorted(histogram.items())))


def classification_to_csv(result: CodeClassification) -> str:
    """Per-code table: index, space-joined codeword labels, max count."""
    lines = ["index,codewords,max_count"]
    label = functools.lru_cache(maxsize=None)(codeword_label)  # codewords recur from row to row
    for row in result.rows:
        labels = " ".join(label(c, row.code.q) for c in row.code.columns)
        lines.append(f"{row.index},{labels},{row.max_count}")
    return "\n".join(lines) + "\n"
