"""Exhaustive enumeration and classification of optimal-length linear codes.

For small instances every unordered N-subset of distinct nonzero vectors of
F_q^n (vectors taken up to nonzero scaling when q > 2) is tested for
decodability: each receiver must be able to recover each wanted message from
the span of the codewords and its own known messages.  The codes surviving
that filter are exactly the optimal-length linear codes when N is minimal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .codegen import LinearCode, codeword_label, decoding_plan, transmission_counts
from .errors import InfeasibleError, ValidationError
from .fields import SpanBasis, unit_vector
from .graphcore import (
    IndexCodingProblem,
    PrunedGraph,
    SquareReduction,
    build_flow_graph,
    prune,
    reduce_to_square,
)

# Subset enumeration must stay at or below C(63, N); beyond these the search
# is refused rather than attempted.
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
    out = []
    for digits in itertools.product(range(q), repeat=n):
        if not any(digits):
            continue
        if next(d for d in digits if d) != 1:
            continue
        out.append(digits)
    return out


def _is_decodable(columns, problem: IndexCodingProblem) -> bool:
    n, q = problem.n, problem.q
    for r in range(1, problem.m + 1):
        wants = problem.want_sets[r - 1]
        if not wants:
            continue
        vectors = list(columns) + [unit_vector(n, k) for k in problem.known_sets[r - 1]]
        basis = SpanBasis(n, q, vectors)
        for d in wants:
            if not basis.contains(unit_vector(n, d)):
                return False
    return True


def enumerate_optimal_codes(problem: IndexCodingProblem, length: int) -> Iterator[LinearCode]:
    """Yield every decodable N-subset of candidate codewords, in lex order."""
    _check_enumeration_bounds(problem)
    if length < 0:
        raise ValidationError(f"code length must be non-negative, got {length}")
    candidates = candidate_vectors(problem.n, problem.q)
    for combo in itertools.combinations(candidates, length):
        if _is_decodable(combo, problem):
            yield LinearCode(
                q=problem.q,
                n=problem.n,
                columns=combo,
                origins=("freeform",) * length,
            )


def length_from_pruning(reduction: SquareReduction, pruned: PrunedGraph) -> int:
    """Closed-form optimal length of a uniprior problem.

    Over the pruned flow graph, each non-trivial component of size k needs
    k - 1 coded symbols, and each leftover arc and each message known to
    nobody needs one uncoded symbol.
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
    _check_enumeration_bounds(problem)
    for length in range(problem.n + 1):
        for _ in enumerate_optimal_codes(problem, length):
            return length
    raise InfeasibleError("no decodable code found at any length up to n")


@dataclass
class CodeClassRow:
    """One enumerated code with its per-demand transmission counts."""

    index: int
    code: LinearCode
    counts: dict[tuple[int, int], int]
    max_count: int


@dataclass
class CodeClassification:
    rows: list[CodeClassRow]
    histogram: dict[int, int]

    @property
    def total(self) -> int:
        return len(self.rows)


def classify_codes(problem: IndexCodingProblem, codes: Iterable[LinearCode]) -> CodeClassification:
    """Group codes by their worst per-demand transmission count.

    Indexes are 1-based and follow the order codes are supplied in (for
    enumerate_optimal_codes, the deterministic lexicographic order).
    """
    rows: list[CodeClassRow] = []
    histogram: dict[int, int] = {}
    for index, code in enumerate(codes, start=1):
        plan = decoding_plan(code, problem)
        counts = transmission_counts(plan)
        max_count = max(counts.values(), default=0)
        rows.append(CodeClassRow(index=index, code=code, counts=counts, max_count=max_count))
        histogram[max_count] = histogram.get(max_count, 0) + 1
    return CodeClassification(rows=rows, histogram=dict(sorted(histogram.items())))


def classification_to_csv(result: CodeClassification) -> str:
    """Per-code table: index, space-joined codeword labels, max count."""
    lines = ["index,codewords,max_count"]
    for row in result.rows:
        labels = " ".join(codeword_label(c, row.code.q) for c in row.code.columns)
        lines.append(f"{row.index},{labels},{row.max_count}")
    return "\n".join(lines) + "\n"
