"""Frozen expected values and independent oracles shared by the test suite.

Everything here was derived independently of the implementation: transmission
counts follow from solving each fixed code's linear system by hand (for a code
whose tree codewords are linearly independent the minimal combination for each
demand is unique, so the counts are forced), and the code censuses were
cross-checked against small hand enumerations.  Keys are (receiver, demand).
"""

from math import comb

from uniprior.graphcore import IndexCodingProblem


# ---------------------------------------------------------------------------
# Nine-receiver skip problem (fixtures/problems/nine_user_skip.yaml):
# receiver i knows x_i and wants x_{i+2 mod 9}; receivers 1 and 2 additionally
# want x_2 and x_3 respectively.  Demand arcs of its flow graph:
NINE_USER_ARCS = frozenset(
    [(3, 1), (2, 1), (4, 2), (3, 2), (5, 3), (6, 4), (7, 5), (8, 6), (9, 7), (1, 8), (2, 9)]
)

# Per-demand transmission counts for the four fixed comparison codes
# (fixtures/codes/nine_user_*.yaml).
NINE_USER_STAR_COUNTS = {
    (1, 2): 1, (1, 3): 1, (2, 3): 2, (2, 4): 2, (3, 5): 2, (4, 6): 2,
    (5, 7): 2, (6, 8): 2, (7, 9): 2, (8, 1): 1, (9, 2): 2,
}
NINE_USER_TREE_B_COUNTS = {
    (1, 2): 2, (1, 3): 1, (2, 3): 1, (2, 4): 4, (3, 5): 4, (4, 6): 1,
    (5, 7): 1, (6, 8): 2, (7, 9): 1, (8, 1): 1, (9, 2): 1,
}
NINE_USER_TREE_C_COUNTS = {
    (1, 2): 1, (1, 3): 1, (2, 3): 2, (2, 4): 1, (3, 5): 1, (4, 6): 1,
    (5, 7): 1, (6, 8): 1, (7, 9): 1, (8, 1): 4, (9, 2): 5,
}
NINE_USER_PATH_COUNTS = {
    (1, 2): 4, (1, 3): 5, (2, 3): 1, (2, 4): 1, (3, 5): 1, (4, 6): 1,
    (5, 7): 1, (6, 8): 1, (7, 9): 1, (8, 1): 1, (9, 2): 4,
}

# For the star code the minimal decoding combination of every demand is unique
# (the codewords are linearly independent), so the full expressions are fixed.
NINE_USER_STAR_EXPRESSIONS = [
    "x2 = x1 + t1",
    "x3 = x1 + t2",
    "x3 = x2 + t1 + t2",
    "x4 = x2 + t1 + t3",
    "x5 = x3 + t2 + t4",
    "x6 = x4 + t3 + t5",
    "x7 = x5 + t4 + t6",
    "x8 = x6 + t5 + t7",
    "x9 = x7 + t6 + t8",
    "x1 = x8 + t7",
    "x2 = x9 + t1 + t8",
]

# ---------------------------------------------------------------------------
# Three-receiver problem (fixtures/problems/three_user.yaml):
# W_1 = {2, 3}, W_2 = {1}, W_3 = {1, 2}.  Exactly three optimal codes exist,
# here written as sets of codeword supports.
THREE_USER_CODES = [
    frozenset({frozenset({1, 2}), frozenset({1, 3})}),
    frozenset({frozenset({1, 2}), frozenset({2, 3})}),
    frozenset({frozenset({1, 3}), frozenset({2, 3})}),
]
# counts keyed by the code's support set
THREE_USER_COUNTS = {
    THREE_USER_CODES[0]: {(1, 2): 1, (1, 3): 1, (2, 1): 1, (3, 1): 1, (3, 2): 2},
    THREE_USER_CODES[1]: {(1, 2): 1, (1, 3): 2, (2, 1): 1, (3, 1): 2, (3, 2): 1},
    THREE_USER_CODES[2]: {(1, 2): 2, (1, 3): 1, (2, 1): 2, (3, 1): 1, (3, 2): 1},
}

# ---------------------------------------------------------------------------
# Four-receiver cycle (fixtures/problems/four_user_cycle.yaml): receiver i
# wants x_{i+1 mod 4}.  All 28 optimal codes with per-receiver counts in
# receiver order (R_1 wants x_2, ..., R_4 wants x_1); codewords as supports.
def _c(*supports):
    return frozenset(frozenset(s) for s in supports)


FOUR_USER_CYCLE_TABLE = {
    _c({1, 2}, {2, 3}, {3, 4}): (1, 1, 1, 3),
    _c({1, 2}, {2, 3}, {2, 4}): (1, 1, 2, 2),
    _c({1, 2}, {2, 3}, {1, 2, 3, 4}): (1, 1, 2, 2),
    _c({1, 2}, {2, 3}, {1, 4}): (1, 1, 3, 1),
    _c({1, 2}, {3, 4}, {1, 3}): (1, 2, 1, 2),
    _c({1, 2}, {3, 4}, {2, 4}): (1, 2, 1, 2),
    _c({1, 2}, {3, 4}, {1, 4}): (1, 3, 1, 1),
    _c({1, 2}, {1, 3}, {2, 4}): (1, 2, 3, 2),
    _c({1, 2}, {1, 3}, {1, 2, 3, 4}): (1, 2, 2, 3),
    _c({1, 2}, {1, 3}, {1, 4}): (1, 2, 2, 1),
    _c({1, 2}, {2, 4}, {1, 2, 3, 4}): (1, 3, 2, 2),
    _c({1, 2}, {1, 2, 3, 4}, {1, 4}): (1, 2, 2, 1),
    _c({2, 3}, {3, 4}, {1, 3}): (2, 1, 1, 2),
    _c({2, 3}, {3, 4}, {1, 2, 3, 4}): (2, 1, 1, 2),
    _c({2, 3}, {3, 4}, {1, 4}): (3, 1, 1, 1),
    _c({2, 3}, {1, 3}, {2, 4}): (2, 1, 2, 3),
    _c({2, 3}, {1, 3}, {1, 2, 3, 4}): (2, 1, 3, 2),
    _c({2, 3}, {1, 3}, {1, 4}): (2, 1, 2, 1),
    _c({2, 3}, {2, 4}, {1, 2, 3, 4}): (3, 1, 2, 2),
    _c({2, 3}, {2, 4}, {1, 4}): (2, 1, 2, 1),
    _c({3, 4}, {1, 3}, {2, 4}): (3, 2, 1, 2),
    _c({3, 4}, {1, 3}, {1, 2, 3, 4}): (2, 3, 1, 2),
    _c({1, 3}, {2, 4}, {1, 4}): (2, 3, 2, 1),
    _c({1, 3}, {1, 2, 3, 4}, {1, 4}): (3, 2, 2, 1),
    _c({2, 4}, {1, 2, 3, 4}, {1, 4}): (2, 2, 3, 1),
    _c({3, 4}, {2, 4}, {1, 2, 3, 4}): (2, 2, 1, 3),
    _c({3, 4}, {2, 4}, {1, 4}): (2, 2, 1, 1),
    _c({3, 4}, {1, 2, 3, 4}, {1, 4}): (2, 2, 1, 1),
}

# ---------------------------------------------------------------------------
# Four-receiver strongly connected problem (four_user_strong.yaml):
# W_1 = {2, 4}, W_2 = {3}, W_3 = {1}, W_4 = {2, 3}.  Any best tree is a star
# (every unordered vertex pair carries a demand), giving this count multiset.
FOUR_USER_STRONG_COUNT_MULTISET = (1, 1, 1, 2, 2, 2)
FOUR_USER_STRONG_ARCS = frozenset([(2, 1), (4, 1), (3, 2), (1, 3), (2, 4), (3, 4)])

# Five-receiver two-step problem (five_user_two_step.yaml): W_i = {i+1, i+2}.
FIVE_USER_TWO_STEP_COUNT_MULTISET = (1, 1, 1, 1, 2, 2, 2, 2, 2, 2)


# ---------------------------------------------------------------------------
# Independent formulas and builders used by several test modules.


def vec_add(a, b, q):
    """Coordinate-wise sum of two F_q vectors."""
    return tuple((x + y) % q for x, y in zip(a, b, strict=True))


def vec_scale(a, s, q):
    """The F_q vector a times the scalar s."""
    return tuple((x * s) % q for x in a)


def binomial_oracle(p, c):
    """Direct odd-term binomial sum: P(an odd number of c symbols err), each
    symbol wrong independently with probability p."""
    return sum(comb(c, i) * p**i * (1.0 - p) ** (c - i) for i in range(1, c + 1, 2))


def error_increment(p, c):
    """Increase in message error when the count rises from c to c + 1:
    p * (1 - 2p)^c, positive for 0 < p < 0.5."""
    return (1.0 - 2.0 * p) ** c * p


def problem_from_graph(graph, q=2):
    """Inverse of build_flow_graph: receiver v knows x_v and wants x_i for
    each arc (i, v)."""
    want_sets = tuple(
        frozenset(i for (i, j) in graph.arcs if j == v) for v in range(1, graph.vertex_count + 1)
    )
    known_sets = tuple(frozenset({v}) for v in range(1, graph.vertex_count + 1))
    return IndexCodingProblem(q=q, n=graph.vertex_count, want_sets=want_sets, known_sets=known_sets)
