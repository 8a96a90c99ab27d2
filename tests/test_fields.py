import itertools
import random

import pytest

from oracles import vec_add, vec_scale
from uniprior.fields import ColumnBasis, SpanBasis, pack_bits, unit_vector


def unpack_bits(mask, n):
    return tuple((mask >> i) & 1 for i in range(n))


def test_vector_arithmetic_mod2():
    assert vec_add((1, 0, 1), (1, 1, 0), 2) == (0, 1, 1)
    assert vec_scale((1, 0, 1), 1, 2) == (1, 0, 1)
    assert vec_scale((1, 0, 1), 0, 2) == (0, 0, 0)


def test_vector_arithmetic_mod3():
    assert vec_add((1, 2, 0), (2, 2, 1), 3) == (0, 1, 1)
    assert vec_scale((1, 2, 0), 2, 3) == (2, 1, 0)


def test_unit_vector_is_one_based():
    assert unit_vector(4, 1) == (1, 0, 0, 0)
    assert unit_vector(4, 4) == (0, 0, 0, 1)


def test_pack_unpack_roundtrip():
    for vec in [(0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, 0)]:
        assert unpack_bits(pack_bits(vec), 3) == vec


def test_span_basis_binary_rank_and_membership():
    basis = SpanBasis(4, 2, [(1, 1, 0, 0), (0, 1, 1, 0)])
    assert basis.rank == 2
    assert basis.contains((1, 0, 1, 0))  # sum of the two
    assert not basis.contains((1, 0, 0, 1))
    assert basis.contains((0, 0, 0, 0))


def test_span_basis_add_reports_rank_growth():
    basis = SpanBasis(3, 2)
    assert basis.add((1, 1, 0))
    assert basis.add((0, 1, 1))
    assert not basis.add((1, 0, 1))  # dependent
    assert basis.rank == 2


def test_span_basis_ternary():
    basis = SpanBasis(3, 3, [(1, 2, 0), (0, 1, 1)])
    assert basis.rank == 2
    # 2*(1,2,0) + (0,1,1) = (2,2,1)
    assert basis.contains((2, 2, 1))
    assert not basis.contains((1, 0, 0))


@pytest.mark.parametrize("q", [2, 3])
def test_span_closure_under_random_combinations(q):
    # Anything built as a combination of basis vectors must test as contained.
    rng = random.Random(1234 + q)
    n = 5
    for _ in range(50):
        vectors = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(3)]
        basis = SpanBasis(n, q, vectors)
        combo = (0,) * n
        for v in vectors:
            combo = vec_add(combo, vec_scale(v, rng.randrange(q), q), q)
        assert basis.contains(combo)


@pytest.mark.parametrize("q", [2, 3])
def test_rank_never_exceeds_dimension(q):
    rng = random.Random(99)
    n = 4
    for _ in range(30):
        vectors = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(8)]
        assert SpanBasis(n, q, vectors).rank <= n


@pytest.mark.parametrize("q", [2, 3])
def test_column_basis_recovers_coordinates(q):
    # Vectors built from independent columns get their coordinates back;
    # vectors outside the span get None.
    rng = random.Random(77 + q)
    for _ in range(200):
        n = rng.randint(1, 9)
        columns, basis = [], SpanBasis(n, q)
        for _ in range(rng.randint(1, n)):
            col = tuple(rng.randrange(q) for _ in range(n))
            if basis.add(col):
                columns.append(col)
        solver = ColumnBasis.of(n, q, columns)
        coeffs = [rng.randrange(q) for _ in columns]
        vec = (0,) * n
        for c, col in zip(coeffs, columns):
            vec = vec_add(vec, vec_scale(col, c, q), q)
        terms = [(i, x) for i, x in enumerate(vec, start=1)]
        expected = tuple((j, c) for j, c in enumerate(coeffs, start=1) if c)
        assert solver.coordinates(terms) == expected
        outside = tuple(rng.randrange(q) for _ in range(n))
        if not basis.contains(outside):
            assert solver.coordinates(list(enumerate(outside, start=1))) is None


@pytest.mark.parametrize("q", [2, 3])
def test_column_basis_keeps_dependent_columns_as_kernel(q):
    # c3 = c1 + c2 (over F_2 and F_3): one kernel vector, and the sum of the
    # first two columns is planned as the third alone
    basis = ColumnBasis.of(3, q, [(1, 1, 0), (0, 1, 1), (1, 2 % q, 1)])
    assert len(basis.kernel) == 1
    assert basis.coordinates([(1, 1), (2, 2 % q), (3, 1)]) == ((3, 1),)
    basis = ColumnBasis.of(2, q, [(1, 0), (0, 1), (1, 1)])
    assert len(basis.kernel) == 1
    assert basis.coordinates([(1, 1), (2, 1)]) == ((3, 1),)
    assert basis.coordinates([(1, 1)]) == ((1, 1),)
    assert basis.coordinates([(2, q - 1)]) == ((2, q - 1),)
    assert ColumnBasis.of(2, q, [(1, 0), (0, 1)]).kernel == ()


@pytest.mark.parametrize("q", [2, 3])
def test_column_basis_finds_the_lightest_solution(q):
    # Any columns, repeats, multiples and zero columns included: the
    # coordinates are the solution with the fewest nonzero coefficients, then
    # the earliest sorted column list, found here by trying all q^N of them.
    rng = random.Random(31 + q)
    dependent = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        columns = []
        for _ in range(rng.randint(1, n + 2)):
            if columns and rng.random() < 0.3:
                col = vec_scale(rng.choice(columns), rng.randrange(q), q)
            else:
                col = tuple(rng.randrange(q) for _ in range(n))
            columns.append(col)
        target = tuple(rng.randrange(q) for _ in range(n))
        solutions = []
        for coeffs in itertools.product(range(q), repeat=len(columns)):
            vec = (0,) * n
            for c, col in zip(coeffs, columns):
                vec = vec_add(vec, vec_scale(col, c, q), q)
            if vec == target:
                terms = tuple((j, c) for j, c in enumerate(coeffs, start=1) if c)
                solutions.append((len(terms), [j for j, _ in terms], terms))
        basis = ColumnBasis.of(n, q, columns)
        assert len(basis.kernel) == len(columns) - SpanBasis(n, q, columns).rank
        dependent += bool(basis.kernel)
        found = basis.coordinates(list(enumerate(target, start=1)))
        assert found == (min(solutions)[2] if solutions else None)
    assert dependent > 50
