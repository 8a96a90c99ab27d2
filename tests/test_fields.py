import random

import pytest

from uniprior.fields import (
    ColumnBasis,
    SpanBasis,
    pack_bits,
    unit_vector,
    vec_add,
    vec_scale,
)


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
def test_column_basis_refuses_dependent_columns(q):
    assert ColumnBasis.of(3, q, [(1, 1, 0), (0, 1, 1), (1, 2 % q, 1)]) is None
    assert ColumnBasis.of(2, q, [(1, 0), (0, 1), (1, 1)]) is None
    assert ColumnBasis.of(2, q, [(1, 0), (0, 1)]) is not None
