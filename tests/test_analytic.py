import math

import pytest

from oracles import binomial_oracle, error_increment
from uniprior.analytic import ErrorParams, message_error_prob, tabulate
from uniprior.errors import ValidationError


def test_trivial_values():
    assert message_error_prob(ErrorParams(0.0, 1)) == 0.0
    assert message_error_prob(ErrorParams(0.0, 5)) == 0.0
    assert message_error_prob(ErrorParams(0.5, 1)) == pytest.approx(0.5)
    assert message_error_prob(ErrorParams(0.5, 7)) == pytest.approx(0.5)
    assert message_error_prob(ErrorParams(0.1, 1)) == pytest.approx(0.1)


def test_hand_checked_values():
    # c=2: 2*p*(1-p); c=3: 3*p*(1-p)^2 + p^3
    assert message_error_prob(ErrorParams(0.2, 2)) == pytest.approx(0.32)
    assert message_error_prob(ErrorParams(0.1, 3)) == pytest.approx(0.244)
    assert message_error_prob(ErrorParams(0.25, 2)) == pytest.approx(0.375)


@pytest.mark.parametrize("c", range(1, 33))
def test_matches_odd_term_binomial_sum(c):
    for i in range(25):
        p = 0.01 + 0.02 * i
        closed = message_error_prob(ErrorParams(p, c))
        direct = binomial_oracle(p, c)
        assert closed == pytest.approx(direct, abs=1e-12)


# (p, largest c before the closed form saturates at 0.5 in float64)
@pytest.mark.parametrize("p, c_max", [(0.01, 32), (0.1, 32), (0.25, 32), (0.4, 17)])
def test_strictly_increasing_in_chain_length(p, c_max):
    values = [message_error_prob(ErrorParams(p, c)) for c in range(1, c_max + 1)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < 0.5 for v in values)


@pytest.mark.parametrize("c", [1, 2, 5, 16])
def test_strictly_increasing_in_symbol_error_rate(c):
    grid = [0.01 * k for k in range(1, 41)]
    values = [message_error_prob(ErrorParams(p, c)) for p in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("c", [1, 2, 3, 10, 31])
@pytest.mark.parametrize("p", [0.02, 0.11, 0.3])
def test_increment_identity(p, c):
    step = message_error_prob(ErrorParams(p, c + 1)) - message_error_prob(
        ErrorParams(p, c)
    )
    assert error_increment(p, c) == pytest.approx(step, abs=1e-12)
    assert error_increment(p, c) == pytest.approx((1 - 2 * p) ** c * p, abs=1e-15)


def test_increment_shrinks_geometrically():
    p = 0.1
    steps = [error_increment(p, c) for c in range(1, 20)]
    ratios = [b / a for a, b in zip(steps, steps[1:])]
    assert all(math.isclose(r, 1 - 2 * p, abs_tol=1e-12) for r in ratios)


@pytest.mark.parametrize(
    "p, c, fragment",
    [
        (-0.1, 1, "lie in"),
        (1.5, 1, "lie in"),
        (0.1, 0, "positive"),
        (0.1, -3, "positive"),
    ],
)
def test_parameter_validation(p, c, fragment):
    with pytest.raises(ValidationError, match=fragment):
        ErrorParams(p, c)


def test_boolean_chain_length_rejected():
    with pytest.raises(ValidationError, match="integer"):
        ErrorParams(0.1, True)


def test_tabulate_layout():
    text = tabulate([0.1, 0.2], [1, 2])
    lines = text.strip().split("\n")
    assert lines[0] == "p,c,prob"
    assert len(lines) == 5
    assert lines[1] == "0.1,1,0.1"
    assert lines[2].startswith("0.1,2,")
    assert float(lines[2].split(",")[2]) == pytest.approx(0.18)
