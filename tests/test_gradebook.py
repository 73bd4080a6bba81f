import random
import re

import pytest

from ncfgl import (
    ConsistencyError,
    DivisionError,
    ParameterError,
    PoincareSeries,
    parity_check_ku,
    rational_mu_series_check,
    series_divide,
    series_free_assoc,
    series_graded_algebra,
    splitting_multiplicities,
)

# p(0) .. p(20), the classical partition numbers
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385, 490, 627]


def test_free_assoc_empty_generator_set():
    assert series_free_assoc([], 5).dims == (1, 0, 0, 0, 0, 0)


def test_free_assoc_complex_degrees():
    series = series_free_assoc([2, 4, 6, 8], 8)
    assert series.dims == (1, 0, 1, 0, 2, 0, 4, 0, 8)


def test_free_assoc_real_degrees():
    series = series_free_assoc([1, 2, 3, 4, 5], 5)
    assert series.dims == (1, 1, 2, 4, 8, 16)


def test_free_assoc_rejects_degree_zero():
    with pytest.raises(ParameterError):
        series_free_assoc([0, 2], 4)


def test_tensor_algebra_identity():
    rng = random.Random(6)
    for _ in range(20):
        order = rng.randint(3, 12)
        degrees = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        t = series_free_assoc(degrees, order)
        g = [0] * (order + 1)
        for d in degrees:
            if d <= order:
                g[d] += 1
        one_minus_g = PoincareSeries(order, [1] + [-c for c in g[1:]])
        assert t * one_minus_g == PoincareSeries.one(order)


def test_polynomial_algebra_single_generator():
    series = series_graded_algebra([2], [], 7)
    assert series.dims == (1, 0, 1, 0, 1, 0, 1, 0)


def test_polynomial_algebra_two_and_six():
    series = series_graded_algebra([2, 6], [], 6)
    assert series.dims == (1, 0, 1, 0, 1, 0, 2)


def test_exterior_generator():
    series = series_graded_algebra([], [7], 7)
    assert series.dims == (1, 0, 0, 0, 0, 0, 0, 1)


def test_divide_series_by_itself():
    s = series_graded_algebra([2, 6], [], 10)
    assert series_divide(s, s) == PoincareSeries.one(10)


def test_divide_geometric_by_itself():
    s = series_free_assoc([1], 8)
    assert series_divide(s, s) == PoincareSeries.one(8)


def test_divide_round_trip():
    rng = random.Random(8)
    for _ in range(25):
        order = rng.randint(2, 10)
        a = PoincareSeries(order, [rng.randint(0, 5) for _ in range(order + 1)])
        b = PoincareSeries(order, [1] + [rng.randint(0, 4) for _ in range(order)])
        assert series_divide(a * b, b) == a


def test_divide_requires_unit_constant_term():
    a = PoincareSeries.one(4)
    b = PoincareSeries(4, (2, 0, 0, 0, 0))
    with pytest.raises(DivisionError):
        series_divide(a, b)


def test_splitting_multiplicities_p2():
    series = splitting_multiplicities(2, 12)
    assert [series.dims[2 * d] for d in range(7)] == [1, 0, 1, 1, 4, 7, 14]
    assert all(series.dims[n] == 0 for n in range(1, 13, 2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_splitting_nonnegative_through_80(p):
    series = splitting_multiplicities(p, 80)
    assert all(isinstance(c, int) and c >= 0 for c in series.dims)


def test_splitting_refuses_a_negative_multiplicity(monkeypatch):
    # The quotient is nonnegative wherever the test above looks, so only a
    # stubbed division reaches the guard.
    import ncfgl.gradebook

    monkeypatch.setattr(
        ncfgl.gradebook, "series_divide",
        lambda num, den, order: PoincareSeries(order, (1, 0, 0, 0, -3) + (0,) * (order - 4)),
    )
    with pytest.raises(ConsistencyError, match=re.escape("negative multiplicity -3 in degree 4")):
        splitting_multiplicities(2, 6)


def test_splitting_rejects_composite():
    with pytest.raises(ParameterError):
        splitting_multiplicities(6, 10)


def test_parity_p2():
    report = parity_check_ku(2, 20)
    assert report.least_odd_degree == 9
    assert report.cp_even_only
    assert report.verdict == "NOT-ISOMORPHIC"
    assert all(report.cp_dims.dims[n] == 1 for n in range(2, 21, 2))
    assert all(report.cp_dims.dims[n] == 0 for n in range(1, 21, 2))
    assert report.cp_dims.dims[0] == 0


def test_parity_p3():
    report = parity_check_ku(3, 30)
    assert report.least_odd_degree == 19
    assert report.verdict == "NOT-ISOMORPHIC"


def test_parity_validation():
    with pytest.raises(ParameterError):
        parity_check_ku(4, 10)
    with pytest.raises(ParameterError):
        parity_check_ku(7, 10)


def test_rational_comparison_dims():
    report = rational_mu_series_check(8)
    assert report.constructed.dims == (1, 0, 1, 0, 2, 0, 3, 0, 5)
    assert report.match


def test_rational_comparison_against_frozen_partitions():
    report = rational_mu_series_check(40)
    assert report.match
    for n in range(21):
        assert report.constructed.dims[2 * n] == PARTITIONS[n]


def test_series_arithmetic_shapes():
    with pytest.raises(ParameterError):
        PoincareSeries(3, (1, 0))
    s = PoincareSeries(4, (1, 2, 3, 4, 5))
    assert s.shift(2).dims == (0, 0, 1, 2, 3)


_ONE = PoincareSeries.one(3)

# One row per refusal of the Poincaré-series layer: (callable, args, error type, message fragment).
_REFUSALS = [
    (PoincareSeries, (-1, ()), ParameterError, "order must be nonnegative"),
    (PoincareSeries, (2, (1, 0)), ParameterError, "need exactly order + 1 dimensions"),
    (_ONE.shift, (-1,), ParameterError, "shift must be nonnegative"),
    (lambda a, b: a + b, (PoincareSeries.one(2), _ONE), ParameterError, "series orders disagree"),
    (series_divide, (_ONE, PoincareSeries.one(5), 4), ParameterError,
     "order exceeds the operands' truncation"),
    (parity_check_ku, (2, 1), ParameterError, "order must be at least 2"),
    (rational_mu_series_check, (1,), ParameterError, "order must be at least 2"),
]


@pytest.mark.parametrize("call, args, error, fragment", _REFUSALS, ids=[r[3] for r in _REFUSALS])
def test_gradebook_refusals(call, args, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(*args)
