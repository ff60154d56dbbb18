import random
from fractions import Fraction
from math import factorial

import pytest

from flipshift.errors import OrderMismatchError
from flipshift.series import (TruncatedSeries, series_add, series_exp,
                              series_log, series_mul, substitute_t_squared)


def random_series(rng, order, zero_constant=False, one_constant=False):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = Fraction(0)
    if one_constant:
        coeffs[0] = Fraction(1)
    return TruncatedSeries(order, tuple(coeffs))


def exp_by_powers(f: TruncatedSeries) -> TruncatedSeries:
    """Independent oracle: exp(f) = sum f^k / k! up to the truncation order."""
    acc = TruncatedSeries.one(f.order)
    power = TruncatedSeries.one(f.order)
    for k in range(1, f.order + 1):
        power = series_mul(power, f)
        acc = series_add(acc, power.scale(Fraction(1, factorial(k))))
    return acc


def test_mul_by_one():
    rng = random.Random(1)
    f = random_series(rng, 8)
    assert series_mul(f, TruncatedSeries.one(8)) == f


def test_one_plus_t_times_one_minus_t():
    a = TruncatedSeries.from_coeffs(4, [1, 1])
    b = TruncatedSeries.from_coeffs(4, [1, -1])
    assert series_mul(a, b) == TruncatedSeries.from_coeffs(4, [1, 0, -1])


def test_geometric_series_identity():
    geo = TruncatedSeries.from_coeffs(6, [1] * 7)
    one_minus_t = TruncatedSeries.from_coeffs(6, [1, -1])
    assert series_mul(geo, one_minus_t) == TruncatedSeries.one(6)


def test_order_mismatch():
    with pytest.raises(OrderMismatchError):
        series_add(TruncatedSeries.one(3), TruncatedSeries.one(4))


def test_exp_of_zero():
    assert series_exp(TruncatedSeries.zero(6)) == TruncatedSeries.one(6)


def test_exp_log_geometric():
    # exp(sum t^n / n) = 1/(1-t)
    f = TruncatedSeries.from_coeffs(8, [0] + [Fraction(1, n) for n in range(1, 9)])
    geo = TruncatedSeries.from_coeffs(8, [1] * 9)
    assert series_exp(f) == geo
    assert series_log(geo) == f


def test_exp_in_t_squared():
    # exp(sum (4 t^2)^m / m) = 1/(1 - 4 t^2)
    coeffs = [Fraction(0)] * 9
    for m in range(1, 5):
        coeffs[2 * m] = Fraction(4 ** m, m)
    f = TruncatedSeries(8, tuple(coeffs))
    expected = TruncatedSeries.from_coeffs(
        8, [4 ** (d // 2) if d % 2 == 0 else 0 for d in range(9)])
    assert series_exp(f) == expected


def test_exp_matches_power_sum_oracle():
    rng = random.Random(2)
    for _ in range(10):
        f = random_series(rng, 10, zero_constant=True)
        assert series_exp(f) == exp_by_powers(f)


def test_exp_requires_zero_constant():
    with pytest.raises(OrderMismatchError):
        series_exp(TruncatedSeries.one(4))


def test_log_requires_unit_constant():
    with pytest.raises(OrderMismatchError):
        series_log(TruncatedSeries.zero(4))


def test_log_of_one():
    assert series_log(TruncatedSeries.one(5)) == TruncatedSeries.zero(5)


def test_exp_log_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        f = random_series(rng, 16, zero_constant=True)
        assert series_log(series_exp(f)) == f


def test_exp_additivity():
    rng = random.Random(4)
    for _ in range(10):
        f = random_series(rng, 12, zero_constant=True)
        g = random_series(rng, 12, zero_constant=True)
        assert series_exp(series_add(f, g)) == series_mul(series_exp(f), series_exp(g))


def test_substitute_basics():
    assert substitute_t_squared(TruncatedSeries.one(6)) == TruncatedSeries.one(6)
    t = TruncatedSeries.from_coeffs(6, [0, 1])
    assert substitute_t_squared(t) == TruncatedSeries.from_coeffs(6, [0, 0, 1])


def test_substitute_geometric():
    f = TruncatedSeries.from_coeffs(8, [4 ** n for n in range(9)])
    expected = TruncatedSeries.from_coeffs(
        8, [4 ** (d // 2) if d % 2 == 0 else 0 for d in range(9)])
    assert substitute_t_squared(f) == expected


def test_substitute_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(10):
        f = random_series(rng, 10)
        g = random_series(rng, 10)
        assert substitute_t_squared(series_add(f, g)) == \
            series_add(substitute_t_squared(f), substitute_t_squared(g))
        assert substitute_t_squared(series_mul(f, g)) == \
            series_mul(substitute_t_squared(f), substitute_t_squared(g))


@pytest.mark.parametrize("order, coeffs, message", [
    (-1, (), "series order must be >= 0"),
    (2, (Fraction(1),), "series of order 2 needs 3 coefficients, got 1"),
    (0, (Fraction(1), Fraction(0)), "series of order 0 needs 1 coefficients, got 2"),
])
def test_shape_refusals(order, coeffs, message):
    with pytest.raises(OrderMismatchError) as e:
        TruncatedSeries(order, coeffs)
    assert str(e.value) == message
