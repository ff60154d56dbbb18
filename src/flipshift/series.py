"""Truncated formal power series over exact rationals.

A series of order N stores coefficients for degrees 0..N; every operation
discards (never approximates) terms beyond the truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import OrderMismatchError

DEFAULT_ORDER = 16


@dataclass(frozen=True)
class TruncatedSeries:
    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise OrderMismatchError("series order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise OrderMismatchError(
                f"series of order {self.order} needs {self.order + 1} coefficients, "
                f"got {len(self.coeffs)}")

    @classmethod
    def from_coeffs(cls, order: int, coeffs: Iterable) -> "TruncatedSeries":
        """Build a series, padding with zeros and dropping terms beyond the order."""
        cs = [Fraction(c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(order, tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs(order, [])

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs(order, [1])

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def scale(self, c) -> "TruncatedSeries":
        f = Fraction(c)
        return TruncatedSeries(self.order, tuple(f * x for x in self.coeffs))


def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.order != b.order:
        raise OrderMismatchError(f"orders differ: {a.order} != {b.order}")


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_orders(a, b)
    return TruncatedSeries(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated Cauchy product."""
    _check_orders(a, b)
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j in range(0, n + 1 - i):
            y = b.coeffs[j]
            if y:
                out[i + j] += x * y
    return TruncatedSeries(n, tuple(out))


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term.

    Uses the recurrence n*g_n = sum_{k=1..n} k*f_k*g_{n-k} obtained from
    g' = f'g, on integers.  With D the lcm of the denominators of the k*f_k
    and F_k = D*k*f_k, the numbers N_n = n! * D^n * g_n satisfy
    N_n = sum_k F_k * D^(k-1) * (n-1)!/(n-k)! * N_(n-k), so each
    coefficient becomes a Fraction once, as N_n / (n! * D^n).
    """
    if a.constant != 0:
        raise OrderMismatchError("series_exp needs a zero constant term")
    n = a.order
    kf = [k * c for k, c in enumerate(a.coeffs)]
    den = lcm(*(x.denominator for x in kf))
    f = [x.numerator * (den // x.denominator) for x in kf]
    num = [1] + [0] * n
    for m in range(1, n + 1):
        acc, scale = 0, 1  # scale = D^(k-1) * (m-1)!/(m-k)!
        for k in range(1, m + 1):
            if f[k]:
                acc += f[k] * scale * num[m - k]
            scale *= den * (m - k)
        num[m] = acc
    g, scale = [Fraction(1)], 1
    for m in range(1, n + 1):
        scale *= m * den
        g.append(Fraction(num[m], scale))
    return TruncatedSeries(n, tuple(g))


def series_log(a: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 1 (inverse of series_exp)."""
    if a.constant != 1:
        raise OrderMismatchError("series_log needs constant term 1")
    n = a.order
    h = [Fraction(0)] * (n + 1)
    for d in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, d):
            if h[k]:
                acc += k * h[k] * a.coeffs[d - k]
        h[d] = a.coeffs[d] - acc / d
    return TruncatedSeries(n, tuple(h))


def substitute_t_squared(a: TruncatedSeries) -> TruncatedSeries:
    """Substitute t -> t^2, keeping the original truncation order."""
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for k, c in enumerate(a.coeffs):
        if 2 * k > n:
            break
        out[2 * k] = c
    return TruncatedSeries(n, tuple(out))
