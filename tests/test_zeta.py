import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from corpus import random_flip_pair, zero_one_flip_pairs
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                example2_pair, golden_mean_pair,
                                one_point_pair)
from flipshift.flips import FlipPair
from flipshift.matrices import IntMatrix
from flipshift.refchecks import reference_closed_form_triple
from flipshift.series import TruncatedSeries, series_mul
from flipshift.shifts import count_pmn_bruteforce
from flipshift.zeta import (artin_mazur_zeta, generating_function, lind_zeta,
                            p_flip_counts, verify_prop31)


def test_triples_example1():
    p1, p1i = example1_pair(), example1_symmetric_pair()
    for m in range(1, 5):
        assert p_flip_counts(p1, m).as_tuple() == (0, 0, 0)
    assert p_flip_counts(p1i, 1).as_tuple() == (0, 8, 0)
    assert p_flip_counts(p1i, 3).as_tuple() == (0, 32, 0)


def test_triples_example2():
    assert p_flip_counts(example2_pair("A"), 1).as_tuple() == (1, 1, 5)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(pair=zero_one_flip_pairs())
def test_formula_matches_oracle(pair):
    for m in range(1, 5):
        assert p_flip_counts(pair, m).as_tuple() == (
            count_pmn_bruteforce(pair, 2 * m - 1, 0),
            count_pmn_bruteforce(pair, 2 * m, 0),
            count_pmn_bruteforce(pair, 2 * m, 1))


def test_generating_function_examples():
    assert generating_function(example1_pair(), 12).is_zero()
    g = generating_function(example1_symmetric_pair(), 8)
    assert [str(c) for c in g.coeffs] == ["0", "0", "4", "0", "8", "0", "16", "0", "32"]
    one = generating_function(one_point_pair(), 6)
    assert all(c == 1 for c in one.coeffs[1:])


def test_generating_function_half_integrality():
    rng = random.Random(31)
    for _ in range(8):
        p = random_flip_pair(rng)
        g = generating_function(p, 8)
        for m in range(1, 5):
            doubled = 2 * g.coeffs[2 * m]
            assert doubled.denominator == 1
            assert doubled == (count_pmn_bruteforce(p, 2 * m, 0)
                               + count_pmn_bruteforce(p, 2 * m, 1))


def test_artin_zeta_empty_system():
    empty = IntMatrix.square((), ())
    assert artin_mazur_zeta(empty, 6) == TruncatedSeries.one(6)


def test_artin_zeta_golden_mean():
    # 1/(1 - t - t^2) by its own recurrence
    expected = [1, 1]
    for _ in range(10):
        expected.append(expected[-1] + expected[-2])
    z = artin_mazur_zeta(golden_mean_pair().A, 10)
    assert list(z.coeffs) == expected[:11]


def test_artin_zeta_example1():
    z = artin_mazur_zeta(example1_pair().A, 10)
    assert list(z.coeffs) == [4 ** (d // 2) if d % 2 == 0 else 0 for d in range(11)]


def test_lind_zeta_empty_system():
    empty = IntMatrix.square((), ())
    pair = FlipPair(empty, empty)
    assert lind_zeta(pair, 5) == TruncatedSeries.one(5)


def test_lind_zeta_example1_flip():
    # (1 - 4t^4)^(-1/2): generalized binomial expansion as the oracle
    from math import factorial
    order = 12
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(order // 4 + 1):
        binom = Fraction(1)
        for i in range(n):
            binom *= Fraction(-1, 2) - i
        binom /= factorial(n)
        coeffs[4 * n] = binom * (-4) ** n
    expected = TruncatedSeries(order, tuple(coeffs))
    assert lind_zeta(example1_pair(), order) == expected


def test_lind_zeta_example1_identity_flip_is_product_of_factors():
    order = 12
    half_power = lind_zeta(example1_pair(), order)  # equals (1-4t^4)^(-1/2)
    g = generating_function(example1_symmetric_pair(), order)
    from flipshift.series import series_exp
    expected = series_mul(half_power, series_exp(g))
    assert lind_zeta(example1_symmetric_pair(), order) == expected


def test_lind_zeta_relabel_invariance():
    rng = random.Random(37)
    for _ in range(6):
        p = random_flip_pair(rng)
        perm = list(p.alphabet)
        rng.shuffle(perm)
        relabeled = p.relabel({a: f"r{b}" for a, b in zip(p.alphabet, perm)})
        shuffled = relabeled.reorder(tuple(sorted(relabeled.alphabet)))
        assert lind_zeta(shuffled, 10) == lind_zeta(p, 10)


def test_verify_prop31():
    assert verify_prop31(example1_pair(), 3).passed
    assert verify_prop31(example1_symmetric_pair(), 3).passed
    assert verify_prop31(one_point_pair(), 3).passed
    rng = random.Random(41)
    for _ in range(4):
        assert verify_prop31(random_flip_pair(rng), 2).passed


def test_verify_prop31_composed_rows_use_an_independent_flip(monkeypatch):
    import flipshift.zeta as zeta_mod
    monkeypatch.setattr(zeta_mod, "count_pmn_bruteforce",
                        lambda pair, m, n: 100 * m + n)
    report = verify_prop31(example1_symmetric_pair(), 2)
    row3 = [c for c in report.checks if ",1) == p(" in c.name]
    assert [c.name for c in row3] == ["p(2,1) == p(2,0 of composed)",
                                      "p(4,1) == p(4,0 of composed)"]
    assert not any(c.passed for c in row3)


@pytest.mark.parametrize("call, message", [
    (lambda p: p_flip_counts(p, 0), "m must be >= 1"),
    (lambda p: generating_function(p, 0), "order must be >= 1"),
    (lambda p: artin_mazur_zeta(p.A, 0), "order must be >= 1"),
    (lambda p: lind_zeta(p, -1), "order must be >= 1"),
    (lambda p: verify_prop31(p, 0), "m_max must be >= 1"),
    (lambda p: reference_closed_form_triple(0), "m must be >= 1"),
])
def test_range_refusals(call, message):
    with pytest.raises(ValueError) as e:
        call(golden_mean_pair())
    assert str(e.value) == message
