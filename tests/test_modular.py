"""The modular pass against the exact-integer code it replaced.

``faddeev_leverrier``, ``power_loop_artin``, ``power_loop_lind`` and
``fraction_series_exp`` are the former kernels behind ``char_poly``, both
zetas and ``series_exp``, kept here only as oracles.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corpus import amalgamable_matrices, corpus, integer_matrices
from flipshift import matrices
from flipshift.constructions import higher_block
from flipshift.errors import BudgetError
from flipshift.fixtures import example2_pair
from flipshift.flips import FlipPair
from flipshift.matrices import (_MERSENNE_PRIMES, IntMatrix, IntPolynomial,
                                _char_poly_modular, _hadamard_squared,
                                _mersenne_primes_past, char_poly, mat_mul,
                                rank_over_rationals, rank_profile, trace)
from flipshift.refchecks import expected_char_poly
from flipshift.series import TruncatedSeries, series_add, series_exp
from flipshift.zeta import artin_mazur_zeta, generating_function, lind_zeta

CORPUS = corpus(count=40)


def faddeev_leverrier(a: IntMatrix) -> IntPolynomial:
    """det(tI - A) by the Faddeev-LeVerrier recurrence; every division is exact."""
    n = a.nrows
    coeffs = [1] + [0] * n  # coeffs[k] is the coefficient of t^(n-k)
    acc = IntMatrix.identity(a.row_labels)
    for k in range(1, n + 1):
        acc = mat_mul(a, acc)
        q, r = divmod(-trace(acc), k)
        assert r == 0
        coeffs[k] = q
        acc = acc + IntMatrix.identity(a.row_labels).scale(q)
    return IntPolynomial.from_coeffs(reversed(coeffs))


def fraction_series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """exp by n*g_n = sum_k k*f_k*g_(n-k), one Fraction operation at a time."""
    g = [Fraction(1)] + [Fraction(0)] * a.order
    for d in range(1, a.order + 1):
        g[d] = sum((k * a.coeffs[k] * g[d - k] for k in range(1, d + 1)), Fraction(0)) / d
    return TruncatedSeries(a.order, tuple(g))


def power_traces(a: IntMatrix, count: int) -> list[int]:
    """tr(A^n) for n = 1..count, from explicit powers."""
    out, power = [], IntMatrix.identity(a.row_labels)
    for _ in range(count):
        power = mat_mul(a, power)
        out.append(trace(power))
    return out


def power_loop_artin(a: IntMatrix, order: int) -> TruncatedSeries:
    coeffs = [Fraction(0)] + [Fraction(t, n) for n, t in
                              enumerate(power_traces(a, order), start=1)]
    return fraction_series_exp(TruncatedSeries(order, tuple(coeffs)))


def power_loop_lind(pair: FlipPair, order: int) -> TruncatedSeries:
    coeffs = [Fraction(0)] * (order + 1)
    for n, t in enumerate(power_traces(pair.A, order // 2), start=1):
        coeffs[2 * n] = Fraction(t, 2 * n)
    inner = series_add(TruncatedSeries(order, tuple(coeffs)),
                       generating_function(pair, order))
    return fraction_series_exp(inner)


pairs = st.sampled_from(CORPUS)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(a=integer_matrices())
def test_char_poly_equals_faddeev_leverrier(a):
    assert char_poly(a) == faddeev_leverrier(a)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(a=amalgamable_matrices())
def test_char_poly_of_repeated_rows_and_columns_equals_faddeev_leverrier(a):
    assert char_poly(a) == faddeev_leverrier(a)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(a=integer_matrices(), order=st.integers(1, 10))
def test_artin_zeta_equals_the_power_loop(a, order):
    assert artin_mazur_zeta(a, order) == power_loop_artin(a, order)


@settings(derandomize=True, database=None, deadline=None)
@given(pair=pairs, order=st.integers(1, 16))
def test_corpus_zetas_and_char_poly_equal_the_oracles(pair, order):
    assert char_poly(pair.A) == faddeev_leverrier(pair.A)
    # the Hessenberg pass on A itself, unmerged, under A's own bound
    raw = pair.A.entries
    primes = _mersenne_primes_past(_hadamard_squared(raw) << (2 * len(raw) + 2))
    assert IntPolynomial.from_coeffs(_char_poly_modular(raw, primes)) == char_poly(pair.A)
    assert artin_mazur_zeta(pair.A, order) == power_loop_artin(pair.A, order)
    assert lind_zeta(pair, order) == power_loop_lind(pair, order)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(derandomize=True, database=None, deadline=None)
@given(coeffs=st.lists(fractions, max_size=14))
def test_series_exp_equals_the_fraction_recurrence(coeffs):
    f = TruncatedSeries(len(coeffs), (Fraction(0), *coeffs))
    assert series_exp(f) == fraction_series_exp(f)


def test_several_primes_are_merged_past_the_largest():
    big = 1 << 23_000
    a = IntMatrix.square("xyz", [[big, 1, 0], [-3, big + 5, 2], [0, 7, -big]])
    bound = _hadamard_squared(a.entries) << (2 * 3 + 2)
    assert len(_mersenne_primes_past(bound)) > 1
    assert char_poly(a) == faddeev_leverrier(a)
    assert artin_mazur_zeta(a, 6) == power_loop_artin(a, 6)


def test_a_prime_below_the_bound_gives_a_wrong_polynomial():
    """The bound is load-bearing: with a prime below it the lift is wrong."""
    for p in _MERSENNE_PRIMES[:6]:
        # det(tI - A) = t^2 - 2(p+1) t + (p+1)^2 - 1 has coefficients above p/2
        a = IntMatrix.square("xy", [[p + 1, 1], [1, p + 1]])
        assert _mersenne_primes_past(_hadamard_squared(a.entries) << 6)[0] > p
        exact = faddeev_leverrier(a)
        assert char_poly(a) == exact
        assert IntPolynomial.from_coeffs(_char_poly_modular(a.entries, [p])) != exact


def test_a_scaled_hadamard_matrix_needs_the_whole_bound():
    """Its determinant attains Hadamard's bound H, so a prime chosen from a
    bound smaller by the factor 2^(n+1) (here 2^89 - 1 for H = 2^89) lifts
    it wrongly."""
    s = 1 << 44
    a = IntMatrix.square("xy", [[s, s], [s, -s]])
    assert char_poly(a) == IntPolynomial.from_coeffs([-2 * s * s, 0, 1])
    assert IntPolynomial.from_coeffs(_char_poly_modular(a.entries, [(1 << 89) - 1])) \
        != char_poly(a)


def test_the_chosen_prime_is_the_smallest_that_passes():
    for bits in (0, 60, 61, 122, 200, 1300, 9000):
        bound = 1 << bits
        (p,) = _mersenne_primes_past(bound)
        assert p * p > bound
        smaller = [q for q in _MERSENNE_PRIMES if q < p]
        assert all(q * q <= bound for q in smaller)


def test_a_bound_past_every_listed_prime_is_refused():
    product = 1
    for p in _MERSENNE_PRIMES:
        product *= p
    with pytest.raises(BudgetError):
        _mersenne_primes_past(product * product)


def test_the_listed_primes_pass_lucas_lehmer():
    for p in _MERSENNE_PRIMES:
        e = p.bit_length()
        if e > 5000:
            break
        s = 4
        for _ in range(e - 2):
            s = (s * s - 2) % p
        assert s == 0, e


def test_the_359_symbol_block_pair_keeps_its_polynomial_and_rank():
    a = higher_block(example2_pair("A"), 4)[0].A
    assert a.nrows == 359
    # t^353 * (t - 1)^4 * (t^2 - 3t + 1), the base polynomial times t^(N - 7)
    assert char_poly(a).coeffs == (0,) * 353 + (1, -7, 19, -26, 19, -7, 1)
    assert rank_over_rationals(a) == 138


# Every block pair of example 2 merges back to 7 symbols, so the Hessenberg
# pass never sees more, and the nullities of (M - I)^j are the base's at every
# size: a Jordan block of size 4 at 1 for A and B, two of size 2 for C.
@pytest.mark.parametrize("word, nullities", [("A", (1, 2, 3, 4, 4)), ("B", (1, 2, 3, 4, 4)),
                                             ("C", (2, 4, 4, 4, 4))])
def test_block_pairs_of_example_2_run_their_kernels_on_seven_symbols(word, nullities,
                                                                     monkeypatch):
    sizes, hessenberg = [], matrices._hessenberg_char_poly
    monkeypatch.setattr(matrices, "_hessenberg_char_poly",
                        lambda rows, p: sizes.append(len(rows)) or hessenberg(rows, p))
    base = example2_pair(word)
    chi = expected_char_poly().coeffs
    for a in [base.A] + [higher_block(base, n)[0].A for n in (1, 2, 3, 4)]:
        size = a.nrows
        assert char_poly(a).coeffs == (0,) * (size - 7) + chi
        assert tuple(size - r for r in rank_profile(a, 1, 5)) == nullities
    assert max(sizes) == 7
