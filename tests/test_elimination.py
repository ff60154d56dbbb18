"""The one exact elimination against the code it replaced.

``rational_kernel_basis`` is the former Fraction kernel of the lag search,
kept here only as an oracle: the integral kernel must be exactly d times its
basis, with the same pivots and so the same rank.  ``dense_bareiss`` is the
former elimination, which rescaled every row at every step; the one that
rescales rows only when a step needs them must give the same rows.
``power_loop_profile`` is the former rank profile, which formed and
eliminated every power; the chain of echelon rows must give its ranks.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from corpus import amalgamable_matrices, corpus, integer_matrices
from flipshift.constructions import higher_block
from flipshift.equivalence import sfe_bounded_search, sfe_check
from flipshift.errors import CertificateError
from flipshift.fixtures import example2_matrix, example2_pair
from flipshift.matrices import (IntMatrix, _bareiss, _integral_kernel, _rank_profile, char_poly,
                                mat_mul, mat_pow, rank_over_rationals, rank_profile)


def dense_bareiss(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Bareiss elimination updating every row below the pivot at every step."""
    m = [list(row) for row in rows]
    nr = len(m)
    pivots: list[int] = []
    prev = 1
    row = 0
    for col in range(ncols):
        if row >= nr:
            break
        piv = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        p = m[row][col]
        for r in range(row + 1, nr):
            factor = m[r][col]
            for c in range(col + 1, ncols):
                q, rem = divmod(p * m[r][c] - factor * m[row][c], prev)
                assert rem == 0
                m[r][c] = q
            m[r][col] = 0
        prev = p
        row += 1
        pivots.append(col)
    return m[:row], pivots


def rational_kernel_basis(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the kernel of a rational matrix, pivot-normalized."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][f]
        basis.append(v)
    return basis


def intertwining_rows(src, dst) -> list[list[int]]:
    """The rows of A*R - R*B as a linear map on R, one column per cell."""
    na, nb = src.size, dst.size
    rows = []
    for i in range(na):
        for b in range(nb):
            row = [0] * (na * nb)
            for j in range(na):
                row[j * nb + b] += src.A.entries[i][j]
            for c in range(nb):
                row[i * nb + c] -= dst.A.entries[c][b]
            rows.append(row)
    return rows


def random_int_rows(rng: random.Random) -> list[list[int]]:
    """Integer rows with negative entries, zero rows and dependent rows or columns."""
    nr, nc = rng.randint(1, 6), rng.randint(1, 7)
    rows = [[0 if rng.random() < 0.4 else rng.randint(-4, 4) for _ in range(nc)]
            for _ in range(nr)]
    kind = rng.randrange(4)
    if kind == 0:
        rows[rng.randrange(nr)] = [0] * nc
    elif kind == 1 and nr >= 2:
        i, j = rng.sample(range(nr), 2)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([s * x + t * y for x, y in zip(rows[i], rows[j])])
    elif kind == 2 and nc >= 2:
        i, j = rng.sample(range(nc), 2)
        for row in rows:
            row.append(2 * row[i] - 3 * row[j])
    return rows


def check_against_oracle(rows: list[list[int]]):
    ncols = len(rows[0])
    d, basis = _integral_kernel(rows, ncols)
    oracle = rational_kernel_basis([[Fraction(x) for x in row] for row in rows])
    assert d != 0
    assert basis == [[d * x for x in v] for v in oracle]
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    labels = [f"c{c}" for c in range(ncols)]
    rank = rank_over_rationals(IntMatrix.rect((f"r{i}" for i in range(len(rows))),
                                              labels, rows))
    assert rank == len(dense_bareiss(rows, ncols)[1]) == ncols - len(oracle)


def test_integral_kernel_is_d_times_oracle_on_corpus_rows():
    pairs = corpus(count=30, max_size=4)
    for src, dst in zip(pairs, pairs[1:] + pairs[:1]):
        check_against_oracle(intertwining_rows(src, src))
        check_against_oracle(intertwining_rows(src, dst))


def test_integral_kernel_is_d_times_oracle_on_random_integers():
    rng = random.Random(61)
    for _ in range(300):
        check_against_oracle(random_int_rows(rng))


def test_integral_kernel_of_full_rank_and_zero_matrices():
    assert _integral_kernel([[2, 0], [0, 3]], 2) == (6, [])
    assert _integral_kernel([[0, 0, 0]], 3) == (1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(a=integer_matrices(square=False))
def test_bareiss_equals_the_dense_elimination(a):
    rows = [list(row) for row in a.entries]
    assert _bareiss(rows, a.ncols) == dense_bareiss(rows, a.ncols)
    assert rank_over_rationals(a) == len(dense_bareiss(rows, a.ncols)[1])


def power_loop_profile(a: IntMatrix, shift: int, power: int) -> list[int]:
    """The former rank profile: each power of M - shift*I formed and eliminated."""
    shifted = a - IntMatrix.identity(a.row_labels).scale(shift)
    profile, m = [], shifted
    for j in range(power):
        if j:
            m = mat_mul(shifted, m)
        profile.append(rank_over_rationals(m))
    return profile


def multiplicity(coeffs: tuple[int, ...], s: int) -> int:
    """How often t - s divides a polynomial, by repeated synthetic division."""
    mult, c = 0, list(coeffs)
    while len(c) > 1:
        acc, quotient = 0, []
        for x in reversed(c):
            acc = acc * s + x
            quotient.append(acc)
        if quotient.pop():  # the remainder, the value at s
            break
        c = quotient[::-1]
        mult += 1
    return mult


SMALL_MATRICES = [example2_matrix(w) for w in "ABC"] + [p.A for p in corpus(count=40)]


# example 2's A and B have a Jordan block of size 4 at 1, so their ranks of
# (M - I)^j fall up to j = 4; the corpus ranks settle by j = 2 or 3
@settings(derandomize=True, database=None, deadline=None)
@given(a=st.sampled_from(SMALL_MATRICES), shift=st.integers(-2, 2), power=st.integers(1, 30))
def test_rank_profiles_of_corpus_pairs_equal_the_dense_elimination(a, shift, power):
    m = mat_pow(a - IntMatrix.identity(a.row_labels).scale(shift), power)
    rows = [list(row) for row in m.entries]
    assert _bareiss(rows, m.ncols) == dense_bareiss(rows, m.ncols)
    assert rank_over_rationals(m) == len(dense_bareiss(rows, m.ncols)[1])
    assert rank_profile(a, shift, power) == power_loop_profile(a, shift, power)


# negative entries, zero rows and entries of up to 23,000 bits, whose powers
# make the power loop slow: so fewer powers
@settings(derandomize=True, database=None, deadline=None)
@given(a=integer_matrices(), shift=st.integers(-2, 2), power=st.integers(1, 8))
def test_rank_profiles_of_integer_matrices_equal_the_power_loop(a, shift, power):
    assert rank_profile(a, shift, power) == power_loop_profile(a, shift, power)


# at s != 0 the chain runs on the merged rows and columns, while the rank the
# CLI reports stays M's own
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(a=amalgamable_matrices(), shift=st.sampled_from([1, -1, 2, -2]), power=st.integers(1, 6))
def test_rank_profiles_of_repeated_rows_and_columns_equal_the_power_loop(a, shift, power):
    assert _rank_profile(a, shift, power) == (rank_over_rationals(a),
                                              power_loop_profile(a, shift, power))


# The 3- and 4-block matrices of example 2's A, B and C (A's have 53 and 138
# symbols).  Their profiles fall at shifts 0 and 1 and settle by j = 5; the
# power loop's cost grows with the entries of the powers, so the other shifts
# take fewer powers.
@pytest.mark.parametrize("word", "ABC")
@pytest.mark.parametrize("n, powers", [(2, {0: 30, 1: 12, -1: 6, 2: 6, -2: 6}),
                                       (3, {0: 12, 1: 6, -1: 2, 2: 2, -2: 2})],
                         ids=["3-blocks", "4-blocks"])
def test_rank_profiles_of_block_matrices_equal_the_power_loop(word, n, powers):
    a = higher_block(example2_pair(word), n)[0].A
    for shift, power in powers.items():
        assert rank_profile(a, shift, power) == power_loop_profile(a, shift, power)


# n - rank((M - s*I)^(n+1)) is the algebraic multiplicity of s, which the
# modular characteristic polynomial gives by another road
@settings(derandomize=True, database=None, deadline=None)
@given(a=st.one_of(st.sampled_from(SMALL_MATRICES), integer_matrices()))
def test_settled_ranks_are_the_multiplicities_of_the_characteristic_polynomial(a):
    chi = char_poly(a).coeffs
    for shift in (0, 1, -1, 2, -2):
        assert a.nrows - rank_profile(a, shift, a.nrows + 1)[-1] == multiplicity(chi, shift)


def oracle_sfe_search(src, dst, lag_max, entry_max):
    """The former candidate enumeration over the Fraction kernel, in order."""
    na, nb = src.size, dst.size
    rows = intertwining_rows(src, dst)
    basis = rational_kernel_basis([[Fraction(x) for x in row] for row in rows])
    found = []
    for coeffs in product(range(entry_max + 1), repeat=len(basis)):
        vec = [sum((c * v[k] for c, v in zip(coeffs, basis)), Fraction(0))
               for k in range(na * nb)]
        if not all(x.denominator == 1 and 0 <= x <= entry_max for x in vec):
            continue
        r = IntMatrix.rect(src.alphabet, dst.alphabet,
                           [[int(vec[i * nb + b]) for b in range(nb)] for i in range(na)])
        for lag in range(1, lag_max + 1):
            try:
                found.append((lag, sfe_check(src, dst, r, lag).R))
            except CertificateError:
                pass
    return found


def test_sfe_search_candidates_and_order_match_the_fraction_kernel():
    pairs = corpus(seed=71, count=20, max_size=3)
    for src, dst in zip(pairs, pairs[1:] + pairs[:1]):
        for s, t in ((src, src), (src, dst)):
            got = [(c.lag, c.R) for c in sfe_bounded_search(s, t, 2, 2)]
            assert got == oracle_sfe_search(s, t, 2, 2)
