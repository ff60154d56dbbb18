"""The zero-skipping kernel against the dense code it replaced.

``dense_mul`` is the former ``mat_mul`` and ``dense_axiom`` the former
flip-pair axiom check by products; both are kept here only as oracles.
"""

import random

import pytest

from corpus import corpus
from flipshift.errors import FlipPairError
from flipshift.flips import FlipPair
from flipshift.matrices import IntMatrix, mat_mul
from flipshift.shifts import count_pmn_bruteforce
from flipshift.zeta import generating_function, p_flip_counts


def dense_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = b.transpose().entries
    rows = tuple(tuple(sum(x * y for x, y in zip(arow, bcol)) for bcol in bt)
                 for arow in a.entries)
    return IntMatrix(a.row_labels, b.col_labels, rows)


def dense_axiom(a: IntMatrix, j: IntMatrix) -> str | None:
    """The axiom the product-based check named first, or None if all hold."""
    if dense_mul(j, j) != IntMatrix.identity(j.row_labels):
        return "J_involution"
    if dense_mul(a, j) != dense_mul(j, a.transpose()):
        return "flip_symmetry"
    return None


def axiom_raised(a: IntMatrix, j: IntMatrix) -> str | None:
    try:
        FlipPair(a, j)
    except FlipPairError as e:
        return e.axiom
    return None


def random_rect(rng, nr, nc, zero_row=None, zero_col=None):
    rows = [[0 if i == zero_row or c == zero_col or rng.random() < 0.5
             else rng.randint(-5, 5) for c in range(nc)] for i in range(nr)]
    return IntMatrix.rect((f"r{i}" for i in range(nr)),
                          (f"c{c}" for c in range(nc)), rows)


def test_mat_mul_equals_dense_on_corpus():
    for p in corpus(count=30):
        a, j = p.A, p.J
        a2 = dense_mul(a, a)
        for x, y in [(a, a), (a, j), (j, a), (j, j), (a2, a), (a, a2),
                     (a, a.transpose())]:
            assert mat_mul(x, y) == dense_mul(x, y)


def test_mat_mul_equals_dense_on_rectangular_integers():
    rng = random.Random(53)
    for _ in range(60):
        n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = random_rect(rng, n, k, zero_row=rng.randrange(n) if n else None,
                        zero_col=rng.randrange(k) if k else None)
        b = random_rect(rng, k, m, zero_row=rng.randrange(k) if k else None,
                        zero_col=rng.randrange(m) if m else None)
        b = IntMatrix.rect(a.col_labels, b.col_labels, b.entries)
        got = mat_mul(a, b)
        assert got == dense_mul(a, b)
        assert (got.nrows, got.ncols) == (n, m)


def test_flip_counts_equal_bruteforce_on_corpus():
    for p in corpus(count=30):
        g = generating_function(p, 8)
        for m in range(1, 5):
            want = (count_pmn_bruteforce(p, 2 * m - 1, 0),
                    count_pmn_bruteforce(p, 2 * m, 0),
                    count_pmn_bruteforce(p, 2 * m, 1))
            assert p_flip_counts(p, m).as_tuple() == want
            assert g.coeffs[2 * m - 1] == want[0]
            assert g.coeffs[2 * m] * 2 == want[1] + want[2]


@pytest.mark.parametrize("a_rows, j_rows, axiom", [
    ([[1, 0], [0, 1]], [[1, 1], [0, 1]], "J_involution"),  # two ones in a row
    ([[1, 0], [0, 1]], [[0, 0], [0, 1]], "J_involution"),  # an empty row
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
     [[0, 1, 0], [0, 0, 1], [1, 0, 0]], "J_involution"),   # a 3-cycle
    ([[1, 1], [0, 0]], [[1, 0], [0, 1]], "flip_symmetry"),  # A != A^T, J = I
    ([[1, 1], [0, 0]], [[0, 1], [1, 0]], "flip_symmetry"),  # A(a,a) != A(b,b)
])
def test_malformed_pairs_name_the_same_axiom(a_rows, j_rows, axiom):
    labels = tuple("abc"[:len(j_rows)])
    a = IntMatrix.square(labels, a_rows)
    j = IntMatrix.square(labels, j_rows)
    assert dense_axiom(a, j) == axiom
    assert axiom_raised(a, j) == axiom


def test_single_bit_corruptions_name_the_same_axiom():
    rng = random.Random(59)
    seen = set()
    for p in corpus(count=40):
        n = p.size
        for target in ("A", "J"):
            i, k = rng.randrange(n), rng.randrange(n)
            rows = (p.A if target == "A" else p.J).to_rows()
            rows[i][k] ^= 1
            bad = IntMatrix.square(p.alphabet, rows)
            a, j = (bad, p.J) if target == "A" else (p.A, bad)
            want = dense_axiom(a, j)
            assert axiom_raised(a, j) == want
            seen.add(want)
    assert {"J_involution", "flip_symmetry"} <= seen
