import random

import pytest

from flipshift.errors import MatrixShapeError
from flipshift.fixtures import example1_matrix_A, example2_matrix
from flipshift.matrices import (IntMatrix, IntPolynomial, _first_non_int, char_poly,
                                mat_mul, mat_pow, rank_over_rationals, trace)
from flipshift.refchecks import expected_char_poly
from test_sparse_kernel import dense_mul


def random_square(rng, n, lo=-3, hi=3):
    labels = tuple(f"x{i}" for i in range(n))
    return IntMatrix.square(labels, [[rng.randint(lo, hi) for _ in range(n)]
                                     for _ in range(n)])


def test_mul_identity():
    m = IntMatrix.square("abc", [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert mat_mul(IntMatrix.identity("abc"), m) == m


def test_mul_example1_square_is_twice_parity_matrix():
    a = example1_matrix_A()
    parity = [[1 if (i - j) % 2 == 0 else 0 for j in range(4)] for i in range(4)]
    expected = IntMatrix.square(a.row_labels, [[2 * x for x in row] for row in parity])
    assert mat_mul(a, a) == expected


def test_mul_two_by_two():
    a = IntMatrix.square("12", [[1, 1], [1, 0]])
    assert mat_mul(a, a).to_rows() == [[2, 1], [1, 1]]


def test_mul_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(20):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        rl = tuple(f"r{i}" for i in range(n))
        il = tuple(f"i{i}" for i in range(k))
        cl = tuple(f"c{i}" for i in range(m))
        a = IntMatrix.rect(rl, il, [[rng.randint(-4, 4) for _ in range(k)]
                                    for _ in range(n)])
        b = IntMatrix.rect(il, cl, [[rng.randint(-4, 4) for _ in range(m)]
                                    for _ in range(k)])
        assert mat_mul(a, b) == dense_mul(a, b)


def test_mul_label_mismatch():
    a = IntMatrix.square("ab", [[1, 0], [0, 1]])
    b = IntMatrix.square("cd", [[1, 0], [0, 1]])
    with pytest.raises(MatrixShapeError):
        mat_mul(a, b)


def test_pow_zero_is_identity():
    m = IntMatrix.square("ab", [[3, 1], [2, 5]])
    assert mat_pow(m, 0) == IntMatrix.identity("ab")


def test_pow_traces_of_example1():
    a = example1_matrix_A()
    assert trace(mat_pow(a, 2)) == 8
    assert trace(mat_pow(a, 4)) == 32


def test_pow_additivity():
    rng = random.Random(11)
    for _ in range(3):
        m = random_square(rng, 5, -2, 2)
        powers = [mat_pow(m, k) for k in range(13)]
        for j in range(7):
            for k in range(7):
                assert mat_mul(powers[j], powers[k]) == powers[j + k]


def test_trace_cyclic():
    rng = random.Random(3)
    for _ in range(10):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        rl = tuple(f"r{i}" for i in range(n))
        cl = tuple(f"c{i}" for i in range(k))
        a = IntMatrix.rect(rl, cl, [[rng.randint(-3, 3) for _ in range(k)]
                                    for _ in range(n)])
        b = IntMatrix.rect(cl, rl, [[rng.randint(-3, 3) for _ in range(n)]
                                    for _ in range(k)])
        assert trace(mat_mul(a, b)) == trace(mat_mul(b, a))


def test_trace_requires_square():
    with pytest.raises(MatrixShapeError):
        trace(IntMatrix.rect("ab", "c", [[1], [2]]))


def test_trace_examples():
    assert trace(IntMatrix.identity("abcde")) == 5
    assert trace(example1_matrix_A()) == 0
    # all seven diagonal entries of the second fixture matrix are 1, in line
    # with its characteristic polynomial having root sum 7
    assert trace(example2_matrix("A")) == 7


def test_char_poly_identity2():
    assert char_poly(IntMatrix.identity("ab")) == IntPolynomial.from_coeffs([1, -2, 1])


def test_char_poly_two_by_two():
    a = IntMatrix.square("12", [[1, 1], [1, 0]])
    assert char_poly(a) == IntPolynomial.from_coeffs([-1, -1, 1])


def test_char_poly_example2_expansion():
    # t(t-1)^4(t^2-3t+1), expanded by convolution apart from char_poly
    for w in ("A", "B", "C"):
        assert char_poly(example2_matrix(w)) == expected_char_poly()


def eval_matrix(poly: IntPolynomial, a: IntMatrix) -> IntMatrix:
    """poly(A), by Horner's rule on exact matrices."""
    acc = IntMatrix.identity(a.row_labels).scale(0)
    for c in reversed(poly.coeffs):
        acc = mat_mul(acc, a) + IntMatrix.identity(a.row_labels).scale(c)
    return acc


def test_cayley_hamilton():
    rng = random.Random(5)
    mats = [random_square(rng, n) for n in (1, 2, 3, 4, 5)]
    mats += [random_square(rng, 7, -1, 1), example2_matrix("A"),
             example2_matrix("C"), example1_matrix_A()]
    for m in mats:
        poly = char_poly(m)
        evaluated = eval_matrix(poly, m)
        assert all(x == 0 for row in evaluated.entries for x in row)


def test_char_poly_empty_matrix():
    empty = IntMatrix.square((), ())
    assert char_poly(empty) == IntPolynomial.from_coeffs([1])


def rank_fraction_oracle(m: IntMatrix) -> int:
    """Independent elimination over Fractions, pivoting right to left."""
    from fractions import Fraction
    rows = [[Fraction(x) for x in row] for row in m.entries]
    rank = 0
    used = set()
    for col in reversed(range(m.ncols)):
        piv = next((i for i in range(len(rows))
                    if i not in used and rows[i][col] != 0), None)
        if piv is None:
            continue
        used.add(piv)
        rank += 1
        pivval = rows[piv][col]
        for i in range(len(rows)):
            if i != piv and rows[i][col] != 0:
                f = rows[i][col] / pivval
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
    return rank


def test_rank_examples():
    assert rank_over_rationals(IntMatrix.rect("ab", "cd", [[0, 0], [0, 0]])) == 0
    eye = IntMatrix.identity(example2_matrix("A").row_labels)
    assert rank_over_rationals(example2_matrix("A") - eye) == 6
    assert rank_over_rationals(example2_matrix("C") - eye) == 5


def test_rank_matches_independent_elimination():
    rng = random.Random(13)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rl = tuple(f"r{i}" for i in range(n))
        cl = tuple(f"c{i}" for i in range(m))
        mat = IntMatrix.rect(rl, cl, [[rng.randint(-2, 2) for _ in range(m)]
                                      for _ in range(n)])
        r = rank_over_rationals(mat)
        assert r == rank_fraction_oracle(mat)
        assert r + (mat.ncols - r) == mat.ncols


def test_polynomial_str():
    p = IntPolynomial.from_coeffs([0, 1, -7, 19, -26, 19, -7, 1])
    assert str(p) == "t^7 - 7*t^6 + 19*t^5 - 26*t^4 + 19*t^3 - 7*t^2 + t"
    assert IntPolynomial.from_coeffs([0]).degree == -1


class _Int(int):
    pass


@pytest.mark.parametrize("row, at", [
    ((), None), ((1, -2, 10 ** 30), None), ((1, _Int(2)), None),
    ((1, True, 2.0), 1), ((0, 1, "1"), 2), ((_Int(3), None), 1),
])
def test_first_non_int_names_the_first_bad_entry(row, at):
    assert _first_non_int(row) == at


_AB = IntMatrix.square("ab", [[1, 0], [1, 1]])
_COLUMN = IntMatrix.rect("ab", "a", [[1], [0]])


@pytest.mark.parametrize("make, message", [
    (lambda: IntMatrix.square("ab", [[1, 0]]), "1 rows for 2 row labels"),
    (lambda: IntMatrix.square("ab", [[1, 0], [1]]), "row of length 1 for 2 column labels"),
    (lambda: IntMatrix.square("ab", [[1, 0], [1, 1.5]]), "non-integer entry 1.5"),
    (lambda: IntMatrix.square("ab", [[1, True], [1, 1]]), "non-integer entry True"),
    (lambda: IntMatrix.square("aa", [[1, 0], [1, 1]]), "duplicate labels: ('a', 'a')"),
    (lambda: IntMatrix.rect("ab", "c", [["1"], [1]]), "non-integer entry '1'"),
    (lambda: IntMatrix.rect("ab", "cc", [[1, 0], [1, 1]]), "duplicate labels: ('c', 'c')"),
    (lambda: IntMatrix.rect("aa", "c", [[1], [1]]), "duplicate labels: ('a', 'a')"),
    (lambda: IntMatrix.identity("aba"), "duplicate labels: ('a', 'b', 'a')"),
    (lambda: IntMatrix(("a",), ("b",), ((0.5,),)), "non-integer entry 0.5"),
    (lambda: IntMatrix(("a",), ("b",), ()), "0 rows for 1 row labels"),
    (lambda: _AB + IntMatrix.identity("ba"), "matrix addition requires identical labels"),
    (lambda: _AB + _COLUMN, "matrix addition requires identical labels"),
    (lambda: _AB - IntMatrix.identity("ba"), "matrix subtraction requires identical labels"),
    (lambda: _COLUMN - _AB, "matrix subtraction requires identical labels"),
    (lambda: _AB.scale(1.5), "non-integer entry 1.5"),
    (lambda: _AB.entry("z", "a"), "unknown row label 'z'"),
    (lambda: _AB.entry("a", "z"), "unknown column label 'z'"),
    (lambda: _COLUMN.entry("a", "b"), "unknown column label 'b'"),
    (lambda: mat_mul(_AB, _COLUMN.transpose()),
     "cannot multiply 2x2 by 1x2 (inner labels must match)"),
    (lambda: mat_pow(_COLUMN, 2), "matrix power needs a square matrix with one label list"),
    (lambda: mat_pow(IntMatrix.rect("ab", "ba", [[1, 0], [0, 1]]), 1),
     "matrix power needs a square matrix with one label list"),
    (lambda: mat_pow(_AB, -1), "matrix power needs k >= 0"),
    (lambda: trace(_COLUMN), "trace needs a square matrix with one label list"),
    (lambda: char_poly(_COLUMN), "characteristic polynomial needs a square matrix"),
])
def test_refusal_messages(make, message):
    with pytest.raises(MatrixShapeError) as e:
        make()
    assert str(e.value) == message


@pytest.mark.parametrize("rows, cols, message", [
    ("aa", "ab", "duplicate labels: ('a', 'a')"), ("ab", "bb", "duplicate labels: ('b', 'b')"),
])
def test_direct_constructor_refuses_duplicate_labels_by_the_label_rule(rows, cols, message):
    with pytest.raises(MatrixShapeError) as e:
        IntMatrix(tuple(rows), tuple(cols), ((1, 0), (0, 1)))
    assert str(e.value) == message


def test_computed_matrices_equal_checked_ones():
    a, b = IntMatrix.square("ab", [[3, -1], [0, 2]]), _AB
    assert a + b == IntMatrix.square("ab", [[4, -1], [1, 3]])
    assert a - b == IntMatrix.square("ab", [[2, -1], [-1, 1]])
    assert IntMatrix.identity("abc") == IntMatrix.square("abc", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert IntMatrix.identity(()) == IntMatrix.square((), ())
    assert IntMatrix.square("a", [[_Int(3)]]).entry("a", "a") == 3
