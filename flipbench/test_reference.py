"""Known values for the reference computations the benchmark checks against."""

import json
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import reference as ref

DATA = Path(__file__).resolve().parent.parent / "src" / "flipshift" / "data"


def load(name):
    doc = json.loads((DATA / f"{name}.json").read_text())
    return tuple(doc["alphabet"]), doc["A"], doc["J"]


def test_golden_mean_traces_are_lucas_numbers():
    lucas = [2, 1]
    for _ in range(20):
        lucas.append(lucas[-1] + lucas[-2])
    assert ref.traces([[1, 1], [1, 0]], 20) == lucas[1:21]


def test_example1_identity_flip_counts_are_powers_of_two():
    _, a, j = load("example1_AI")
    assert ref.flip_counts(a, j, 8) == [(0, 2 ** (m + 2), 0) for m in range(1, 9)]


def test_example1_lind_zeta_is_the_half_power_series():
    _, a, j = load("example1_AJ")
    order = 24
    want = [Fraction(0)] * (order + 1)
    for n in range(order // 4 + 1):
        want[4 * n] = Fraction(comb(2 * n, n))  # (1 - 4t^4)^(-1/2)
    gen, lind = ref.pair_series(a, j, order)
    assert gen == [0] * (order + 1)
    assert lind == want


def test_example2_char_poly_and_first_triple():
    want = [0, 1]  # t (t-1)^4 (t^2 - 3t + 1), ascending
    for _ in range(4):
        want = ref.poly_mul(want, [-1, 1])
    want = ref.poly_mul(want, [1, -3, 1])
    for w in "ABC":
        _, a, j = load(f"example2_{w}J")
        assert ref.char_poly_from_traces(ref.traces(a, 7), 7) == want
        assert ref.multiplicity_of_one(want) == 4
        assert ref.flip_counts(a, j, 1) == [(1, 1, 5)]


def test_example2_block_pairs_have_the_known_sizes_and_keep_the_counts():
    alphabet, a, j = load("example2_AJ")
    assert [len(ref.block_words(a, k)) for k in (2, 3, 4)] == [20, 53, 138]
    labels, ba, bj = ref.block_pair(alphabet, a, j, 2)
    n = len(labels)
    # the block pair is a flip pair: J J = I and A J = J A^T
    assert ref.mat_mul(bj, bj, n) == [[int(i == k) for k in range(n)] for i in range(n)]
    assert ref.mat_mul(ba, bj, n) == ref.mat_mul(bj, ref.transpose(ba, n), n)
    assert ref.traces(ba, 10) == ref.traces(a, 10)
    # the 2-block pair's flip is the base flip composed with one shift, so
    # p(2m,0) and p(2m,1) trade places; G(t) and the Lind zeta are unchanged
    assert ref.flip_counts(ba, bj, 5) == [(o, e1, e0) for o, e0, e1 in ref.flip_counts(a, j, 5)]
    assert ref.pair_series(ba, bj, 16) == ref.pair_series(a, j, 16)
    _, ca, cj = ref.block_pair(alphabet, a, j, 3)
    assert ref.flip_counts(ca, cj, 5) == ref.flip_counts(a, j, 5)


def test_block_pair_labels_follow_the_alphabet_order():
    labels, _, _ = ref.block_pair(("x", "y"), [[1, 1], [1, 0]], [[1, 0], [0, 1]], 3)
    assert labels == ("x x x", "x x y", "x y x", "y x x", "y x y")
    assert ref.centre_map(labels) == {"x x x": "x", "x x y": "x", "x y x": "y",
                                      "y x x": "x", "y x y": "x"}


def test_splitting_step_of_the_golden_mean_holds_and_a_corrupt_one_fails():
    alphabet, a, j = load("golden_mean")
    labels, ba, bj = ref.block_pair(alphabet, a, j, 2)
    words = [lab.split(" ") for lab in labels]
    r = [[int(w[0] == s) for w in words] for s in alphabet]   # drop the last symbol
    s = [[int(w[1] == t) for t in alphabet] for w in words]   # drop the first symbol
    assert ref.splitting_step_holds(a, j, ba, bj, r, s)
    bad = [row[:] for row in r]
    bad[0][0] ^= 1
    assert not ref.splitting_step_holds(a, j, ba, bj, bad, s)


def test_multiplicity_of_one_and_commutant_dimension():
    assert ref.multiplicity_of_one(ref.poly_mul([-1, 1], [-1, 1])) == 2
    assert ref.multiplicity_of_one([1, 0, 1]) == 0
    assert ref.commutant_dimension([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 9
    assert ref.commutant_dimension([[1, 1], [1, 0]]) == 2


def test_series_exp_of_t_is_e_to_the_t():
    assert ref.series_exp([Fraction(0), Fraction(1)] + [Fraction(0)] * 6) == \
        [Fraction(1, factorial(k)) for k in range(8)]


def test_essential_part_drops_stranded_symbols():
    # 0 -> 1 -> 1 -> 2: only symbol 1 lies on a bi-infinite path
    a = [[0, 1, 0], [0, 1, 1], [0, 0, 0]]
    assert ref.essential_indices(a) == [1]
