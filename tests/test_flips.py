import random

import pytest

from corpus import random_flip_pair
from flipshift.errors import FlipPairError
from flipshift.fixtures import (example1_matrix_A, example1_matrix_J,
                                example1_pair, example1_symmetric_pair,
                                golden_mean_pair, one_point_pair)
from flipshift.flips import FlipPair
from flipshift.matrices import IntMatrix
from flipshift.shifts import blocks


def test_example1_pairs_are_valid():
    p = example1_pair()
    assert dict(p.tau) == {"1": "3", "2": "4", "3": "1", "4": "2"}
    assert example1_symmetric_pair().tau["1"] == "1"


def test_non_involution_rejected():
    a = IntMatrix.square("ab", [[1, 1], [1, 1]])
    j = IntMatrix.square("ab", [[1, 1], [0, 1]])
    with pytest.raises(FlipPairError) as e:
        FlipPair(a, j)
    assert e.value.axiom == "J_involution"


def test_non_zero_one_rejected():
    a = IntMatrix.square("a", [[2]])
    with pytest.raises(FlipPairError) as e:
        FlipPair(a, IntMatrix.identity("a"))
    assert e.value.axiom == "A_zero_one"


def test_symmetry_axiom_rejected():
    a = IntMatrix.square("ab", [[1, 1], [0, 1]])
    with pytest.raises(FlipPairError) as e:
        FlipPair(a, IntMatrix.identity("ab"))
    assert e.value.axiom == "flip_symmetry"


def test_identity_involution_iff_symmetric():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 5)
        labels = tuple(f"s{i}" for i in range(n))
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        a = IntMatrix.square(labels, rows)
        symmetric = a == a.transpose()
        try:
            FlipPair(a, IntMatrix.identity(labels))
            accepted = True
        except FlipPairError:
            accepted = False
        assert accepted == symmetric


def test_flip_word():
    p = example1_pair()
    assert p.flip_word(("1",)) == ("3",)
    assert p.flip_word(("1", "2")) == ("4", "3")
    w = ("1", "2", "3")
    assert p.flip_word(p.flip_word(w)) == w


def test_flip_word_unknown_symbol():
    with pytest.raises(FlipPairError):
        example1_pair().flip_word(("1", "z"))


def test_flip_preserves_blocks():
    rng = random.Random(9)
    pairs = [random_flip_pair(rng) for _ in range(8)]
    pairs += [example1_pair(), golden_mean_pair()]
    for p in pairs:
        for n in range(1, 6):
            words = blocks(p.A, n)
            for w in words:
                flipped = p.flip_word(w)
                assert flipped in words
                assert p.flip_word(flipped) == w


def test_degenerate_alphabets():
    empty = FlipPair(IntMatrix.square((), ()), IntMatrix.square((), ()))
    assert empty.size == 0
    assert one_point_pair().flip_word(("a",)) == ("a",)


def test_relabel_and_reorder():
    gm = golden_mean_pair()
    swapped = gm.relabel({"1": "b", "2": "a"})
    assert swapped.alphabet == ("b", "a")
    reordered = swapped.reorder(("a", "b"))
    assert reordered.A.to_rows() == [[0, 1], [1, 1]]


def test_tau_matches_pair_symmetry():
    # A(a, b) == A(tau(b), tau(a)) is equivalent to the matrix axiom
    p = example1_pair()
    for a in p.alphabet:
        for b in p.alphabet:
            assert p.A.entry(a, b) == p.A.entry(p.tau[b], p.tau[a])


def test_equality_and_hash():
    assert golden_mean_pair() == golden_mean_pair()
    assert hash(example1_pair()) == hash(FlipPair(example1_matrix_A(),
                                                  example1_matrix_J()))
    assert example1_pair() != example1_symmetric_pair()
