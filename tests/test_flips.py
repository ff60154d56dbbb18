import random

import pytest

from corpus import random_flip_pair
from flipshift.constructions import higher_block
from flipshift.errors import FlipPairError, MatrixShapeError
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


_GM = golden_mean_pair()  # on the alphabet ("1", "2")
_SWAP = IntMatrix.square("ab", [[0, 1], [1, 0]])


@pytest.mark.parametrize("make, error, tag, message", [
    (lambda: FlipPair(IntMatrix.identity("ab"), IntMatrix.square("ab", [[2, 0], [0, 1]])),
     FlipPairError, "J_zero_one", "involution matrix has an entry outside {0,1}"),
    (lambda: FlipPair(IntMatrix.rect("ab", "a", [[1], [0]]), IntMatrix.identity("ab")),
     FlipPairError, "shape", "transition matrix must be square with one label list"),
    (lambda: FlipPair(IntMatrix.rect("ab", "ba", [[1, 0], [0, 1]]), IntMatrix.identity("ab")),
     FlipPairError, "shape", "transition matrix must be square with one label list"),
    (lambda: FlipPair(IntMatrix.identity("ab"), IntMatrix.rect("ab", "ba", [[0, 1], [1, 0]])),
     FlipPairError, "shape", "involution matrix must be square with one label list"),
    (lambda: FlipPair(IntMatrix.identity("ab"), IntMatrix.identity("ba")),
     FlipPairError, "labels", "the two matrices must share one alphabet"),
    (lambda: FlipPair(IntMatrix.identity(["", "a"]), IntMatrix.identity(["", "a"])),
     FlipPairError, "labels", "empty symbol label"),
    (lambda: FlipPair(IntMatrix.identity("ab"), _SWAP.scale(0)),
     FlipPairError, "J_involution", "J*J != I"),
    (lambda: _GM.flip_word(("3",)), FlipPairError, "labels", "unknown symbol '3'"),
    # relabel and reorder refuse duplicates first, then foreign labels, then empty ones
    (lambda: _GM.relabel({"1": "2"}), MatrixShapeError, None, "duplicate labels: ('2', '2')"),
    (lambda: _GM.relabel({"1": "", "2": ""}), MatrixShapeError, None,
     "duplicate labels: ('', '')"),
    (lambda: _GM.relabel({"2": ""}), FlipPairError, "labels", "empty symbol label"),
    (lambda: _GM.reorder(("1", "1")), MatrixShapeError, None, "duplicate labels: ('1', '1')"),
    (lambda: _GM.reorder(("1", "3")), MatrixShapeError, None,
     "reorder must use the same label sets"),
    (lambda: _GM.reorder(("1",)), MatrixShapeError, None, "reorder must use the same label sets"),
    (lambda: _GM.reorder(("2", "1", "3")), MatrixShapeError, None,
     "reorder must use the same label sets"),
])
def test_refusals(make, error, tag, message):
    with pytest.raises(error) as e:
        make()
    assert type(e.value) is error and str(e.value) == message
    assert getattr(e.value, "axiom", None) == tag


def _dense_permuted(pair: FlipPair, names: dict[str, str], order: list[str]) -> FlipPair:
    """The pair renamed by ``names`` and put in ``order``, from its dense rows."""
    at = {names[a]: i for i, a in enumerate(pair.alphabet)}
    def rows(m: IntMatrix) -> list[list[int]]:
        return [[m.entries[at[x]][at[y]] for y in order] for x in order]
    return FlipPair(IntMatrix.square(order, rows(pair.A)), IntMatrix.square(order, rows(pair.J)))


def test_relabel_and_reorder_build_no_dense_view(monkeypatch):
    hb, _ = higher_block(example1_pair(), 2)  # its dense views are not built
    twin, _ = higher_block(example1_pair(), 2)
    names = {a: f"s{i}" for i, a in enumerate(hb.alphabet)}
    order = list(names.values())
    random.Random(4).shuffle(order)
    renamed_want = _dense_permuted(twin, names, list(names.values()))
    shuffled_want = _dense_permuted(twin, names, order)

    def no_matrix(*args):
        raise AssertionError("a matrix was built")
    for way in ("_from_ones", "_trusted", "__post_init__"):
        monkeypatch.setattr(IntMatrix, way, no_matrix)
    renamed = hb.relabel(names)
    shuffled = renamed.reorder(order)
    for got, want in ((renamed, renamed_want), (shuffled, shuffled_want)):
        assert got == want and got.name is None
        assert (got.alphabet, got._succ, got.tau_index) == (want.alphabet, want._succ,
                                                            want.tau_index)
        assert dict(got.tau) == dict(want.tau)
    assert shuffled.reorder(list(names.values())) == renamed
