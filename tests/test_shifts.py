import random
import warnings
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import flipshift.shifts as shifts
from corpus import random_flip_pair, zero_one_flip_pairs
from flipshift.errors import BudgetError, MatrixShapeError
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                golden_mean_pair, one_point_pair)
from flipshift.flips import FlipPair
from flipshift.matrices import IntMatrix, mat_pow, trace
from flipshift.shifts import (blocks, count_pmn_bruteforce, enumerate_periodic,
                              essential_symbols, is_essential, word_center)
from points import count_fixed, flip_point


def test_word_ops():
    w = ("a", "b", "c")
    assert word_center(w) == "b"
    with pytest.raises(ValueError):
        word_center(("a", "b"))


def test_blocks_single_loop():
    a = IntMatrix.square("a", [[1]])
    assert blocks(a, 3) == (("a", "a", "a"),)


def test_blocks_golden_mean():
    gm = golden_mean_pair()
    assert blocks(gm.A, 2) == (("1", "1"), ("1", "2"), ("2", "1"))


def test_blocks_example1_symbols():
    assert blocks(example1_pair().A, 1) == (("1",), ("2",), ("3",), ("4",))


def test_stranded_symbols_vanish_without_a_warning():
    # symbol "b" has no outgoing path back to a cycle, "c" is unreachable
    a = IntMatrix.square("abc", [[1, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert essential_symbols(a) == ("a",)
    assert not is_essential(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert blocks(a, 2) == (("a", "a"),)


def test_enumerate_periodic_counts():
    assert len(enumerate_periodic(one_point_pair().A, 5)) == 1
    gm = golden_mean_pair()
    assert [len(enumerate_periodic(gm.A, m)) for m in (1, 2, 3, 4)] == [1, 3, 4, 7]
    assert len(enumerate_periodic(example1_pair().A, 2)) == 8


def test_enumeration_matches_trace():
    rng = random.Random(17)
    pairs = [random_flip_pair(rng) for _ in range(10)]
    pairs += [golden_mean_pair(), example1_pair()]
    for p in pairs:
        for m in range(1, 8):
            assert len(enumerate_periodic(p.A, m)) == trace(mat_pow(p.A, m))


def test_walk_budget_refuses_before_walking(monkeypatch):
    full = IntMatrix.square("abcd", [[1] * 4] * 4)

    def no_walk(*args):
        raise AssertionError("walked past the budget")

    for enumerate_words, (owner, builder) in _BUILDERS.items():
        with monkeypatch.context() as m:
            m.setattr(owner, builder, no_walk)
            with pytest.raises(BudgetError):
                enumerate_words(full, 40)


def _counting_block_walk(tally: list[int]):
    """_BlockWalk._extend, adding to tally[0] the characters of each width it builds."""
    extend = shifts._BlockWalk._extend

    def counting(walk):
        extend(walk)
        tally[0] += sum(map(len, walk.words[-1]))

    return counting


def _counting_extend(tally: list[int]):
    """shifts._extend, adding to tally[0] the characters of each level it builds."""
    extend = shifts._extend

    def counting(ends, succ):
        grown = extend(ends, succ)
        tally[0] += sum(len(p) for groups in grown for paths in groups.values() for p in paths)
        return grown

    return counting


# the function each enumeration builds its paths with past its first level: the
# block walk's widths for blocks, the grouped walk for periodic points
_BUILDERS = {blocks: (shifts._BlockWalk, "_extend"), enumerate_periodic: (shifts, "_extend")}


def _enumerate_within(budget, enumerate_words, a, length, counting=None):
    enumerate_words.cache_clear()
    shifts._block_walk.cache_clear()  # the walk behind blocks, cached on its own
    owner, builder = _BUILDERS[enumerate_words]
    with patch.object(shifts, "WALK_BUDGET", budget), \
            patch.object(owner, builder, counting or getattr(owner, builder)):
        return enumerate_words(a, length)


@st.composite
def zero_one_matrices(draw):
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return IntMatrix.square("abcdef"[:n], draw(st.lists(row, min_size=n, max_size=n)))


@settings(derandomize=True, database=None, deadline=None)
@given(a=zero_one_matrices(), length=st.integers(1, 8))
def test_walk_budget_is_the_character_count(a, length):
    # the first level, one character per start, is built in place
    for enumerate_words, tally, counting in (
            (blocks, [len(essential_symbols(a))], _counting_block_walk),
            (enumerate_periodic, [a.nrows], _counting_extend)):
        _enumerate_within(10 ** 9, enumerate_words, a, length, counting(tally))
        _enumerate_within(tally[0], enumerate_words, a, length)
        with pytest.raises(BudgetError):
            _enumerate_within(tally[0] - 1, enumerate_words, a, length)


@settings(derandomize=True, database=None, deadline=None)
@given(a=zero_one_matrices(), length=st.integers(1, 6))
def test_block_count_is_the_number_of_blocks(a, length):
    assert shifts.block_count(a, length) == len(blocks(a, length))


# -- oracle: the essential flags from the transitive closure --------------------


def closure_flags(a: IntMatrix):
    """(has infinite past, has infinite future) per symbol, from the transitive
    closure: a symbol reaches a cycle iff it reaches a symbol that reaches itself."""
    n = a.nrows
    reach = [[bool(x) for x in row] for row in a.entries]
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    cyclic = [reach[i][i] for i in range(n)]
    future = tuple(cyclic[i] or any(cyclic[j] and reach[i][j] for j in range(n))
                   for i in range(n))
    past = tuple(cyclic[i] or any(cyclic[j] and reach[j][i] for j in range(n))
                 for i in range(n))
    return past, future


@settings(derandomize=True, database=None, deadline=None)
@given(a=st.one_of(zero_one_matrices(), zero_one_flip_pairs().map(lambda p: p.A)))
def test_essential_flags_equal_the_closure_oracle(a):
    assert shifts._essential_flags(a) == closure_flags(a)


# -- oracles: a depth-first walk, and counts read point by point ----------------


def dfs_walks(succ: list[tuple[int, ...]], start: int, length: int):
    """Yield every path of ``length`` symbol indices from ``start``, in lex order.

    The yielded list is reused between paths; copy what you keep.
    """
    path = [start]
    if length == 1:
        yield path
        return
    pending = [iter(succ[start])]  # successors still to try, one per depth
    while pending:
        for j in pending[-1]:
            path.append(j)
            if len(path) == length:
                yield path
                path.pop()
            else:
                pending.append(iter(succ[j]))
                break
        else:
            pending.pop()
            path.pop()


def dfs_blocks(a: IntMatrix, n: int):
    past, future = shifts._essential_flags(a)
    succ = a._support
    return tuple(tuple(a.row_labels[i] for i in path)
                 for start in range(a.nrows) if past[start]
                 for path in dfs_walks(succ, start, n) if future[path[-1]])


def dfs_periodic(a: IntMatrix, m: int):
    succ = a._support
    return tuple(tuple(a.row_labels[i] for i in path)
                 for start in range(a.nrows)
                 for path in dfs_walks(succ, start, m) if a.entries[path[-1]][start])


@settings(derandomize=True, database=None, deadline=None)
@given(a=st.one_of(zero_one_matrices(), zero_one_flip_pairs().map(lambda p: p.A)),
       length=st.integers(1, 8))
@example(a=IntMatrix.square("abcde", [[1, 1, 0, 0, 1], [0] * 5, [1, 0, 0, 0, 0], [0] * 5,
                                     [1, 0, 0, 0, 0]]),
         length=4)  # b has no future, c no past, d neither
def test_walks_equal_the_depth_first_oracle(a, length):
    assert blocks(a, length) == dfs_blocks(a, length)
    assert enumerate_periodic(a, length) == dfs_periodic(a, length)


@settings(derandomize=True, database=None, deadline=None)
@given(pair=zero_one_flip_pairs())
def test_counts_equal_the_filter_oracle(pair):
    for m in range(1, 8):
        points = dfs_periodic(pair.A, m)
        flipped = {x: flip_point(pair, x) for x in points}
        for n in range(-m, 2 * m + 1):
            assert count_pmn_bruteforce(pair, m, n) == count_fixed(points, flipped.get, n)


def _counts_in_order(pair, periods):
    """{(m, n): count} over ``periods`` in the order given, from a fresh walk."""
    shifts._count_walk.cache_clear()
    return {(m, n): count_pmn_bruteforce(pair, m, n)
            for m in periods for n in range(-1, m + 1)}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(pair=zero_one_flip_pairs(), order=st.integers(1, 7).flatmap(
    lambda top: st.permutations(range(1, top + 1))))
def test_counts_do_not_depend_on_the_order_of_periods(pair, order):
    top = len(order)
    ascending = _counts_in_order(pair, range(1, top + 1))
    assert _counts_in_order(pair, range(top, 0, -1)) == ascending
    assert _counts_in_order(pair, order) == ascending
    for m in range(1, top + 1):
        points = dfs_periodic(pair.A, m)
        flipped = {x: flip_point(pair, x) for x in points}
        for n in range(-1, m + 1):
            assert ascending[m, n] == count_fixed(points, flipped.get, n)


def _characters(a: IntMatrix, length: int) -> int:
    """The characters of the paths of at most ``length`` symbols: the sum of
    k*1*A^(k-1)*1, k <= length."""
    return sum((k + 1) * sum(map(sum, mat_pow(a, k).entries)) for k in range(length))


@settings(derandomize=True, database=None, deadline=None)
@given(pair=zero_one_flip_pairs(), top=st.integers(2, 8))
def test_count_walks_once_up_to_its_highest_period(pair, top):
    # as the CLI's count asks: every period in ascending order, each for several n
    tally = [pair.size]  # the walk's first level, the symbols, is built in place
    steps = []
    step = shifts._step
    shifts._count_walk.cache_clear()
    with patch.object(shifts, "_extend", _counting_extend(tally)), \
            patch.object(shifts, "_step", lambda *args: steps.append(1) or step(*args)):
        for m in range(1, top + 1):
            for n in range(4):
                count_pmn_bruteforce(pair, m, n)
    one_walk = _characters(pair.A, top)
    # a walk restarted for each period builds more, so this test can fail
    assert sum(_characters(pair.A, m) for m in range(1, top + 1)) > one_walk
    assert tally[0] == one_walk
    # and its budget counts each new level once, not every level per period
    assert len(steps) == top - 1


def test_count_budget_refuses_before_walking():
    def no_walk(*args):
        raise AssertionError("walked past the budget")

    full16 = IntMatrix.square([f"s{i}" for i in range(16)], [[1] * 16] * 16)
    pair16 = FlipPair(full16, IntMatrix.identity(full16.row_labels))
    full4 = IntMatrix.square("abcd", [[1] * 4] * 4)
    pair4 = FlipPair(full4, IntMatrix.identity(full4.row_labels))
    shifts._count_walk.cache_clear()
    with patch.object(shifts, "_extend", no_walk):
        with pytest.raises(BudgetError, match="^words of length 8 need more than 1000000 "
                                              "walk characters$"):
            count_pmn_bruteforce(pair16, 8, 0)
        with pytest.raises(BudgetError, match="^words of length 40 "):
            count_pmn_bruteforce(pair4, 40, 0)
    # 4 + 2*16 + 3*64 = 228 characters reach period 3, and 4*256 more would reach period 4
    shifts._count_walk.cache_clear()
    with patch.object(shifts, "WALK_BUDGET", 228):
        assert count_pmn_bruteforce(pair4, 2, 0) == 16
        with patch.object(shifts, "_extend", no_walk):
            with pytest.raises(BudgetError, match="^words of length 4 "):
                count_pmn_bruteforce(pair4, 4, 1)
        # the refused call left the walk where it was, and it resumes from there
        points = dfs_periodic(full4, 3)
        assert [count_pmn_bruteforce(pair4, 3, n) for n in range(3)] == \
            [count_fixed(points, lambda x: flip_point(pair4, x), n) for n in range(3)]


def test_count_pmn_examples():
    gm = golden_mean_pair()
    assert count_pmn_bruteforce(gm, 1, 0) == 1
    p1 = example1_pair()
    assert all(count_pmn_bruteforce(p1, m, n) == 0
               for m in range(1, 7) for n in (0, 1))
    assert count_pmn_bruteforce(example1_symmetric_pair(), 2, 0) == 8


def test_count_parity_and_wraparound():
    rng = random.Random(19)
    pairs = [random_flip_pair(rng) for _ in range(8)] + [example1_symmetric_pair()]
    for p in pairs:
        for m in range(1, 7):
            base0 = count_pmn_bruteforce(p, m, 0)
            base1 = count_pmn_bruteforce(p, m, 1)
            for n in range(-4, 5):
                c = count_pmn_bruteforce(p, m, n)
                assert c == count_pmn_bruteforce(p, m, m + n)
                if m % 2 == 1:
                    assert c == base0
                else:
                    assert c == (base0 if n % 2 == 0 else base1)


def test_flip_permutes_periodic_points():
    rng = random.Random(23)
    pairs = [random_flip_pair(rng) for _ in range(6)] + [example1_pair()]
    for p in pairs:
        for m in range(1, 6):
            points = enumerate_periodic(p.A, m)
            images = [flip_point(p, x) for x in points]
            assert sorted(images) == sorted(points)
            for x in points:
                assert flip_point(p, flip_point(p, x)) == x


@pytest.mark.parametrize("make, error, message", [
    (lambda: blocks(IntMatrix.rect("ab", "a", [[1], [0]]), 1), MatrixShapeError,
     "a shift needs a square matrix with one label list"),
    (lambda: enumerate_periodic(IntMatrix.rect("ab", "ba", [[1, 0], [0, 1]]), 1),
     MatrixShapeError, "a shift needs a square matrix with one label list"),
    (lambda: essential_symbols(IntMatrix.square("ab", [[2, 0], [0, 1]])), MatrixShapeError,
     "a shift needs a zero-one matrix"),
    (lambda: blocks(golden_mean_pair().A, 0), ValueError, "block length must be >= 1"),
    (lambda: enumerate_periodic(golden_mean_pair().A, 0), ValueError, "period must be >= 1"),
    (lambda: count_pmn_bruteforce(golden_mean_pair(), 0, 0), ValueError, "m must be >= 1"),
    (lambda: count_pmn_bruteforce(golden_mean_pair(), -2, 1), ValueError, "m must be >= 1"),
    (lambda: word_center(("a", "b")), ValueError, "center symbol needs a word of odd length"),
])
def test_refusals(make, error, message):
    with pytest.raises(error) as e:
        make()
    assert type(e.value) is error and str(e.value) == message
