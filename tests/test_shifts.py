import random
import warnings
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import flipshift.shifts as shifts
from corpus import random_flip_pair, zero_one_flip_pairs
from flipshift.errors import BudgetError
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                golden_mean_pair, one_point_pair)
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

    monkeypatch.setattr(shifts, "_walks", no_walk)
    for enumerate_words in (blocks, enumerate_periodic):
        with pytest.raises(BudgetError):
            enumerate_words(full, 40)


def _counting_walks(tally: list[int]):
    """shifts._walks, adding one to tally[0] per prefix it builds."""
    walks = shifts._walks

    class Successors:
        def __init__(self, js):
            self.js = js

        def __iter__(self):
            for j in self.js:
                tally[0] += 1
                yield j

    def counting(succ, starts, length):
        tally[0] += len(starts)
        return walks([Successors(js) for js in succ], starts, length)

    return counting


def _enumerate_within(budget, enumerate_words, a, length, walks=shifts._walks):
    enumerate_words.cache_clear()
    with patch.object(shifts, "WALK_BUDGET", budget), patch.object(shifts, "_walks", walks):
        return enumerate_words(a, length)


@st.composite
def zero_one_matrices(draw):
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return IntMatrix.square("abcdef"[:n], draw(st.lists(row, min_size=n, max_size=n)))


@settings(derandomize=True, database=None, deadline=None)
@given(a=zero_one_matrices(), length=st.integers(1, 8))
def test_walk_budget_is_the_prefix_count(a, length):
    for enumerate_words in (blocks, enumerate_periodic):
        tally = [0]
        _enumerate_within(10 ** 9, enumerate_words, a, length, _counting_walks(tally))
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
@given(pair=zero_one_flip_pairs(), length=st.integers(1, 8))
def test_walks_equal_the_depth_first_oracle(pair, length):
    assert blocks(pair.A, length) == dfs_blocks(pair.A, length)
    assert enumerate_periodic(pair.A, length) == dfs_periodic(pair.A, length)


@settings(derandomize=True, database=None, deadline=None)
@given(pair=zero_one_flip_pairs())
def test_counts_equal_the_filter_oracle(pair):
    for m in range(1, 8):
        points = dfs_periodic(pair.A, m)
        flipped = {x: flip_point(pair, x) for x in points}
        for n in range(-m, 2 * m + 1):
            assert count_pmn_bruteforce(pair, m, n) == count_fixed(points, flipped.get, n)


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
