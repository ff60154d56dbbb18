"""The topological Markov chain of a zero-one matrix.

Admissible blocks, periodic points, and the brute-force counter of points
fixed jointly by a shift power and a shifted flip.  The enumerations are
deliberately naive, every word and every point built, because they are the
oracle the closed-form counts are tested against.  Inside the package a word
is an index string, a ``str`` of ``chr(index)``; labels are spelled out only
at the boundary.  Two walks build the paths.  ``_index_blocks`` grows the
paths from the symbols with an infinite past one symbol at a time, in lex
order (``_walks``), and caches the blocks as index strings, which the
builders of ``constructions`` work on; ``blocks`` is its cached labelled
view, the same words as tuples of labels.  ``_CycleWalk`` grows the paths
from every symbol grouped by first and last symbol, a whole group at a time,
and its paths of m symbols that close are the period-m points:
``enumerate_periodic`` sorts those of a fresh walk, and the counter resumes
one walk per pair and tests each period against every shifted flip at once,
in whole-list passes.  A walk's work is counted in advance by vector
iteration and refused above ``WALK_BUDGET``.  The essential symbols, those on
bi-infinite paths, are what is left after pruning sinks and sources, in time
linear in the transitions.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import compress, repeat
from operator import add
from typing import Iterator, Sequence

from .errors import BudgetError, MatrixShapeError
from .flips import FlipPair, Word
from .matrices import IntMatrix, _Ones

WALK_BUDGET = 1_000_000  # most walk prefixes one enumeration may visit


# -- word utilities -----------------------------------------------------------

def word_center(w: Word) -> str:
    if len(w) % 2 == 0:
        raise ValueError("center symbol needs a word of odd length")
    return w[len(w) // 2]


# -- graph structure ----------------------------------------------------------

def _check_graph_matrix(a: IntMatrix) -> None:
    if a.row_labels != a.col_labels:
        raise MatrixShapeError("a shift needs a square matrix with one label list")
    if not a.is_zero_one:
        raise MatrixShapeError("a shift needs a zero-one matrix")


def _reaches_cycle(succ: Sequence[Sequence[int]],
                   pred: Sequence[Sequence[int]]) -> tuple[bool, ...]:
    """Per symbol, whether some walk along ``succ`` from it reaches a cycle.

    Sinks are pruned until none is left: a symbol whose successors have all
    been pruned is a sink in turn, and the symbols that survive are those with
    an infinite future.  Each edge is visited once, through ``pred``.
    """
    degree = [len(js) for js in succ]
    sinks = [i for i, d in enumerate(degree) if not d]
    alive = [True] * len(succ)
    while sinks:
        j = sinks.pop()
        alive[j] = False
        for i in pred[j]:
            degree[i] -= 1
            if not degree[i]:
                sinks.append(i)
    return tuple(alive)


@lru_cache(maxsize=256)
def _essential_flags(a: IntMatrix) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """(has infinite past, has infinite future) per symbol.

    A symbol has an infinite future iff it reaches a cycle, and an infinite
    past iff it is reachable from a cycle: the survivors of pruning sinks,
    and of pruning sources, which are the sinks of the reversed graph.  The
    matrix is checked here, so once per matrix for every caller.
    """
    _check_graph_matrix(a)
    succ = a._support
    pred: list[list[int]] = [[] for _ in succ]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    return _reaches_cycle(pred, succ), _reaches_cycle(succ, pred)


def essential_symbols(a: IntMatrix) -> tuple[str, ...]:
    """Symbols lying on some bi-infinite path, in label order."""
    past, future = _essential_flags(a)
    return tuple(lab for i, lab in enumerate(a.row_labels) if past[i] and future[i])


def is_essential(a: IntMatrix) -> bool:
    return essential_symbols(a) == a.row_labels


def _index_successors(succ: Sequence[Sequence[int]]) -> list[str]:
    """Per symbol, its successors as one index string, in index order."""
    return ["".join(map(chr, js)) for js in succ]


def _walks(succ: list[str], starts: str, length: int) -> list[str]:
    """Every path of ``length`` symbol indices from ``starts``, in lex order.

    A path is a ``str`` of ``chr(index)``, and ``succ[i]`` holds the successors
    of symbol i the same way, in index order.  All paths grow together, one
    length at a time, so the walk builds exactly the prefixes that
    ``_check_walk_budget`` counts.  Extending each path by its successors in
    index order keeps every level in lex order.
    """
    paths = list(starts)
    for _ in range(length - 1):
        paths = [w + c for w in paths for c in succ[ord(w[-1])]]
    return paths


def _step(succ: Sequence[tuple[int, ...]], v: list[int]) -> list[int]:
    """The row vector v*A, for the zero-one matrix A with successor lists succ."""
    out = [0] * len(v)
    for i, x in enumerate(v):
        if x:
            for j in succ[i]:
                out[j] += x
    return out


def _check_walk_budget(succ: Sequence[tuple[int, ...]], starts: list[int],
                       length: int) -> None:
    """Refuse a walk to ``length`` symbols from ``starts`` above WALK_BUDGET prefixes.

    ``_walks`` for blocks starts at the symbols with an infinite past, and
    ``_CycleWalk`` for periodic points at every symbol, counted from its first
    level even when resumed.  Each builds every prefix of every path once; the
    paths of k symbols from the start vector v number v*A^(k-1)*1, summed by
    vector iteration, so the error comes before any walking.
    """
    v, total = starts, 0
    for _ in range(length):
        total += sum(v)
        if total > WALK_BUDGET:
            raise BudgetError(f"words of length {length} need more than "
                              f"{WALK_BUDGET} walk prefixes")
        v = _step(succ, v)


def _labelled(a: IntMatrix, paths) -> tuple[Word, ...]:
    """Index strings as words of the labels of ``a``."""
    label = dict(zip(map(chr, range(a.nrows)), a.row_labels))
    return tuple(tuple(map(label.__getitem__, w)) for w in paths)


@lru_cache(maxsize=256)
def _index_blocks(a: IntMatrix, n: int) -> tuple[str, ...]:
    """The length-n words on bi-infinite points as index strings, in lex order.

    These are the words the builders work on; ``blocks`` is their labelled view.
    """
    past, future = _essential_flags(a)
    if n < 1:
        raise ValueError("block length must be >= 1")
    _check_walk_budget(a._support, list(map(int, past)), n)
    starts = "".join(compress(map(chr, range(a.nrows)), past))
    paths = _walks(_index_successors(a._support), starts, n)
    if all(future):
        return tuple(paths)
    return tuple(w for w in paths if future[ord(w[-1])])


@lru_cache(maxsize=256)
def blocks(a: IntMatrix, n: int) -> tuple[Word, ...]:
    """All length-n words occurring in some bi-infinite point, in canonical order.

    Canonical order is lexicographic by symbol position in the alphabet, so
    matrices built over block alphabets are reproducible bit for bit.  The
    words are those of ``_index_blocks``, spelled in the labels of ``a``.
    """
    return _labelled(a, _index_blocks(a, n))


def block_count(a: IntMatrix, n: int) -> int:
    """len(blocks(a, n)), by vector iteration and without walking."""
    past, future = _essential_flags(a)
    succ, v = a._support, [int(p) for p in past]
    for _ in range(n - 1):
        v = _step(succ, v)
    return sum(x for x, f in zip(v, future) if f)


# -- periodic points ----------------------------------------------------------

def _extend(ends: list[dict[str, list[str]]], succ: list[str]) -> list[dict[str, list[str]]]:
    """The paths one symbol longer than those of ``ends``, grouped the same way.

    ``ends[s]`` maps each last symbol j to the paths from symbol s to j, and
    ``succ[i]`` holds the successors of i, all as strings of ``chr(index)``.
    The paths from s to j grow from the group of each predecessor i of j,
    a whole group per ``map``.
    """
    grown = []
    for groups in ends:
        out: dict[str, list[str]] = {}
        for i, paths in groups.items():
            for j in succ[ord(i)]:
                out.setdefault(j, []).extend(map(add, paths, repeat(j)))
        grown.append(out)
    return grown


class _CycleWalk:
    """The paths from every symbol, a level at a time: the one source of periodic
    points.  ``ends[s]`` maps each last symbol j to the paths of ``length``
    symbols from s to j, as ``_extend`` takes them; those whose last symbol
    leads back to s close, and are the points of period ``length``."""

    def __init__(self, succ: _Ones):
        self.ones, self.succ = succ, _index_successors(succ)
        self.ends: list[dict[str, list[str]]] = []
        self.length = 0

    def closed(self) -> list[str]:
        """The paths of the current level that close, by first symbol."""
        words: list[str] = []
        for s, groups in zip(map(chr, range(len(self.succ))), self.ends):
            for j, paths in groups.items():
                if s in self.succ[ord(j)]:
                    words += paths
        return words

    def levels(self, length: int) -> Iterator[list[str]]:
        """Grow the walk to ``length`` symbols, yielding the closed paths of each
        new level; refused above ``WALK_BUDGET`` prefixes before it grows."""
        if length > self.length:
            _check_walk_budget(self.ones, [1] * len(self.ones), length)
        while self.length < length:
            self.ends = _extend(self.ends, self.succ) if self.length else \
                [{c: [c]} for c in map(chr, range(len(self.succ)))]
            self.length += 1
            yield self.closed()


@lru_cache(maxsize=64)
def enumerate_periodic(a: IntMatrix, m: int) -> tuple[Word, ...]:
    """All points fixed by the m-th shift power, as cyclic words, in lex order.

    The count always equals trace(A^m).  Enumeration is exponential, so a
    period whose walk exceeds ``WALK_BUDGET`` prefixes is refused.
    """
    _check_graph_matrix(a)
    if m < 1:
        raise ValueError("period must be >= 1")
    *_, words = _CycleWalk(a._support).levels(m)
    return _labelled(a, sorted(words))


# -- the brute-force flip counts ----------------------------------------------

def _flip_table(words: list[str], tau: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The counts at period m for n = 0..m-1, over the period-m points ``words``.

    For a point s let f_i = tau(s_(-i)), so f = tau(s_0) tau(s_(m-1)) ... tau(s_1).
    The n-shifted flip fixes s iff s_i = f_(i+n) for all i, that is, iff s is
    f rotated left by n.  The reversed word r = tau(s_(m-1)) ... tau(s_0) is f
    rotated left by m - 1, so for k = (r+r).find(s) the first such n is k + 1
    modulo the rotation period p of s, and the others follow every p.  Each
    step runs over the whole list: all words are flipped in one reversed
    string, and the hits are tallied by (k, p).
    """
    counts = [0] * m
    if not words:
        return tuple(counts)
    sep = chr(len(tau))  # no symbol index, so translate leaves it alone
    flips = sep.join(words)[::-1].translate(tau).split(sep)
    flips.reverse()
    ks = list(map(str.find, map(add, flips, flips), words))
    hit = list(map((-1).__lt__, ks))
    hits = list(compress(words, hit))
    periods = map(str.find, map(add, hits, hits), hits, repeat(1))
    for (k, p), c in Counter(zip(compress(ks, hit), periods)).items():
        for n in range((k + 1) % p, m, p):
            counts[n] += c
    return tuple(counts)


@lru_cache(maxsize=4)  # few: each walk keeps its longest paths, up to the budget
def _count_walk(pair: FlipPair) -> tuple[_CycleWalk, list[tuple[int, ...]]]:
    return _CycleWalk(pair._succ), []  # the walk and its counts, period by period


def count_pmn_bruteforce(pair: FlipPair, m: int, n: int) -> int:
    """Count points fixed by the m-th shift power and the n-shifted flip.

    Every period-m point is built and tested against every shifted flip
    (``_flip_table``), so this is an oracle independent of the closed-form
    counts.  ``tests/points.count_fixed`` checks it coordinate by coordinate,
    x_i == tau(x_(-i-n)).  One test of the points of period m gives the
    counts for every n at once; n is taken modulo m, so negative n is fine.
    The points come from one walk per pair, kept and extended as longer
    periods are asked for.  A period whose walk exceeds ``WALK_BUDGET``
    prefixes is refused before the walk is extended.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    walk, tables = _count_walk(pair)
    for words in walk.levels(m):
        tables.append(_flip_table(words, pair.tau_index, walk.length))
    return tables[m - 1][n % m]
