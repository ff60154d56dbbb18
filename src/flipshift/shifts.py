"""The topological Markov chain of a zero-one matrix.

Admissible blocks, periodic points, and the brute-force counter of points
fixed jointly by a shift power and a shifted flip.  The enumerations are
deliberately naive, every word and every point built, because they are the
oracle the closed-form counts are tested against.  Inside the package a word
is an index string, a ``str`` of ``chr(index)``; labels are spelled out only
at the boundary.  Both enumerate paths on the essential graph, the symbols on
bi-infinite paths (what pruning sinks and sources leaves, in time linear in
the transitions): a block is a word on it, and a periodic point lies on a
cycle.  ``_BlockWalk``, one per matrix and cached, holds that graph's one
state, its symbols, successor strings and path count per length, and grows
the blocks a width at a time in lex order, each from the last, keeping every
width with where each block's children start and where its suffix lies:
``_index_blocks`` reads a width for ``constructions``, and ``blocks`` is its
cached labelled view.  ``_CycleWalk`` reads the same state and keeps its own
levels, the paths grouped by first and last symbol and grown a group at a
time; those of m symbols that close are the period-m points.
``enumerate_periodic`` sorts those of a fresh walk, and the counter resumes
one walk per pair and tests each period against every shifted flip at once.
Every walk asks the block walk's ``charge`` first, which counts each level
ahead by vector iteration, one step per new length, and refuses a walk
before it grows past ``WALK_BUDGET`` characters, a level of k symbols
costing k * max(1, its paths); it counts no level past the first over it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from operator import add
from typing import Iterator, Sequence

from .errors import BudgetError, MatrixShapeError
from .flips import FlipPair, Word
from .matrices import IntMatrix

WALK_BUDGET = 1_000_000  # most characters one walk may hold over all its levels


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


def _essential_flags(a: IntMatrix) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """(has infinite past, has infinite future) per symbol.

    A symbol has an infinite future iff it reaches a cycle, and an infinite
    past iff it is reachable from a cycle: the survivors of pruning sinks,
    and of pruning sources, which are the sinks of the reversed graph.  The
    matrix is checked here, so once per matrix for every caller: only the
    cached ``_BlockWalk`` calls this.
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
    return tuple(a.row_labels[ord(c)] for c in _block_walk(a).words[0])


def is_essential(a: IntMatrix) -> bool:
    return essential_symbols(a) == a.row_labels


def _step(succ: Sequence[tuple[int, ...]], v: list[int]) -> list[int]:
    """The row vector v*A, for the zero-one matrix A with successor lists succ."""
    out = [0] * len(v)
    for i, x in enumerate(v):
        if x:
            for j in succ[i]:
                out[j] += x
    return out


def _labelled(a: IntMatrix, paths) -> tuple[Word, ...]:
    """Index strings as words of the labels of ``a``."""
    label = dict(zip(map(chr, range(a.nrows)), a.row_labels))
    return tuple(tuple(map(label.__getitem__, w)) for w in paths)


class _BlockWalk:
    """The blocks of a matrix, one width at a time, each width grown from the last.

    A word is a block exactly when all its symbols are essential, so the walk
    runs on the essential symbols alone and every word it makes is a block.
    ``words[k - 1]`` holds the k-blocks in lex order.  A block u grows into u + c
    for the successors c of its last symbol in index order, so its children are
    contiguous among the (k+1)-blocks: those of ``words[k - 1][i]`` lie from
    ``first[k - 1][i]`` to ``first[k - 1][i + 1]``.  ``suffix[k]`` gives, for
    each (k+1)-block w, the position of w[1:] among the k-blocks.  The
    (k+1)-blocks that start with symbol s are s + v for the k-blocks v that
    start with a successor of s, in order, and the k-blocks that start with one
    symbol are contiguous, so ``suffix[k]`` is those runs laid end to end, one
    run per transition, with no word compared.
    Its essential symbols ``words[0]``, their successor strings ``succ`` and its
    path counts ``counts`` are the one state of the essential graph that every
    walk reads, and ``charge`` its one budget.  The paths of k symbols number
    v*A^(k-1)*1, v the essential symbols, and are counted ahead of any level by
    vector iteration, one ``_step`` per new length.  A level of k symbols costs
    k * max(1, its paths) characters; ``chars[k - 1]`` is the cost of the levels
    of at most k symbols, which a walk holds once it reaches k.
    """

    def __init__(self, a: IntMatrix):
        past, future = _essential_flags(a)
        alive = list(map(bool.__and__, past, future))
        ones = tuple(tuple(compress(js, map(alive.__getitem__, js))) if ok else ()
                     for js, ok in zip(a._support, alive))
        symbols = "".join(compress(map(chr, range(a.nrows)), alive))
        self._ones, self._v = ones, list(map(int, alive))
        self.counts = [sum(alive)]
        self.chars = [max(1, self.counts[0])]
        self.succ = {chr(i): "".join(map(chr, js)) for i, js in enumerate(ones)}
        self.words: list[tuple[str, ...]] = [tuple(symbols)]
        self.first: list[list[int]] = []
        self.suffix: list[tuple[int, ...]] = [()]  # a 1-block has no suffix to place
        self._lasts = symbols  # the last symbol of each word of the widest level
        # where the words of the widest level with each first symbol start
        self._heads = list(range(len(symbols) + 1))
        rank = list(accumulate(alive, initial=0))  # an essential symbol's position among them
        # per transition i -> j, in lex order, the position of j: the runs of suffix
        self._targets = [rank[j] for i in compress(range(a.nrows), alive) for j in ones[i]]

    def charge(self, length: int) -> None:
        """Refuse a walk to ``length`` symbols whose levels hold over WALK_BUDGET
        characters, counting no further than the first level past it."""
        while len(self.chars) < length and self.chars[-1] <= WALK_BUDGET:
            self._v = _step(self._ones, self._v)
            self.counts.append(sum(self._v))
            self.chars.append(self.chars[-1] + len(self.counts) * max(1, self.counts[-1]))
        if self.chars[min(length, len(self.chars)) - 1] > WALK_BUDGET:
            raise BudgetError(f"words of length {length} need more than "
                              f"{WALK_BUDGET} walk characters")

    def level(self, n: int) -> tuple[str, ...]:
        """The n-blocks, grown to width n if need be; refused above ``WALK_BUDGET``
        characters before any width is grown."""
        self.charge(n)
        while len(self.words) < n:
            self._extend()
        return self.words[n - 1]

    def _extend(self) -> None:
        """Grow the blocks one symbol wider, with their children and suffixes."""
        tails = list(map(self.succ.__getitem__, self._lasts))
        first = list(accumulate(map(len, tails), initial=0))
        heads, targets = self._heads, self._targets
        self.words.append(tuple([u + c for u, cs in zip(self.words[-1], tails) for c in cs]))
        self.first.append(first)
        self.suffix.append(tuple(chain.from_iterable(map(
            range, map(heads.__getitem__, targets), map(heads[1:].__getitem__, targets)))))
        self._lasts, self._heads = "".join(tails), list(map(first.__getitem__, heads))


@lru_cache(maxsize=64)  # each walk keeps all its widths, up to the budget
def _block_walk(a: IntMatrix) -> _BlockWalk:
    return _BlockWalk(a)


def _index_blocks(a: IntMatrix, n: int) -> tuple[str, ...]:
    """The length-n words on bi-infinite points as index strings, in lex order.

    These are the words the builders work on; ``blocks`` is their labelled
    view.  They are level n of the matrix's one cached ``_BlockWalk``.
    """
    walk = _block_walk(a)
    if n < 1:
        raise ValueError("block length must be >= 1")
    return walk.level(n)


@lru_cache(maxsize=256)
def blocks(a: IntMatrix, n: int) -> tuple[Word, ...]:
    """All length-n words occurring in some bi-infinite point, in canonical order.

    Canonical order is lexicographic by symbol position in the alphabet, so
    matrices built over block alphabets are reproducible bit for bit.  The
    words are those of ``_index_blocks``, spelled in the labels of ``a``.
    """
    return _labelled(a, _index_blocks(a, n))


# -- periodic points ----------------------------------------------------------

def _extend(ends: list[dict[str, list[str]]], succ: dict[str, str]
            ) -> list[dict[str, list[str]]]:
    """The paths one symbol longer than those of ``ends``, grouped the same way.

    ``ends[s]`` maps each last symbol j to the paths from start s to j, and
    ``succ[i]`` holds the successors of i, all as strings of ``chr(index)``.
    The paths from s to j grow from the group of each predecessor i of j,
    a whole group per ``map``.
    """
    grown = []
    for groups in ends:
        out: dict[str, list[str]] = {}
        for i, paths in groups.items():
            for j in succ[i]:
                out.setdefault(j, []).extend(map(add, paths, repeat(j)))
        grown.append(out)
    return grown


class _CycleWalk:
    """The paths from the essential symbols, a level at a time: the one source of
    periodic points.  It reads a ``_BlockWalk``'s state, asks its ``charge``
    and keeps its own levels: ``ends[s]`` maps each last symbol j to the paths
    of ``length`` symbols from start s to j, as ``_extend`` takes them; those
    whose last symbol leads back to s close, and are the points of period
    ``length``."""

    def __init__(self, walk: _BlockWalk):
        self.starts, self.succ, self.charge = walk.words[0], walk.succ, walk.charge
        self.ends: list[dict[str, list[str]]] = []
        self.length = 0

    def closed(self) -> list[str]:
        """The paths of the current level that close, by first symbol."""
        words: list[str] = []
        for s, groups in zip(self.starts, self.ends):
            for j, paths in groups.items():
                if s in self.succ[j]:
                    words += paths
        return words

    def levels(self, length: int) -> Iterator[list[str]]:
        """Grow the walk to ``length`` symbols, yielding the closed paths of each
        new level; refused above ``WALK_BUDGET`` characters before it grows."""
        self.charge(length)
        while self.length < length:
            self.ends = _extend(self.ends, self.succ) if self.length else \
                [{c: [c]} for c in self.starts]
            self.length += 1
            yield self.closed()


@lru_cache(maxsize=64)
def enumerate_periodic(a: IntMatrix, m: int) -> tuple[Word, ...]:
    """All points fixed by the m-th shift power, as cyclic words, in lex order.

    The count always equals trace(A^m).  A fresh ``_CycleWalk`` on the cached
    block walk builds them; enumeration is exponential, so a period whose walk
    exceeds ``WALK_BUDGET`` characters is refused.
    """
    walk = _block_walk(a)
    if m < 1:
        raise ValueError("period must be >= 1")
    *_, words = _CycleWalk(walk).levels(m)
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
    return _CycleWalk(_block_walk(pair.A)), []  # the walk and its counts, period by period


def count_pmn_bruteforce(pair: FlipPair, m: int, n: int) -> int:
    """Count points fixed by the m-th shift power and the n-shifted flip.

    Every period-m point is built and tested against every shifted flip
    (``_flip_table``), so this is an oracle independent of the closed-form
    counts.  ``tests/points.count_fixed`` checks it coordinate by coordinate,
    x_i == tau(x_(-i-n)).  One test of the points of period m gives the
    counts for every n at once; n is taken modulo m, so negative n is fine.
    The points come from one cycle walk per pair on its matrix's block walk,
    kept and extended as longer periods are asked for.  A period whose walk
    exceeds ``WALK_BUDGET`` characters is refused before the walk is extended.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    walk, tables = _count_walk(pair)
    for words in walk.levels(m):
        tables.append(_flip_table(words, pair.tau_index, walk.length))
    return tables[m - 1][n % m]
