"""The topological Markov chain of a zero-one matrix.

Admissible blocks, word utilities, periodic-point enumeration, and the
brute-force counter of points fixed jointly by a shift power and a shifted
flip.  The enumerations here are deliberately naive: every word and every
periodic point is built, because they are the oracle the closed-form
counting formulas are tested against.  One walker serves them all: it grows
every path one symbol at a time as a string of symbol indices.  The counter
tests each point against the shifted flips by matching rotations of strings.
The walk's work is counted in advance by vector iteration and refused above
``WALK_BUDGET``.  The essential symbols, those on bi-infinite paths, are what
is left after pruning sinks and sources, in time linear in the transitions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import BudgetError, MatrixShapeError
from .flips import FlipPair, Word
from .matrices import IntMatrix

WALK_BUDGET = 1_000_000  # most walk prefixes one enumeration may visit


# -- word utilities -----------------------------------------------------------

def word_center(w: Word) -> str:
    if len(w) % 2 == 0:
        raise ValueError("center symbol needs a word of odd length")
    return w[len(w) // 2]


# -- graph structure ----------------------------------------------------------

def _check_graph_matrix(a: IntMatrix) -> None:
    if not a.is_square or a.row_labels != a.col_labels:
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

    ``_walks`` builds every prefix of every path, and the paths of k symbols
    from the start vector v number v*A^(k-1)*1, so the total is summed by
    vector iteration and the error comes before any walking.
    """
    v, total = starts, 0
    for _ in range(length):
        total += sum(v)
        if total > WALK_BUDGET:
            raise BudgetError(f"words of length {length} need more than "
                              f"{WALK_BUDGET} walk prefixes")
        v = _step(succ, v)


def _paths(a: IntMatrix, starts: list[int], length: int) -> tuple[list[str], list[str]]:
    """The successor strings of ``a`` and its paths of ``length`` symbols from
    the symbols flagged in ``starts``; refused above the budget before walking."""
    succ = a._support
    _check_walk_budget(succ, starts, length)
    succ = ["".join(map(chr, js)) for js in succ]
    return succ, _walks(succ, "".join(chr(i) for i, s in enumerate(starts) if s), length)


def _labelled(a: IntMatrix, paths) -> tuple[Word, ...]:
    """Index strings as words of the labels of ``a``."""
    label = dict(zip(map(chr, range(a.nrows)), a.row_labels))
    return tuple(tuple(map(label.__getitem__, w)) for w in paths)


@lru_cache(maxsize=256)
def blocks(a: IntMatrix, n: int) -> tuple[Word, ...]:
    """All length-n words occurring in some bi-infinite point, in canonical order.

    Canonical order is lexicographic by symbol position in the alphabet, so
    matrices built over block alphabets are reproducible bit for bit.
    """
    past, future = _essential_flags(a)
    if n < 1:
        raise ValueError("block length must be >= 1")
    _, paths = _paths(a, [int(p) for p in past], n)
    return _labelled(a, [w for w in paths if future[ord(w[-1])]])


def block_count(a: IntMatrix, n: int) -> int:
    """len(blocks(a, n)), by vector iteration and without walking."""
    past, future = _essential_flags(a)
    succ, v = a._support, [int(p) for p in past]
    for _ in range(n - 1):
        v = _step(succ, v)
    return sum(x for x, f in zip(v, future) if f)


# -- periodic points ----------------------------------------------------------

def _periodic_words(a: IntMatrix, m: int) -> list[str]:
    """The period-m points of ``a`` as index strings, in lex order."""
    succ, paths = _paths(a, [1] * a.nrows, m)
    return [w for w in paths if w[0] in succ[ord(w[-1])]]


@lru_cache(maxsize=64)
def enumerate_periodic(a: IntMatrix, m: int) -> tuple[Word, ...]:
    """All points fixed by the m-th shift power, as cyclic words, in lex order.

    The count always equals trace(A^m).  Enumeration is exponential, so a
    period whose walk exceeds ``WALK_BUDGET`` prefixes is refused.
    """
    _check_graph_matrix(a)
    if m < 1:
        raise ValueError("period must be >= 1")
    return _labelled(a, _periodic_words(a, m))


@lru_cache(maxsize=64)
def _pmn_table(pair: FlipPair, m: int) -> tuple[int, ...]:
    """The counts of ``count_pmn_bruteforce`` at period m for n = 0..m-1.

    For a point s let f_i = tau(s_(-i)), so f = tau(s_0) tau(s_(m-1)) ... tau(s_1).
    The n-shifted flip fixes s iff s_i = f_(i+n) for all i, that is, iff s is
    f rotated left by n.  The first such n is k = (f+f).find(s), and the others
    are k plus the multiples of the rotation period of s.
    """
    tau = pair.tau_index
    counts = [0] * m
    for s in _periodic_words(pair.A, m):
        f = (s[0] + s[:0:-1]).translate(tau)
        k = (f + f).find(s)
        if k >= 0:
            for j in range(k, m, (s + s).find(s, 1)):
                counts[j] += 1
    return tuple(counts)


def count_pmn_bruteforce(pair: FlipPair, m: int, n: int) -> int:
    """Count points fixed by the m-th shift power and the n-shifted flip.

    Every period-m point is enumerated and matched against the rotations of
    its flipped word (``_pmn_table``), so this is an oracle independent of the
    closed-form counts.  ``tests/points.count_fixed`` checks it coordinate by
    coordinate, x_i == tau(x_(-i-n)).  One pass over the points of period m
    gives the counts for every n at once, and is cached; n is taken modulo m,
    so negative n is fine.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _pmn_table(pair, m)[n % m]
