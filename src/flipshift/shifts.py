"""The topological Markov chain of a zero-one matrix.

Admissible blocks, word utilities, periodic-point enumeration, and the
brute-force counter of points fixed jointly by a shift power and a shifted
flip.  The enumerations here are deliberately naive: they are the oracle the
closed-form counting formulas are tested against.  Their work is counted in
advance by vector iteration and refused above ``WALK_BUDGET``.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

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


@lru_cache(maxsize=256)
def _essential_flags(a: IntMatrix) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """(has infinite past, has infinite future) per symbol.

    A symbol has an infinite future iff it reaches a cycle, and an infinite
    past iff it is reachable from a cycle.
    """
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


def essential_symbols(a: IntMatrix) -> tuple[str, ...]:
    """Symbols lying on some bi-infinite path, in label order."""
    _check_graph_matrix(a)
    past, future = _essential_flags(a)
    return tuple(lab for i, lab in enumerate(a.row_labels) if past[i] and future[i])


def is_essential(a: IntMatrix) -> bool:
    return essential_symbols(a) == a.row_labels


def is_admissible(a: IntMatrix, w: Word) -> bool:
    """Every adjacent pair of the word is an allowed transition."""
    idx = {lab: i for i, lab in enumerate(a.row_labels)}
    try:
        ix = [idx[s] for s in w]
    except KeyError:
        return False
    return all(a.entries[i][j] == 1 for i, j in zip(ix, ix[1:]))


def _walks(succ: list[tuple[int, ...]], start: int, length: int):
    """Yield every path of ``length`` symbol indices from ``start``, in lex order.

    The walk is iterative, so word length is not bounded by the recursion
    limit.  The yielded list is reused between paths; copy what you keep.
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


def _successors(a: IntMatrix) -> list[tuple[int, ...]]:
    return [tuple(j for j, x in enumerate(row) if x == 1) for row in a.entries]


def _step(succ: list[tuple[int, ...]], v: list[int]) -> list[int]:
    """The row vector v*A, for the zero-one matrix A with successor lists succ."""
    out = [0] * len(v)
    for i, x in enumerate(v):
        if x:
            for j in succ[i]:
                out[j] += x
    return out


def _check_walk_budget(succ: list[tuple[int, ...]], starts: list[int],
                       length: int) -> None:
    """Refuse a walk to ``length`` symbols from ``starts`` above WALK_BUDGET prefixes.

    ``_walks`` visits every prefix of every path, and the paths of k symbols
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


@lru_cache(maxsize=256)
def blocks(a: IntMatrix, n: int) -> tuple[Word, ...]:
    """All length-n words occurring in some bi-infinite point, in canonical order.

    Canonical order is lexicographic by symbol position in the alphabet, so
    matrices built over block alphabets are reproducible bit for bit.
    """
    _check_graph_matrix(a)
    if n < 1:
        raise ValueError("block length must be >= 1")
    past, future = _essential_flags(a)
    if not (all(past) and all(future)):
        warnings.warn("matrix has stranded symbols; they contribute no blocks",
                      stacklevel=2)
    labels = a.row_labels
    succ = _successors(a)
    _check_walk_budget(succ, [int(p) for p in past], n)
    return tuple(tuple(labels[i] for i in path)
                 for start in range(a.nrows) if past[start]
                 for path in _walks(succ, start, n) if future[path[-1]])


# -- periodic points ----------------------------------------------------------

Point = Word  # a period-m point is stored as its cyclic word x_0..x_{m-1}


@lru_cache(maxsize=64)
def enumerate_periodic(a: IntMatrix, m: int) -> tuple[Point, ...]:
    """All points fixed by the m-th shift power, as cyclic words, in lex order.

    The count always equals trace(A^m).  Enumeration is exponential, so a
    period whose walk exceeds ``WALK_BUDGET`` prefixes is refused.
    """
    _check_graph_matrix(a)
    if m < 1:
        raise ValueError("period must be >= 1")
    labels = a.row_labels
    rows = a.entries
    succ = _successors(a)
    _check_walk_budget(succ, [1] * a.nrows, m)
    return tuple(tuple(labels[i] for i in path)
                 for start in range(a.nrows)
                 for path in _walks(succ, start, m) if rows[path[-1]][start] == 1)


def is_periodic_point(a: IntMatrix, x: Point) -> bool:
    m = len(x)
    if m == 0:
        return False
    idx = {lab: i for i, lab in enumerate(a.row_labels)}
    try:
        ix = [idx[s] for s in x]
    except KeyError:
        return False
    return all(a.entries[ix[i]][ix[(i + 1) % m]] == 1 for i in range(m))


def shift_point(x: Point, d: int) -> Point:
    """The d-th shift power applied to a cyclic word: result_i = x_(i+d)."""
    m = len(x)
    return tuple(x[(i + d) % m] for i in range(m))


def flip_point(pair: FlipPair, x: Point) -> Point:
    """The one-block flip applied to a cyclic word: result_i = tau(x_(-i))."""
    tau = pair.tau
    m = len(x)
    return tuple(tau[x[(-i) % m]] for i in range(m))


def count_pmn_bruteforce(pair: FlipPair, m: int, n: int) -> int:
    """Count points fixed by the m-th shift power and the n-shifted flip.

    Filters the full period-m enumeration by x_i == tau(x_(-i-n)); n is taken
    modulo m by the index arithmetic, so negative n is fine.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    tau = pair.tau
    count = 0
    for x in enumerate_periodic(pair.A, m):
        if all(tau[x[(-i - n) % m]] == x[i] for i in range(m)):
            count += 1
    return count
