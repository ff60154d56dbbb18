"""Seeded random flip-pair corpus shared by the property and acceptance tests.

The generator draws a random symbol involution, fills the transition matrix
orbit by orbit under the induced pair symmetry (so the flip-pair axioms hold
by construction), restricts to the symbols on bi-infinite paths, and rejects
instances whose period-10 point count would make the brute-force oracle slow.
Everything is a pure function of the seed.
"""

from __future__ import annotations

import random

from hypothesis import assume, strategies as st

from flipshift import FlipPair, IntMatrix
from flipshift.matrices import mat_pow, trace
from flipshift.shifts import essential_symbols

DEFAULT_SEED = 20250808
TRACE10_CAP = 12000


def random_involution(rng: random.Random, labels: tuple[str, ...]) -> dict[str, str]:
    pool = list(labels)
    rng.shuffle(pool)
    tau: dict[str, str] = {}
    while pool:
        a = pool.pop()
        if pool and rng.random() < 0.6:
            b = pool.pop()
            tau[a] = b
            tau[b] = a
        else:
            tau[a] = a
    return tau


def random_flip_pair(rng: random.Random, max_size: int = 6,
                     density: float = 0.45) -> FlipPair:
    while True:
        size = rng.randint(1, max_size)
        labels = tuple(str(i + 1) for i in range(size))
        tau = random_involution(rng, labels)
        idx = {a: i for i, a in enumerate(labels)}
        rows = [[None] * size for _ in range(size)]
        for a in labels:
            for b in labels:
                i, j = idx[a], idx[b]
                if rows[i][j] is not None:
                    continue
                bit = 1 if rng.random() < density else 0
                rows[i][j] = bit
                rows[idx[tau[b]]][idx[tau[a]]] = bit
        a_mat = IntMatrix.square(labels, rows)
        ess = essential_symbols(a_mat)
        if not ess:
            continue
        # the pair symmetry swaps pasts and futures, so the essential part
        # is closed under the involution
        assert all(tau[s] in ess for s in ess)
        a_mat = IntMatrix.square(ess, [[rows[idx[a]][idx[b]] for b in ess] for a in ess])
        j_rows = [[1 if tau[a] == b else 0 for b in ess] for a in ess]
        j_mat = IntMatrix.square(ess, j_rows)
        pair = FlipPair(a_mat, j_mat)
        if trace(mat_pow(pair.A, 10)) > TRACE10_CAP:
            continue
        return pair


def corpus(seed: int = DEFAULT_SEED, count: int = 50, max_size: int = 6
           ) -> list[FlipPair]:
    rng = random.Random(seed)
    return [random_flip_pair(rng, max_size=max_size) for _ in range(count)]


@st.composite
def zero_one_flip_pairs(draw):
    """Flip pairs on 1-6 symbols, stranded symbols allowed.

    Full shifts (on at most 3 symbols) and diagonal matrices are drawn on
    purpose: a full shift has points of every rotation period, and a
    diagonal matrix has only constant points.
    """
    kind = draw(st.sampled_from(["random", "random", "full", "diagonal"]))
    n = draw(st.integers(1, 3 if kind == "full" else 6))
    order = draw(st.permutations(range(n)))
    tau = list(range(n))
    for k in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * k], order[2 * k + 1]
        tau[a], tau[b] = b, a
    rows = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if rows[a][b] is None:
                if kind == "full":
                    bit = 1
                elif kind == "diagonal":
                    bit = int(a == b)
                else:
                    bit = draw(st.integers(0, 1))
                rows[a][b] = rows[tau[b]][tau[a]] = bit
    labels = "abcdef"[:n]
    a_mat = IntMatrix.square(labels, rows)
    assume(trace(mat_pow(a_mat, 7)) <= 4_000)  # keeps the period-7 oracle quick
    j_rows = [[int(tau[a] == b) for b in range(n)] for a in range(n)]
    return FlipPair(a_mat, IntMatrix.square(labels, j_rows))


@st.composite
def integer_matrices(draw, square: bool = True):
    """Integer matrices with negative entries and zero rows.

    A drawn scale multiplies some entries by 2^e.  At e = 23,000, on at most
    three rows, the characteristic polynomial's bound passes the largest
    listed Mersenne prime, so its coefficients are merged over several.
    """
    e = draw(st.sampled_from([0, 0, 40, 23_000]))
    nr = draw(st.integers(0, 3 if e > 10_000 else 6))
    nc = nr if square else draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda x: (x << e) + 1))
    rows = [[0] * nc if draw(st.booleans()) and draw(st.booleans())
            else draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
    row_labels = [f"x{i}" for i in range(nr)]
    col_labels = row_labels if square else [f"y{j}" for j in range(nc)]
    return IntMatrix.rect(row_labels, col_labels, rows)


@st.composite
def amalgamable_matrices(draw):
    """Square integer matrices on 1-8 symbols whose rows and columns repeat.

    Entry (i, j) is base[r(i)][c(j)] for drawn class maps r and c, times a sign
    per column, so rows and columns repeat.  When c = r, two equal rows whose
    columns have opposite signs merge into a class whose column sum is 0.  Then
    some rows are zeroed and some entries moved by one step, which leaves rows
    that differ from their class in one entry, often with the same support.
    """
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    classes = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    r = draw(classes)
    c = r if draw(st.booleans()) else draw(classes)
    sign = draw(st.lists(st.sampled_from([1, 1, -1]), min_size=n, max_size=n))
    base = draw(st.lists(st.lists(st.integers(-2, 3), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    rows = [[sign[j] * base[r[i]][c[j]] for j in range(n)] for i in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[i] = [0] * n
    for i, j, d in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.sampled_from([-1, 1])), max_size=2)):
        rows[i][j] += d
    return IntMatrix.square([f"x{i}" for i in range(n)], rows)
