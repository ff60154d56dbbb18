"""Periodic points and the maps on them, read coordinate by coordinate.

The package decides flip rules, block codes, conjugacies and decompositions
on admissible blocks; these are the same maps on periodic points, written
from their definitions, as the oracle for those decisions.  A period-m
point is its cyclic word x_0 .. x_(m-1), indices taken modulo m.
"""

from __future__ import annotations

Point = tuple[str, ...]


def is_periodic_point(a, x: Point) -> bool:
    """Every cyclically adjacent pair of x is a transition of ``a``."""
    idx = {lab: i for i, lab in enumerate(a.row_labels)}
    if not x or any(s not in idx for s in x):
        return False
    return all(a.entries[idx[x[i]]][idx[x[(i + 1) % len(x)]]] == 1 for i in range(len(x)))


def shift_point(x: Point, d: int) -> Point:
    """The d-th shift power: result_i = x_(i+d)."""
    return tuple(x[(i + d) % len(x)] for i in range(len(x)))


def flip_point(pair, x: Point) -> Point:
    """The one-block flip of a pair: result_i = tau(x_(-i))."""
    return tuple(pair.tau[x[-i % len(x)]] for i in range(len(x)))


def rule_point(spec, x: Point) -> Point:
    """The flip of a ``BlockFlipSpec``: result_i = rule(x_(-i-w) .. x_(-i+w))."""
    m, w = len(x), spec.window
    return tuple(spec.rule[tuple(x[(d - i) % m] for d in range(-w, w + 1))]
                 for i in range(m))


def code_point(code, x: Point) -> Point:
    """A ``BlockCode``: result_i = mapping(x_(i-r) .. x_(i+r))."""
    m, r = len(x), code.radius
    return tuple(code.mapping[tuple(x[(i + d) % m] for d in range(-r, r + 1))]
                 for i in range(m))


def gamma_images(cert, a1: str, a2: str) -> list[str]:
    """Every target symbol b with R(a1, b) == S(b, a2) == 1, read entry by entry."""
    return [b for b in cert.target.alphabet
            if cert.R.entry(a1, b) == 1 and cert.S.entry(b, a2) == 1]


def gamma_point(cert, x: Point) -> Point:
    """A splitting step's conjugacy: result_i is the one b joining x_i to x_(i+1)."""
    out = []
    for i in range(len(x)):
        [b] = gamma_images(cert, x[i], x[(i + 1) % len(x)])
        out.append(b)
    return tuple(out)


def decomposition_point(dec, x: Point) -> Point:
    """A ``ConjugacyDecomposition``: the recoding, each link's gamma, then the
    shift back by half the lag."""
    y = tuple(dec.source_recoding[s] for s in x)
    for link in dec.chain.links:
        y = gamma_point(link, y)
    return shift_point(y, -(dec.chain.lag // 2))


def count_fixed(points, phi, n: int) -> int:
    """How many points x have shift^n(phi(x)) == x: phi(x)_(i+n) == x_i at
    every i.  For the one-block flip that reads x_i == tau(x_(-i-n))."""
    count = 0
    for x in points:
        y, m = phi(x), len(x)
        count += all(y[(i + n) % m] == x[i] for i in range(m))
    return count
