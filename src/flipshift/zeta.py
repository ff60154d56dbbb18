"""Closed-form periodic-point counts and zeta functions for flip pairs.

The three bilinear-form counts, the generating function packaging them, the
classical zeta series of the shift alone, and the zeta series of the full
shift-plus-flip action.  The counting formulas are fast; the brute-force
oracle in ``shifts`` exists to test them.  Both zetas see the shift only
through its characteristic polynomial: the Artin-Mazur zeta is
1/det(I - tA), and the traces tr(A^n) in the Lind zeta follow from Newton's
identities, so no matrix power is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import higher_block
from .flips import FlipPair
from .matrices import IntMatrix, char_poly
from .report import Report
from .series import TruncatedSeries, series_add, series_exp
from .shifts import _step, count_pmn_bruteforce


@dataclass(frozen=True)
class FlipCountTriple:
    """Counts (p_{2m-1,0}, p_{2m,0}, p_{2m,1}) for one value of m."""

    m: int
    p_odd: int
    p_even0: int
    p_even1: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p_odd, self.p_even0, self.p_even1)


def _flip_count_triples(pair: FlipPair, m_max: int) -> list[FlipCountTriple]:
    """The triples for m = 1..m_max from one pass of vector iteration.

    With u_k = dJ^T A^k and w_k = dJA^T A^k as row vectors, the m-th triple is
    (u_(m-1) . dAJ, u_m . dJ, w_(m-1) . dAJ).  The diagonals are read through
    tau: dJ(a) = [tau a == a], dAJ(a) = A(a, tau a), dJA(a) = A(tau a, a).
    """
    tau, succ = pair.tau_index, pair._succ
    n = pair.size
    d_j = [1 if tau[i] == i else 0 for i in range(n)]
    d_aj = [int(tau[i] in succ[i]) for i in range(n)]
    d_ja = [int(i in succ[tau[i]]) for i in range(n)]

    def dot(v: list[int], d: list[int]) -> int:
        return sum(x for x, y in zip(v, d) if y)

    triples = []
    u, w = d_j, d_ja
    for m in range(1, m_max + 1):
        u_next = _step(succ, u)
        triples.append(FlipCountTriple(m=m, p_odd=dot(u, d_aj),
                                       p_even0=dot(u_next, d_j),
                                       p_even1=dot(w, d_aj)))
        u, w = u_next, _step(succ, w)
    return triples


def p_flip_counts(pair: FlipPair, m: int) -> FlipCountTriple:
    """The three flip-fixed counts for period block m, via bilinear forms.

    p_{2m-1,0} = dJ^T A^(m-1) dAJ,  p_{2m,0} = dJ^T A^m dJ,
    p_{2m,1}   = dJA^T A^(m-1) dAJ, where dM is the diagonal of M.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _flip_count_triples(pair, m)[-1]


def generating_function(pair: FlipPair, order: int) -> TruncatedSeries:
    """G(t) = sum_m [ p_{2m-1,0} t^(2m-1) + (p_{2m,0}+p_{2m,1})/2 t^(2m) ]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [Fraction(0)] * (order + 1)
    for triple in _flip_count_triples(pair, (order + 1) // 2):
        m = triple.m
        coeffs[2 * m - 1] = Fraction(triple.p_odd)
        if 2 * m <= order:
            coeffs[2 * m] = Fraction(triple.p_even0 + triple.p_even1, 2)
    return TruncatedSeries(order, tuple(coeffs))


def _det_one_minus_ta(a: IntMatrix) -> list[int]:
    """Coefficients of det(I - tA) in ascending degree: the reversed char_poly."""
    return list(reversed(char_poly(a).coeffs))


def _traces_of_powers(q: list[int], count: int) -> list[int]:
    """tr(A^k) for k = 0..count from q = det(I - tA), by Newton's identities.

    Taking -t d/dt log of q gives sum_k tr(A^k) t^k = -t q'/q, so
    tr(A^k) = -k q_k - sum_{j=1..k-1} q_j tr(A^(k-j)), with q_j = 0 past deg q.
    """
    tr = [len(q) - 1] + [0] * count
    for k in range(1, count + 1):
        acc = -k * q[k] if k < len(q) else 0
        for j in range(1, min(k, len(q))):
            if q[j]:
                acc -= q[j] * tr[k - j]
        tr[k] = acc
    return tr


def artin_mazur_zeta(a: IntMatrix, order: int) -> TruncatedSeries:
    """exp( sum_n trace(A^n)/n t^n ), truncated.

    That is 1/det(I - tA) (Lind & Marcus, *An Introduction to Symbolic
    Dynamics and Coding*, 1995, section 6.4), so the coefficients are
    integers and come from the series inverse of the reversed
    characteristic polynomial: z_m = -sum_{k=1..m} q_k z_(m-k).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    q = _det_one_minus_ta(a)
    z = [1]
    for m in range(1, order + 1):
        z.append(-sum(q[k] * z[m - k] for k in range(1, min(m + 1, len(q))) if q[k]))
    return TruncatedSeries(order, tuple(Fraction(x) for x in z))


def lind_zeta(pair: FlipPair, order: int) -> TruncatedSeries:
    """Zeta series of the shift-plus-flip action.

    Computed as exp( (1/2) sum_n p_n t^(2n)/n + G(t) ), which is the half
    power of the shift zeta at t^2 times exp(G) without ever taking a square
    root: halving the inner counting sum is exact.  The counts p_n = tr(A^n)
    come from Newton's identities on the characteristic polynomial.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    tr = _traces_of_powers(_det_one_minus_ta(pair.A), order // 2)
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(1, order // 2 + 1):
        coeffs[2 * n] = Fraction(tr[n], 2 * n)
    half_inner = TruncatedSeries(order, tuple(coeffs))
    return series_exp(series_add(half_inner, generating_function(pair, order)))


def verify_prop31(pair: FlipPair, m_max: int) -> Report:
    """Check the three count identities relating a flip to its shift-composed flip.

    The composed flip is built independently of the brute-force counter: on
    the 2-block pair of ``higher_block(pair, 1)`` the one-block flip is
    conjugate to the once-shifted flip of the original (the odd-lag statement
    of its splitting chain).  So the closed-form triples of that pair must
    equal the brute-force counts of the original with the index n moved by
    one; only the parity of n matters for even periods.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    composed, _ = higher_block(pair, 1)
    report = Report(title="shift-composed flip count identities")
    for triple in _flip_count_triples(composed, m_max):
        m = triple.m
        lhs = count_pmn_bruteforce(pair, 2 * m - 1, 0)
        report.add(f"p({2 * m - 1},0) == p({2 * m - 1},0 of composed)",
                   lhs == triple.p_odd, f"{lhs} vs {triple.p_odd}")
        lhs = count_pmn_bruteforce(pair, 2 * m, 0)
        report.add(f"p({2 * m},0) == p({2 * m},1 of composed)",
                   lhs == triple.p_even1, f"{lhs} vs {triple.p_even1}")
        lhs = count_pmn_bruteforce(pair, 2 * m, 1)
        report.add(f"p({2 * m},1) == p({2 * m},0 of composed)",
                   lhs == triple.p_even0, f"{lhs} vs {triple.p_even0}")
    return report
