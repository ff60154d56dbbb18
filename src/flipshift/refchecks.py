"""Run the bundled reference examples and compare against expected values.

Two fixture families ship with the package: a four-symbol pair whose two
flips (order-reversing and identity) are lag-2 equivalent yet have different
generating functions, and three seven-symbol pairs sharing one characteristic
polynomial and all counting data while differing in nilpotent structure.
Every row of the report states what was computed and what was expected.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import fixtures
from .equivalence import he_search, sfe_bounded_search, sfe_check
from .errors import CertificateError, FlipPairError
from .matrices import IntPolynomial, char_poly, mat_pow, rank_profile
from .report import Report
from .series import TruncatedSeries
from .shifts import count_pmn_bruteforce
from .zeta import artin_mazur_zeta, generating_function, lind_zeta, p_flip_counts

REFERENCE_ORDER = 12  # series order the reference rows compare at


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def expected_char_poly() -> IntPolynomial:
    """t * (t-1)^4 * (t^2 - 3t + 1), expanded by convolution."""
    poly = [0, 1]
    for _ in range(4):
        poly = _poly_mul(poly, [-1, 1])
    poly = _poly_mul(poly, [1, -3, 1])
    return IntPolynomial.from_coeffs(poly)


def _power_sums(lo: int, hi: int) -> dict[int, int]:
    """Power sums of the roots of t^2 - 3t + 1 (sum 3, product 1)."""
    s = {0: 2, 1: 3}
    for k in range(1, hi):
        s[k + 1] = 3 * s[k] - s[k - 1]
    for k in range(0, lo, -1):
        s[k - 1] = 3 * s[k] - s[k + 1]
    return s


def reference_closed_form_triple(m: int) -> tuple[int, int, int]:
    """The seven-symbol examples' counts from their closed forms in the roots.

    Each count is (a*r^m + b*r^(m-1))/(11r - 4) summed over both roots r of
    t^2 - 3t + 1; rationalizing with (11L-4)(11M-4) = 5 and LM = 1 turns this
    into an integer combination of root power sums divided by 5.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    s = _power_sums(-1, m + 1)

    def pair_sum(a: int, b: int, e: int) -> int:
        num = 11 * a * s[e - 1] - 4 * a * s[e] + 11 * b * s[e - 2] - 4 * b * s[e - 1]
        val = Fraction(num, 5)
        if val.denominator != 1:
            raise ArithmeticError("closed form did not rationalize to an integer")
        return int(val)

    return (pair_sum(8, -3, m), pair_sum(1, 0, m + 1), pair_sum(55, -21, m))


def expected_half_power_series(order: int) -> TruncatedSeries:
    """(1 - 4t^4)^(-1/2) via central binomial coefficients."""
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(order // 4 + 1):
        coeffs[4 * n] = Fraction(comb(2 * n, n))
    return TruncatedSeries(order, tuple(coeffs))


def run_reference_checks(order: int = REFERENCE_ORDER) -> Report:
    report = Report(title="reference example checks")

    # ---- four-symbol family ----
    try:
        p1 = fixtures.example1_pair()
        p1i = fixtures.example1_symmetric_pair()
        report.add("example1: both pairs are valid flip pairs", True)
    except FlipPairError as e:
        report.add("example1: both pairs are valid flip pairs", False, str(e))
        return report

    g_j = generating_function(p1, order)
    report.add("example1: generating function of (A,J) is zero", g_j.is_zero(),
               f"coeffs {[str(c) for c in g_j.coeffs]}")

    g_i = generating_function(p1i, order)
    expected_gi = TruncatedSeries.from_coeffs(
        order, [0 if d % 2 else (0 if d == 0 else 2 ** (d // 2 + 1))
                for d in range(order + 1)])
    report.add("example1: generating function of (A,I) is 4t^2/(1-2t^2)",
               g_i == expected_gi,
               f"got {[str(c) for c in g_i.coeffs]}")

    brute_ok = True
    detail = []
    for m in range(1, 5):
        even0 = count_pmn_bruteforce(p1i, 2 * m, 0)
        odd = count_pmn_bruteforce(p1i, 2 * m - 1, 0)
        even1 = count_pmn_bruteforce(p1i, 2 * m, 1)
        detail.append(f"m={m}: {odd},{even0},{even1}")
        brute_ok = brute_ok and even0 == 2 ** (m + 2) and odd == 0 and even1 == 0
    report.add("example1: brute-force counts of (A,I) are (0, 2^(m+2), 0), m=1..4",
               brute_ok, "; ".join(detail))

    sfe_ok = True
    sfe_detail = []
    for k in (1, 2):
        try:
            sfe_check(p1, p1i, mat_pow(p1.A, k), 2 * k)
            sfe_detail.append(f"(A^{k}, A^{k}) at lag {2 * k}: accepted")
        except CertificateError as e:
            sfe_ok = False
            sfe_detail.append(f"(A^{k}, A^{k}) at lag {2 * k}: {e}")
    report.add("example1: (A^k, A^k) is a lag-2k equivalence to (A,I), k=1,2",
               sfe_ok, "; ".join(sfe_detail))

    sols = he_search(p1, p1i, max_solutions=4)
    report.add("example1: no single splitting step from (A,J) to (A,I)",
               len(sols) == 0, f"{len(sols)} found")

    az = artin_mazur_zeta(p1.A, order)
    expected_az = TruncatedSeries.from_coeffs(
        order, [0 if d % 2 else 4 ** (d // 2) for d in range(order + 1)])
    report.add("example1: shift zeta of A is 1/(1-4t^2)", az == expected_az,
               f"got {[str(c) for c in az.coeffs]}")

    lz = lind_zeta(p1, order)
    report.add("example1: flip-action zeta of (A,J) is (1-4t^4)^(-1/2)",
               lz == expected_half_power_series(order),
               f"got {[str(c) for c in lz.coeffs]}")

    apart = max(order, 2)  # the two series first differ at t^2
    report.add("example1: the two flips have different generating functions",
               generating_function(p1, apart) != generating_function(p1i, apart))

    # ---- seven-symbol family ----
    try:
        pairs2 = {w: fixtures.example2_pair(w) for w in ("A", "B", "C")}
        report.add("example2: (A,J), (B,J), (C,J) are valid flip pairs", True)
    except FlipPairError as e:
        report.add("example2: (A,J), (B,J), (C,J) are valid flip pairs", False, str(e))
        return report

    want = expected_char_poly()
    chis = {w: char_poly(fixtures.example2_matrix(w)) for w in ("A", "B", "C")}
    report.add("example2: one characteristic polynomial t(t-1)^4(t^2-3t+1)",
               all(chi == want for chi in chis.values()),
               f"chi(A) = {chis['A']}")

    triples = {w: [p_flip_counts(p, m).as_tuple() for m in range(1, 5)]
               for w, p in pairs2.items()}
    report.add("example2: counting triples agree across A, B, C (m=1..4)",
               triples["A"] == triples["B"] == triples["C"],
               f"A: {triples['A']}")

    brute = [(count_pmn_bruteforce(pairs2["A"], 2 * m - 1, 0),
              count_pmn_bruteforce(pairs2["A"], 2 * m, 0),
              count_pmn_bruteforce(pairs2["A"], 2 * m, 1))
             for m in range(1, 5)]
    report.add("example2: formulas match brute force (m=1..4)",
               triples["A"] == brute, f"brute: {brute}")

    closed = [reference_closed_form_triple(m) for m in range(1, 5)]
    report.add("example2: formulas match the closed forms (m=1..4)",
               triples["A"] == closed, f"closed: {closed}")
    report.add("example2: the m=1 triple is (1, 1, 5)",
               triples["A"][0] == (1, 1, 5), f"got {triples['A'][0]}")

    profiles = {w: tuple(rank_profile(fixtures.example2_matrix(w), 1, 4))
                for w in ("A", "B", "C")}
    report.add("example2: rank profiles of (M-I)^j are (6,5,4,3) / (6,5,4,3) / (5,3,3,3)",
               profiles["A"] == (6, 5, 4, 3) and profiles["B"] == (6, 5, 4, 3)
               and profiles["C"] == (5, 3, 3, 3),
               f"A {profiles['A']}, B {profiles['B']}, C {profiles['C']}")
    report.add("example2: rank profile separates C from A and B",
               profiles["C"] != profiles["A"])

    found = sfe_bounded_search(pairs2["A"], pairs2["C"], lag_max=2, entry_max=1)
    report.add("example2: (A,J) to (C,J): none within bounds (lag <= 2, entries <= 1)",
               len(found) == 0, f"{len(found)} found")

    return report
