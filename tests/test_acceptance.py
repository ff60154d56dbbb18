"""Acceptance suite: one test per criterion, every comparison exact.

Criteria 1, 2, 5, 6, 7 and the lag-2k half of 8 assert rows of the reference
report, so their expected values are stored once, in ``refchecks``.

Run as `pytest -v -s tests/test_acceptance.py` to see one line per criterion.
"""

import random
from fractions import Fraction

from corpus import DEFAULT_SEED, corpus
from flipshift.constructions import (OneBlockConjugacySpec, decompose_conjugacy,
                                     higher_block, verify_decomposition)
from flipshift.equivalence import verify_prop22
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                golden_mean_pair)
from flipshift.refchecks import run_reference_checks
from flipshift.series import (TruncatedSeries, series_add, series_exp,
                              series_log, series_mul, substitute_t_squared)
from flipshift.shifts import count_pmn_bruteforce, enumerate_periodic, word_center
from flipshift.zeta import lind_zeta, p_flip_counts
from points import decomposition_point

_CORPUS = None
_REPORT = None


def shared_corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = corpus(seed=DEFAULT_SEED, count=50)
    return _CORPUS


def assert_rows(*names):
    """The named rows of the reference report exist and pass.

    The report is run once; the expected values live only in ``refchecks``.
    """
    global _REPORT
    if _REPORT is None:
        _REPORT = run_reference_checks()
    rows = {c.name: c for c in _REPORT.checks}
    for name in names:
        assert rows[name].passed, f"{name}: {rows[name].detail}"


def _announce(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_example1_generating_functions():
    assert_rows("example1: generating function of (A,J) is zero",
                "example1: generating function of (A,I) is 4t^2/(1-2t^2)")
    _announce(1, "example-1 generating functions (zero and 4t^2/(1-2t^2))")


def test_criterion_02_example1_bruteforce_counts():
    assert_rows("example1: brute-force counts of (A,I) are (0, 2^(m+2), 0), m=1..4")
    _announce(2, "example-1 brute-force counts 2^(m+2) with zero flanks, m=1..4")


def test_criterion_03_formula_equals_oracle_on_corpus():
    pairs = shared_corpus()
    assert len(pairs) >= 50
    failures = 0
    for p in pairs:
        for m in range(1, 6):
            formula = p_flip_counts(p, m).as_tuple()
            oracle = (count_pmn_bruteforce(p, 2 * m - 1, 0),
                      count_pmn_bruteforce(p, 2 * m, 0),
                      count_pmn_bruteforce(p, 2 * m, 1))
            if formula != oracle:
                failures += 1
    assert failures == 0
    _announce(3, f"counting formulas equal the oracle on {len(pairs)} pairs, m<=5")


def test_criterion_04_count_depends_only_on_parity():
    pairs = shared_corpus()
    for p in pairs:
        for m in range(1, 7):
            base0 = count_pmn_bruteforce(p, m, 0)
            base1 = count_pmn_bruteforce(p, m, 1)
            for n in range(-4, 5):
                c = count_pmn_bruteforce(p, m, n)
                if m % 2 == 1:
                    assert c == base0
                else:
                    assert c == (base0 if n % 2 == 0 else base1)
    _announce(4, "counts depend only on the parity of n (m even) and not on n (m odd)")


def test_criterion_05_example2_characteristic_polynomials():
    assert_rows("example2: one characteristic polynomial t(t-1)^4(t^2-3t+1)")
    _announce(5, "example-2 characteristic polynomials all equal t(t-1)^4(t^2-3t+1)")


def test_criterion_06_example2_count_agreement():
    assert_rows("example2: counting triples agree across A, B, C (m=1..4)",
                "example2: formulas match brute force (m=1..4)",
                "example2: formulas match the closed forms (m=1..4)",
                "example2: the m=1 triple is (1, 1, 5)")
    _announce(6, "example-2 triples agree pairwise, with brute force and closed forms")


def test_criterion_07_example2_nilpotent_structure_probe():
    assert_rows("example2: rank profiles of (M-I)^j are (6,5,4,3) / (6,5,4,3) / (5,3,3,3)",
                "example2: rank profile separates C from A and B",
                "example2: (A,J) to (C,J): none within bounds (lag <= 2, entries <= 1)")
    _announce(7, "rank profiles separate C; no lag<=2 witness with entries<=1")


def test_criterion_08_example1_lag2k_equivalence():
    assert_rows("example1: (A^k, A^k) is a lag-2k equivalence to (A,I), k=1,2")
    assert lind_zeta(example1_pair(), 12) != lind_zeta(example1_symmetric_pair(), 12)
    _announce(8, "(A^k, A^k) accepted at lag 2k while the zeta series differ")


def test_criterion_09_block_recoding_pipeline():
    for base in (golden_mean_pair(), example1_pair()):
        reference = lind_zeta(base, 10)
        for n in (1, 2, 3):
            block_pair, chain = higher_block(base, n)
            assert chain.lag == n
            assert (chain.source, chain.target) == (base, block_pair)
            for link in chain.links:
                assert verify_prop22(link).passed
            assert lind_zeta(block_pair, 10) == reference
    _announce(9, "block recodings keep chains verified and the zeta series equal")


def test_criterion_10_conjugacy_decomposition():
    gm = golden_mean_pair()
    # relabeling conjugacy, inverse window 0
    target = gm.relabel({"1": "b", "2": "a"}).reorder(("a", "b"))
    spec0 = OneBlockConjugacySpec(gm, target, {"1": "b", "2": "a"}, 0)
    dec0 = decompose_conjugacy(spec0)
    assert dec0.chain.lag == 0
    assert verify_decomposition(dec0, spec0).passed

    # center-read conjugacy from the 3-block pair, inverse window 1
    hb3, _ = higher_block(gm, 2)
    psi = {lab: word_center(tuple(lab.split(" "))) for lab in hb3.alphabet}
    spec1 = OneBlockConjugacySpec(hb3, gm, psi, 1)
    dec1 = decompose_conjugacy(spec1)
    assert dec1.chain.lag == 4
    assert (dec1.chain.source, dec1.chain.target) == (hb3, gm)
    assert verify_decomposition(dec1, spec1).passed
    for m in range(1, 7):
        for x in enumerate_periodic(hb3.A, m):
            assert decomposition_point(dec1, x) == spec1.map_word(x)
    _announce(10, "decompositions of lags 0 and 4 verified link by link against psi")


def test_criterion_11_series_algebra():
    rng = random.Random(DEFAULT_SEED)
    order = 16
    for _ in range(100):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(order + 1)]
        f = TruncatedSeries(order, tuple([Fraction(0)] + coeffs[1:]))
        g_coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(order + 1)]
        g = TruncatedSeries(order, tuple([Fraction(0)] + g_coeffs[1:]))
        assert series_log(series_exp(f)) == f
        assert series_exp(series_add(f, g)) == series_mul(series_exp(f),
                                                          series_exp(g))
        h = TruncatedSeries(order, tuple(coeffs))
        k = TruncatedSeries(order, tuple(g_coeffs))
        assert substitute_t_squared(series_add(h, k)) == \
            series_add(substitute_t_squared(h), substitute_t_squared(k))
        assert substitute_t_squared(series_mul(h, k)) == \
            series_mul(substitute_t_squared(h), substitute_t_squared(k))
    _announce(11, "exp/log round trip, exp additivity, substitution homomorphism")
