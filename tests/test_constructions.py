import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from corpus import corpus, zero_one_flip_pairs
from flipshift.constructions import (BlockFlipSpec, OneBlockConjugacySpec,
                                     build_flip_pair, decompose_conjugacy,
                                     higher_block, verify_decomposition)
from flipshift.equivalence import sse_verify, verify_prop22
from flipshift.errors import SpecError
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                golden_mean_pair, one_point_pair)
from flipshift.flips import FlipPair
from flipshift.matrices import IntMatrix
from flipshift.shifts import (blocks, count_pmn_bruteforce, enumerate_periodic,
                              shift_point, word_center)
from flipshift.zeta import lind_zeta


# -- oracles: the all-pairs block pair and the periodic-point rule check ----------


def all_pairs_block_pair(pair: FlipPair, k: int) -> FlipPair:
    """The flip pair on length-k admissible words, comparing every pair of blocks."""
    words = blocks(pair.A, k)
    labels = tuple(" ".join(w) for w in words)
    n = len(words)
    pos = {w: i for i, w in enumerate(words)}
    a_rows = [[0] * n for _ in range(n)]
    j_rows = [[0] * n for _ in range(n)]
    for i, u in enumerate(words):
        for j2, v in enumerate(words):
            if u[1:] == v[:-1] and pair.A.entry(u[-1], v[-1]) == 1:
                a_rows[i][j2] = 1
        j_rows[i][pos[pair.flip_word(u)]] = 1
    return FlipPair(IntMatrix.square(labels, a_rows), IntMatrix.square(labels, j_rows))


def _is_periodic_point(a: IntMatrix, x) -> bool:
    idx = {lab: i for i, lab in enumerate(a.row_labels)}
    if not x or any(s not in idx for s in x):
        return False
    return all(a.entries[idx[x[i]]][idx[x[(i + 1) % len(x)]]] == 1 for i in range(len(x)))


def passes_periodic_check(spec: BlockFlipSpec, period: int) -> bool:
    """Images stay in the shift, square to the identity and reverse time on
    every periodic point up to ``period``: the sampled check blocks replace."""
    for m in range(1, period + 1):
        for x in enumerate_periodic(spec.A, m):
            y = spec.phi_point(x)
            if not _is_periodic_point(spec.A, y) or spec.phi_point(y) != x \
                    or shift_point(y, 1) != spec.phi_point(shift_point(x, -1)):
                return False
    return True


def _unchecked_rule(a: IntMatrix, window: int, rule: dict) -> BlockFlipSpec:
    """A BlockFlipSpec holding ``rule`` without validating it."""
    spec = object.__new__(BlockFlipSpec)
    spec.A, spec.window, spec.rule = a, window, rule
    return spec


@st.composite
def rules(draw):
    """(pair, window, rule): a pair on 1-6 symbols and a rule on its windows.

    The rule starts as tau read at an offset inside the window, which is
    always a flip, and a drawn number of windows get random images.
    """
    pair = draw(zero_one_flip_pairs())
    window = draw(st.integers(0, 1))
    offset = draw(st.integers(-window, window))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # stranded symbols
        windows = blocks(pair.A, 2 * window + 1)
    assume(windows)
    rule = {w: pair.tau[w[window + offset]] for w in windows}
    for w in draw(st.lists(st.sampled_from(windows), max_size=2)):
        rule[w] = draw(st.sampled_from(pair.alphabet))
    return pair, window, rule


def test_higher_block_one_point():
    p = one_point_pair()
    hb, chain = higher_block(p, 3)
    assert hb.size == 1
    assert chain.lag == 3
    assert sse_verify(chain).passed


def test_higher_block_golden_mean():
    gm = golden_mean_pair()
    hb, chain = higher_block(gm, 1)
    assert hb.alphabet == ("1 1", "1 2", "2 1")
    assert dict(hb.tau) == {"1 1": "1 1", "1 2": "2 1", "2 1": "1 2"}
    assert chain.pairs[0] == gm
    assert chain.lag == 1
    assert sse_verify(chain).passed
    assert verify_prop22(chain.links[0], 5).passed


def test_higher_block_example1():
    p1 = example1_pair()
    hb, chain = higher_block(p1, 1)
    assert hb.size == 8
    assert sse_verify(chain).passed
    assert lind_zeta(hb, 10) == lind_zeta(p1, 10)


@settings(derandomize=True, database=None, deadline=None)
@given(pair=zero_one_flip_pairs(), n=st.integers(1, 3))
def test_higher_block_equals_the_all_pairs_oracle(pair, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # stranded symbols
        hb, chain = higher_block(pair, n)
        assert chain.pairs == tuple(all_pairs_block_pair(pair, k) for k in range(1, n + 2))
    assert hb == chain.pairs[-1]


def test_higher_block_random_pairs():
    import random

    from corpus import random_flip_pair
    rng = random.Random(59)
    for _ in range(5):
        p = random_flip_pair(rng, max_size=4)
        for n in (1, 2):
            hb, chain = higher_block(p, n)
            assert chain.lag == n
            assert sse_verify(chain).passed
            for link in chain.links:
                assert verify_prop22(link, 4).passed


def test_block_flip_identity_rule():
    gm = golden_mean_pair()
    spec = BlockFlipSpec(gm.A, 0, {(a,): a for a in gm.alphabet})
    built, code = build_flip_pair(spec)
    relabeled = built.relabel({f"{a}|{a}": a for a in gm.alphabet})
    assert relabeled.reorder(gm.alphabet) == gm
    x = ("1", "2")
    assert code.apply_point(x) == ("1|1", "2|2")


def test_block_flip_involution_rule_collapses():
    p1 = example1_pair()
    spec = BlockFlipSpec(p1.A, 0, {(a,): p1.tau[a] for a in p1.alphabet})
    built, _ = build_flip_pair(spec)
    relabeled = built.relabel({f"{a}|{p1.tau[a]}": a for a in p1.alphabet})
    assert relabeled.reorder(p1.alphabet) == p1


def test_block_flip_window_one():
    gm = golden_mean_pair()
    rule = {w: w[2] for w in blocks(gm.A, 3)}
    spec = BlockFlipSpec(gm.A, 1, rule)
    built, code = build_flip_pair(spec)
    for m in range(1, 6):
        assert len(enumerate_periodic(built.A, m)) == len(enumerate_periodic(gm.A, m))
        for n in (0, 1):
            assert count_pmn_bruteforce(built, m, n) == spec.count_pmn(m, n)
        images = {code.apply_point(x) for x in enumerate_periodic(gm.A, m)}
        assert images == set(enumerate_periodic(built.A, m))


def test_block_flip_rule_must_be_total():
    gm = golden_mean_pair()
    with pytest.raises(SpecError) as e:
        BlockFlipSpec(gm.A, 0, {("1",): "1"})
    assert e.value.reason == "phi_total"


def test_block_flip_rule_must_be_involutive():
    gm = golden_mean_pair()
    with pytest.raises(SpecError) as e:
        BlockFlipSpec(gm.A, 1, {w: "1" for w in blocks(gm.A, 3)})
    assert e.value.reason == "phi_involution"


def test_block_flip_rule_must_stay_admissible():
    gm = golden_mean_pair()
    with pytest.raises(SpecError) as e:
        BlockFlipSpec(gm.A, 1, {w: "2" for w in blocks(gm.A, 3)})
    assert e.value.reason == "phi_into"


def test_rule_that_drops_a_transition_is_refused():
    # no periodic point crosses 2 -> 3, so sampling periodic points missed it
    a = IntMatrix.square(("2", "3", "4"), [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    rule = {(s,): s for s in a.row_labels}
    assert passes_periodic_check(_unchecked_rule(a, 0, rule), 8)
    with pytest.raises(SpecError) as e:
        BlockFlipSpec(a, 0, rule)
    assert e.value.reason == "phi_into"
    assert str(e.value) == "image of block ('2', '3') leaves the shift"


def test_rule_that_keeps_time_order_is_refused():
    # the rule reads the centre, so phi(x)_i = x_(-i) turns 1 -> 2 into 2 -> 1
    a = IntMatrix.square(("1", "2"), [[1, 1], [0, 1]])
    rule = {("1", "1", "1"): "1", ("1", "1", "2"): "1",
            ("1", "2", "2"): "2", ("2", "2", "2"): "2"}
    with pytest.raises(SpecError) as e:
        BlockFlipSpec(a, 1, rule)
    assert e.value.reason == "phi_into"


@settings(derandomize=True, database=None, deadline=None)
@given(drawn=rules())
def test_every_rule_reverses_time(drawn):
    pair, window, rule = drawn
    spec = _unchecked_rule(pair.A, window, rule)
    for m in range(1, 7):
        for x in enumerate_periodic(pair.A, m):
            assert shift_point(spec.phi_point(x), 1) == spec.phi_point(shift_point(x, -1))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(drawn=rules())
def test_accepted_rules_pass_the_periodic_check(drawn):
    pair, window, rule = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # stranded symbols
        try:
            spec = BlockFlipSpec(pair.A, window, rule)
        except SpecError:
            return
    assert passes_periodic_check(spec, 8)


def _center_read_spec(base, n):
    """Conjugacy from the (2n+1)-block pair down to the base, reading centers."""
    hb, _ = higher_block(base, 2 * n)
    psi = {lab: word_center(tuple(lab.split(" "))) for lab in hb.alphabet}
    return OneBlockConjugacySpec(hb, base, psi, n)


def test_decompose_identity_conjugacy():
    gm = golden_mean_pair()
    spec = OneBlockConjugacySpec(gm, gm, {a: a for a in gm.alphabet}, 0)
    dec = decompose_conjugacy(spec)
    assert dec.chain.lag == 0
    assert dec.chain.pairs == (gm,)
    assert verify_decomposition(dec, spec, 6).passed


def test_decompose_relabeling():
    gm = golden_mean_pair()
    target = gm.relabel({"1": "b", "2": "a"}).reorder(("a", "b"))
    spec = OneBlockConjugacySpec(gm, target, {"1": "b", "2": "a"}, 0)
    dec = decompose_conjugacy(spec)
    assert dec.chain.lag == 0
    assert dec.source_recoding == {"1": "b", "2": "a"}
    assert verify_decomposition(dec, spec, 6).passed


def test_decompose_center_read():
    gm = golden_mean_pair()
    spec = _center_read_spec(gm, 1)
    dec = decompose_conjugacy(spec)
    assert dec.chain.lag == 4
    assert dec.chain.pairs[0] == spec.source
    assert dec.chain.pairs[-1] == gm
    assert sse_verify(dec.chain).passed
    assert verify_decomposition(dec, spec, 6).passed


def test_decompose_center_read_example1():
    p1 = example1_pair()
    spec = _center_read_spec(p1, 1)
    dec = decompose_conjugacy(spec)
    assert dec.chain.lag == 4
    assert verify_decomposition(dec, spec, 5).passed
    for period in (0, -2):
        with pytest.raises(ValueError):
            verify_decomposition(dec, spec, period)


def test_decomposition_chains_verify_over_the_corpus():
    for base in corpus(count=20, max_size=4):
        for n in (1, 2) if base.size <= 2 else (1,):
            dec = decompose_conjugacy(_center_read_spec(base, n))
            assert dec.chain.lag == 4 * n
            assert sse_verify(dec.chain).passed


def test_conjugacy_spec_rejects_non_bijection():
    gm = golden_mean_pair()
    with pytest.raises(SpecError):
        OneBlockConjugacySpec(gm, gm, {"1": "1", "2": "1"}, 0)


def test_conjugacy_spec_rejects_wrong_window():
    # the center-read map genuinely needs window 1; window 0 must be refused
    gm = golden_mean_pair()
    hb, _ = higher_block(gm, 2)
    psi = {lab: word_center(tuple(lab.split(" "))) for lab in hb.alphabet}
    with pytest.raises(SpecError) as e:
        OneBlockConjugacySpec(hb, gm, psi, 0)
    assert e.value.reason in ("inverse_window", "psi_bijective")


def test_conjugacy_spec_rejects_flip_breaking_map():
    # the identity map intertwines the shifts of (A,J) and (A,I) but not the flips
    p1 = example1_pair()
    p1i = example1_symmetric_pair()
    with pytest.raises(SpecError) as e:
        OneBlockConjugacySpec(p1, p1i, {a: a for a in p1.alphabet}, 0)
    assert e.value.reason == "psi_flip"
