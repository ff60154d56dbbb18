import random
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from corpus import corpus, zero_one_flip_pairs
from flipshift import constructions, shifts
from flipshift.constructions import (BlockFlipSpec, ConjugacyDecomposition,
                                     OneBlockConjugacySpec, build_flip_pair,
                                     decompose_conjugacy, higher_block,
                                     verify_decomposition)
from flipshift.equivalence import HalfElemCert, StrongChain, he_check, verify_prop22
from flipshift.errors import BudgetError, SpecError
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                golden_mean_pair, one_point_pair)
from flipshift.flips import FlipPair
from flipshift.matrices import IntMatrix
from flipshift.shifts import (blocks, count_pmn_bruteforce, enumerate_periodic,
                              essential_symbols, is_essential, word_center)
from flipshift.zeta import lind_zeta
from points import (code_point, count_fixed, decomposition_point,
                    is_periodic_point, rule_point, shift_point)


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


def passes_periodic_check(spec: BlockFlipSpec, period: int) -> bool:
    """Images stay in the shift, square to the identity and reverse time on
    every periodic point up to ``period``: the sampled check blocks replace."""
    for m in range(1, period + 1):
        for x in enumerate_periodic(spec.A, m):
            y = rule_point(spec, x)
            if not is_periodic_point(spec.A, y) or rule_point(spec, y) != x \
                    or shift_point(y, 1) != rule_point(spec, shift_point(x, -1)):
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
    assert (chain.source, chain.target) == (p, hb)


def test_higher_block_golden_mean():
    gm = golden_mean_pair()
    hb, chain = higher_block(gm, 1)
    assert hb.alphabet == ("1 1", "1 2", "2 1")
    assert dict(hb.tau) == {"1 1": "1 1", "1 2": "2 1", "2 1": "1 2"}
    assert chain.pairs[0] == gm
    assert chain.lag == 1
    assert chain.target == hb
    assert verify_prop22(chain.links[0]).passed


def test_higher_block_example1():
    p1 = example1_pair()
    hb, chain = higher_block(p1, 1)
    assert hb.size == 8
    assert (chain.source, chain.target, chain.lag) == (p1, hb, 1)
    assert lind_zeta(hb, 10) == lind_zeta(p1, 10)


@settings(derandomize=True, database=None, deadline=None)
@given(pair=zero_one_flip_pairs(), n=st.integers(1, 3))
def test_higher_block_equals_the_all_pairs_oracle(pair, n):
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
            assert (chain.source, chain.target) == (p, hb)
            for link in chain.links:
                assert verify_prop22(link).passed


def test_block_flip_identity_rule():
    gm = golden_mean_pair()
    spec = BlockFlipSpec(gm.A, 0, {(a,): a for a in gm.alphabet})
    built, code = build_flip_pair(spec)
    relabeled = built.relabel({f"{a}|{a}": a for a in gm.alphabet})
    assert relabeled.reorder(gm.alphabet) == gm
    x = ("1", "2")
    assert code_point(code, x) == ("1|1", "2|2")


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
            assert count_pmn_bruteforce(built, m, n) == count_fixed(
                enumerate_periodic(gm.A, m), lambda x: rule_point(spec, x), n)
        images = {code_point(code, x) for x in enumerate_periodic(gm.A, m)}
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
            assert shift_point(rule_point(spec, x), 1) == rule_point(spec, shift_point(x, -1))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(drawn=rules())
def test_accepted_rules_pass_the_periodic_check(drawn):
    pair, window, rule = drawn
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


def candidate_stages(spec: OneBlockConjugacySpec) -> list[FlipPair]:
    """Stages 1 ... 2m+1 of the decomposition, built from every candidate.

    Stage k takes every triple (u, w, v) of target blocks u, v of length
    i = (k-1)//2 and a source block w of length k-2i with u + psi(w) + v a
    target block, compares every pair of triples, and cuts the pair to its
    essential symbols.  The top stage is relabelled by its target words into
    the order of the target's (2m+1)-block pair.
    """
    src, dst, m = spec.source, spec.target, spec.inverse_window
    src_index = {s: x for x, s in enumerate(src.alphabet)}
    dst_index = {s: x for x, s in enumerate(dst.alphabet)}
    stages = []
    for k in range(1, 2 * m + 2):
        i = (k - 1) // 2
        j = k - 2 * i
        us = blocks(dst.A, i) if i else ((),)
        targets = set(blocks(dst.A, k))
        cand = sorted(((u, w, v) for u in us for w in blocks(src.A, j) for v in us
                       if u + spec.map_word(w) + v in targets),
                      key=lambda t: ([dst_index[s] for s in t[0]],
                                     [src_index[s] for s in t[1]],
                                     [dst_index[s] for s in t[2]]))
        word = {t: t[0] + spec.map_word(t[1]) + t[2] for t in cand}
        dst_next, src_next = set(blocks(dst.A, k + 1)), set(blocks(src.A, j + 1))
        a_rows = [[int(word[t][1:] == word[t2][:-1] and t[1][1:] == t2[1][:-1]
                       and word[t] + word[t2][-1:] in dst_next
                       and t[1] + t2[1][-1:] in src_next) for t2 in cand]
                  for t in cand]
        j_rows = [[int(t2 == (dst.flip_word(t[2]), src.flip_word(t[1]),
                              dst.flip_word(t[0]))) for t2 in cand] for t in cand]
        labels = [" ".join(t[1]) if k == 1 else "|".join(" ".join(x) for x in t)
                  for t in cand]
        ess = set(essential_symbols(IntMatrix.square(labels, a_rows)))
        keep = [x for x, lab in enumerate(labels) if lab in ess]
        kept = [labels[x] for x in keep]
        stages.append(FlipPair(IntMatrix.square(kept, [[a_rows[x][y] for y in keep] for x in keep]),
                               IntMatrix.square(kept, [[j_rows[x][y] for y in keep] for x in keep])))
    hb, _ = higher_block(dst, 2 * m)
    by_word = {lab: " ".join(word[t]) for lab, t in zip(labels, cand)}
    stages[-1] = stages[-1].relabel(by_word).reorder(hb.alphabet)
    return stages


def _stage_oracle_specs() -> list[OneBlockConjugacySpec]:
    """Centre reads of corpus pairs at windows 1 and 2, a shuffled and
    relabelled source, an off-centre read and a declared window wider than
    the map needs."""
    specs = [_center_read_spec(base, n) for base in corpus(count=20, max_size=4)
             for n in ((1, 2) if base.size <= 2 else (1,))]
    hb, _ = higher_block(example1_pair(), 2)
    order = list(hb.alphabet)
    random.Random(7).shuffle(order)
    names = {lab: f"s{x}" for x, lab in enumerate(order[::-1])}
    shuffled = hb.relabel(names).reorder(names[lab] for lab in order)
    specs.append(OneBlockConjugacySpec(
        shuffled, example1_pair(),
        {names[lab]: word_center(tuple(lab.split(" "))) for lab in hb.alphabet}, 1))
    # on a cycle the symbol after the centre is a flip conjugacy onto the
    # cycle flipped about 1
    hb, _ = higher_block(_cycle_pair(7), 2)
    specs.append(OneBlockConjugacySpec(
        hb, _cycle_pair(7, centre=2), {lab: lab.split(" ")[2] for lab in hb.alphabet}, 1))
    loose = _center_read_spec(golden_mean_pair(), 1)
    specs.append(OneBlockConjugacySpec(loose.source, loose.target, loose.psi, 2))
    return specs


def test_decomposition_stages_equal_the_candidate_oracle():
    for spec in _stage_oracle_specs():
        stages = decompose_conjugacy(spec).chain.pairs[:2 * spec.inverse_window + 1]
        assert stages == tuple(candidate_stages(spec))


def test_full_three_shift_at_window_two_builds_only_its_stages():
    # the top stage keeps 243 of 9 * 243 * 9 = 19,683 candidate triples
    labels = ("a", "b", "c")
    full = FlipPair(IntMatrix.square(labels, [[1] * 3] * 3), IntMatrix.identity(labels))
    dec = decompose_conjugacy(_center_read_spec(full, 2))
    assert [p.size for p in dec.chain.pairs] == [243, 729, 243, 729, 243, 81, 27, 9, 3]


def _stranded_golden_mean() -> FlipPair:
    # the golden mean on 1, 2, with a source 3 -> 1 and a sink 1 -> 4 that J swaps
    a = IntMatrix.square("1234", [[1, 1, 0, 1], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    return FlipPair(a, IntMatrix.square("1234", [[1, 0, 0, 0], [0, 1, 0, 0],
                                                 [0, 0, 0, 1], [0, 0, 1, 0]]))


def test_builders_strand_no_symbol():
    # the oracle for building block pairs and stages without an essential cut
    chains = []
    for base in corpus(count=20, max_size=4) + [_stranded_golden_mean()]:
        chains += [higher_block(base, n)[1] for n in (1, 2, 3)]
    chains += [decompose_conjugacy(spec).chain for spec in _stage_oracle_specs()]
    for chain in chains:
        for p in chain.pairs:
            assert essential_symbols(p.A) == p.alphabet


@settings(derandomize=True, database=None, deadline=None)
@given(drawn=rules())
def test_flip_rule_pairs_strand_no_symbol(drawn):
    # the same oracle for build_flip_pair, stranded bases included
    pair, window, rule = drawn
    try:
        spec = BlockFlipSpec(pair.A, window, rule)
    except SpecError:
        return
    built, code = build_flip_pair(spec)
    assert essential_symbols(built.A) == built.alphabet
    assert set(code.mapping.values()) == set(built.alphabet)


def test_decompose_identity_conjugacy():
    gm = golden_mean_pair()
    spec = OneBlockConjugacySpec(gm, gm, {a: a for a in gm.alphabet}, 0)
    dec = decompose_conjugacy(spec)
    assert dec.chain.lag == 0
    assert dec.chain.pairs == (gm,)
    assert verify_decomposition(dec, spec).passed


def test_decompose_relabeling():
    gm = golden_mean_pair()
    target = gm.relabel({"1": "b", "2": "a"}).reorder(("a", "b"))
    spec = OneBlockConjugacySpec(gm, target, {"1": "b", "2": "a"}, 0)
    dec = decompose_conjugacy(spec)
    assert dec.chain.lag == 0
    assert dec.source_recoding == {"1": "b", "2": "a"}
    assert verify_decomposition(dec, spec).passed


def test_decompose_center_read():
    gm = golden_mean_pair()
    spec = _center_read_spec(gm, 1)
    dec = decompose_conjugacy(spec)
    assert dec.chain.lag == 4
    assert (dec.chain.source, dec.chain.target) == (spec.source, gm)
    assert verify_decomposition(dec, spec).passed


def test_decompose_center_read_example1():
    p1 = example1_pair()
    spec = _center_read_spec(p1, 1)
    dec = decompose_conjugacy(spec)
    assert dec.chain.lag == 4
    assert verify_decomposition(dec, spec).passed


def test_decomposition_chains_verify_over_the_corpus():
    for base in corpus(count=20, max_size=4):
        for n in (1, 2) if base.size <= 2 else (1,):
            spec = _center_read_spec(base, n)
            dec = decompose_conjugacy(spec)
            assert dec.chain.lag == 4 * n
            # the CLI walks these before building; they are the check's blocks
            assert {len(w) for w in constructions._verification_blocks(spec)} == \
                {dec.chain.lag + 1}
            assert (dec.chain.source, dec.chain.target) == (spec.source, base)
            assert verify_decomposition(dec, spec).passed
            # the periodic points are the oracle of the block check
            for m in range(1, 5):
                for x in enumerate_periodic(spec.source.A, m):
                    assert decomposition_point(dec, x) == spec.map_word(x)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(pair=zero_one_flip_pairs())
def test_drawn_decompositions_round_trip_and_every_link_checks_again(pair):
    # the builders check each link once, and the descent of a decomposition
    # reverses block-chain links unchecked; a fresh he_check of every link
    # is the oracle for both (the n = 2 block chain holds the n = 1 link)
    assume(is_essential(pair.A))
    spec = _center_read_spec(pair, 1)
    dec = decompose_conjugacy(spec)
    assert verify_decomposition(dec, spec).passed
    for link in (*dec.chain.links, *higher_block(pair, 2)[1].links):
        he_check(link.source, link.target, link.R, supplied_S=link.S)  # raises if bad


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(pair=zero_one_flip_pairs())
def test_drawn_window_two_decompositions_round_trip(pair):
    # window 1 builds only stage 2, whose outer words are empty; window 2
    # also builds stages 3 and 4, whose flips read psi on both outer words
    assume(is_essential(pair.A) and shifts.block_count(pair.A, 13) <= 400)
    spec = _center_read_spec(pair, 2)
    dec = decompose_conjugacy(spec)
    assert dec.chain.lag == 8
    assert verify_decomposition(dec, spec).passed
    for link in dec.chain.links:
        he_check(link.source, link.target, link.R, supplied_S=link.S)  # raises if bad


def test_window_zero_specs_are_exactly_the_relabelings():
    # decompose_conjugacy returns an accepted window-0 psi as the recoding unchecked
    refused = 0
    for base in corpus(count=20, max_size=4):
        if not is_essential(base.A):
            continue
        for image in permutations(base.alphabet):
            psi = dict(zip(base.alphabet, image))
            try:
                OneBlockConjugacySpec(base, base, psi, 0)
                accepted = True
            except SpecError:
                accepted = False
            assert accepted == (base.relabel(psi).reorder(base.alphabet) == base)
            refused += not accepted
    assert refused


def _swapped_last_link(dec: ConjugacyDecomposition) -> ConjugacyDecomposition:
    """The decomposition with the last link's first two target symbols swapped
    in R and S: every link still resolves, but to the other symbol."""
    last = dec.chain.links[-1]
    cols = [1, 0, *range(2, last.target.size)]  # its own inverse
    r = tuple(tuple(sorted(cols[j] for j in js)) for js in last.r_ones)
    s = tuple(last.s_ones[j] for j in cols)
    links = (*dec.chain.links[:-1], HalfElemCert(last.source, last.target, r, s))
    return ConjugacyDecomposition(StrongChain(dec.chain.source, links), dec.source_recoding)


def test_verify_decomposition_refuses_a_swapped_recoding():
    gm = golden_mean_pair()
    spec = OneBlockConjugacySpec(gm, gm, {a: a for a in gm.alphabet}, 0)
    dec = ConjugacyDecomposition(StrongChain(gm, ()), {"1": "2", "2": "1"})
    report = verify_decomposition(dec, spec)
    assert not report.passed
    assert report.first_failure().detail == "block ('1',): 2 != 1"


def test_verify_decomposition_refuses_a_doctored_link():
    spec = _center_read_spec(golden_mean_pair(), 1)
    dec = decompose_conjugacy(spec)
    report = verify_decomposition(_swapped_last_link(dec), spec)
    assert not report.passed
    assert report.first_failure().detail.startswith("block (")
    # a first link that no longer resolves is reported, not raised
    first = dec.chain.links[0]
    s = (first.s_ones[0],) * len(first.s_ones)
    links = (HalfElemCert(first.source, first.target, first.r_ones, s), *dec.chain.links[1:])
    doctored = ConjugacyDecomposition(StrongChain(dec.chain.source, links), dec.source_recoding)
    report = verify_decomposition(doctored, spec)
    assert not report.passed
    assert report.first_failure().detail.startswith("link 0: unique b: ")


def test_verify_decomposition_refuses_over_budget_before_any_link(monkeypatch):
    spec = _center_read_spec(golden_mean_pair(), 1)
    dec = decompose_conjugacy(spec)
    a = spec.source.A
    # the prefixes of a walk to the lag's width: every narrower walk fits
    budget = sum(len(blocks(a, k)) for k in range(1, dec.chain.lag + 1))
    blocks.cache_clear()
    monkeypatch.setattr(shifts, "WALK_BUDGET", budget)
    calls = []
    monkeypatch.setattr(constructions, "gamma_block", lambda *args: calls.append(args))
    blocks(a, dec.chain.lag)
    with pytest.raises(BudgetError):
        verify_decomposition(dec, spec)
    assert calls == []


def _cycle_pair(n: int, chords=(), centre: int = 0) -> FlipPair:
    """The n-cycle i -> i+1 with the flip i -> centre - i, plus the given transitions."""
    edges = {(i, (i + 1) % n) for i in range(n)} | set(chords)
    labels = [str(i) for i in range(n)]
    a = IntMatrix.square(labels, [[int((i, j) in edges) for j in range(n)]
                                  for i in range(n)])
    j = IntMatrix.square(labels, [[int(k == (centre - i) % n) for k in range(n)]
                                  for i in range(n)])
    return FlipPair(a, j)


def test_conjugacy_spec_refuses_a_map_off_the_transitions():
    # psi(i) = 2i is a flip-commuting bijection of symbols, but no point of
    # period <= 6 exists to show that it breaks the cycle
    c7 = _cycle_pair(7)
    assert not any(enumerate_periodic(c7.A, m) for m in range(1, 7))
    with pytest.raises(SpecError) as e:
        OneBlockConjugacySpec(c7, c7, {str(i): str(2 * i % 7) for i in range(7)}, 0)
    assert e.value.reason == "psi_into"
    assert str(e.value) == "image of transition ('0', '1') is not a transition"


def test_conjugacy_spec_refuses_a_target_with_extra_transitions():
    # the chords 6 -> 0 and 0 -> 7 close two 7-cycles, whose points the
    # identity does not reach from the 13-cycle
    c13 = _cycle_pair(13)
    chorded = _cycle_pair(13, chords=[(6, 0), (0, 7)])
    assert not any(enumerate_periodic(chorded.A, m) for m in range(1, 7))
    with pytest.raises(SpecError) as e:
        OneBlockConjugacySpec(c13, chorded, {a: a for a in c13.alphabet}, 0)
    assert e.value.reason == "psi_bijective"


def test_conjugacy_spec_rejects_non_bijection():
    gm = golden_mean_pair()
    with pytest.raises(SpecError):
        OneBlockConjugacySpec(gm, gm, {"1": "1", "2": "1"}, 0)


def test_conjugacy_spec_rejects_a_map_onto_a_subshift():
    full = FlipPair(IntMatrix.square(("1", "2"), [[1, 1], [1, 1]]),
                    IntMatrix.identity(("1", "2")))
    with pytest.raises(SpecError) as e:
        OneBlockConjugacySpec(one_point_pair(), full, {"a": "1"}, 0)
    assert e.value.reason == "psi_onto"


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
