import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from corpus import corpus, random_flip_pair, zero_one_flip_pairs
from flipshift import jsonio
from flipshift.constructions import decompose_conjugacy, higher_block
from flipshift.equivalence import (DEFAULT_CELL_BUDGET, HalfElemCert,
                                   ShiftFlipCert, StrongChain, _companion,
                                   gamma_block, he_check, he_search,
                                   sfe_bounded_search, sfe_check, sse_verify,
                                   verify_prop22)
from flipshift.errors import BudgetError, CertificateError
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                example2_pair, golden_mean_pair,
                                one_point_pair)
from flipshift.flips import FlipPair
from flipshift.matrices import IntMatrix, mat_mul, mat_pow, trace
from flipshift.shifts import enumerate_periodic
from points import gamma_images, gamma_point, shift_point
from test_constructions import _center_read_spec
from test_sparse_kernel import dense_mul


def test_he_check_one_point():
    p = one_point_pair()
    cert = he_check(p, p, IntMatrix.rect(("a",), ("a",), [[1]]))
    assert cert.S.to_rows() == [[1]]


def test_he_check_block_certificates():
    gm = golden_mean_pair()
    _, chain = higher_block(gm, 2)
    for link in chain.links:
        # the S derived from R alone reads "drop the first symbol"
        assert link.S.to_rows() == [[int(v.split()[1:] == u.split())
                                     for u in link.S.col_labels]
                                    for v in link.S.row_labels]


def test_he_check_rejects_power_witness():
    # A itself satisfies A^2 = R*S but not A = R*S
    p1, p1i = example1_pair(), example1_symmetric_pair()
    r = IntMatrix.rect(p1.alphabet, p1i.alphabet, p1.A.to_rows())
    with pytest.raises(CertificateError) as e:
        he_check(p1, p1i, r)
    assert e.value.identity == "A == R*S"


def corpus_certificates():
    """Accepted certificates from every producer, over the seeded corpus."""
    certs = []
    for p in corpus(seed=83, count=12, max_size=4):
        _, chain = higher_block(p, 2)
        certs += chain.links
        spec = _center_read_spec(p, 1)
        certs += decompose_conjugacy(spec).chain.links
        hb2 = chain.pairs[1]
        if p.size * hb2.size <= 30:
            certs += he_search(p, hb2, max_solutions=4)
        certs += sfe_bounded_search(p, p, lag_max=2, entry_max=1)
    return certs


def test_he_check_derivation_symmetry():
    # The checkers no longer test S zero-one, R == J S^T K or S*A == B*S,
    # which follow from the identities they do test; they hold here by dense
    # products on every certificate that any producer emits.
    certs = corpus_certificates()
    kinds = {type(c) for c in certs}
    assert kinds == {HalfElemCert, ShiftFlipCert}
    for cert in certs:
        j, k = cert.source.J, cert.target.J
        a, b = cert.source.A, cert.target.A
        assert cert.S == dense_mul(dense_mul(k, cert.R.transpose()), j)
        assert cert.R == dense_mul(dense_mul(j, cert.S.transpose()), k)
        assert dense_mul(cert.S, a) == dense_mul(b, cert.S)
        if isinstance(cert, HalfElemCert):
            assert cert.S.is_zero_one


def test_companion_equals_dense_product():
    rng = random.Random(89)
    pairs = corpus(seed=89, count=20, max_size=5)
    for src, dst in zip(pairs, pairs[1:] + pairs[:1]):
        rows = [[rng.choice((0, 0, 1, 2, 3)) for _ in dst.alphabet]
                for _ in src.alphabet]
        r = IntMatrix.rect(src.alphabet, dst.alphabet, rows)
        assert _companion(src, dst, r) == \
            dense_mul(dense_mul(dst.J, r.transpose()), src.J)


def dense_he_check(src, dst, R, supplied_S=None):
    """The former he_check, on dense rows through ``_companion`` and
    ``mat_mul``: the identity it refuses, or None where it accepts."""
    if R.row_labels != src.alphabet or R.col_labels != dst.alphabet:
        return "shape"
    if not R.is_zero_one:
        return "R zero-one"
    s = _companion(src, dst, R)
    if supplied_S is not None and supplied_S != s:
        return "S == K*R^T*J"
    if mat_mul(R, s) != src.A:
        return "A == R*S"
    if mat_mul(s, R) != dst.A:
        return "B == S*R"
    return None


def _refusal(src, dst, R, supplied_S=None):
    try:
        he_check(src, dst, R, supplied_S=supplied_S)
    except CertificateError as e:
        return e.identity
    return None


def _with_entry(m: IntMatrix, i: int, j: int, value: int) -> IntMatrix:
    rows = m.to_rows()
    rows[i][j] = value
    return IntMatrix.rect(m.row_labels, m.col_labels, rows)


def test_he_check_refuses_as_the_dense_oracle_does():
    # every built link, every single-bit corruption of its R and of a supplied
    # S, an entry of 2, a foreign label and the planted failures: accepted, or
    # refused by the same identity
    links = []
    for p in corpus(seed=97, count=8, max_size=4):
        links += higher_block(p, 2)[1].links
        links += decompose_conjugacy(_center_read_spec(p, 1)).chain.links
    cases = [(*args, kwargs.get("supplied_S"))
             for checker, args, kwargs, _ in FAILING if checker is he_check]
    # R*S == [[2]]: a product entry past 1, where the ones of A*J match
    full2 = FlipPair(IntMatrix.square("xy", [[1, 1], [1, 1]]), IntMatrix.identity("xy"))
    cases.append((one_point_pair(), full2, IntMatrix.rect("a", "xy", [[1, 1]]), None))
    for link in links:
        src, dst, r, s = link.source, link.target, link.R, link.S
        b, a = next((b, a) for b, row in enumerate(s.entries) for a, x in enumerate(row) if x)
        cases += [(src, dst, r, None), (src, dst, r, s),
                  (src, dst, _with_entry(r, 0, 0, 2), None),
                  (src, dst, r, _with_entry(s, b, a, 2)),
                  (src, dst, IntMatrix.rect((*src.alphabet[:-1], "?"), dst.alphabet,
                                            r.entries), None)]
        for i, j in product(range(r.nrows), range(r.ncols)):
            cases += [(src, dst, _with_entry(r, i, j, 1 - r.entries[i][j]), None),
                      (src, dst, r, _with_entry(s, j, i, 1 - s.entries[j][i]))]
    seen = set()
    for src, dst, R, S in cases:
        want = dense_he_check(src, dst, R, S)
        assert _refusal(src, dst, R, S) == want
        seen.add(want)
    assert seen == {None, "shape", "R zero-one", "S == K*R^T*J", "A == R*S", "B == S*R"}


def _two_cycle_pair():
    labels = ("1", "2")
    return FlipPair(IntMatrix.square(labels, [[0, 1], [1, 0]]),
                    IntMatrix.identity(labels))


def _identity_pair(labels):
    return FlipPair(IntMatrix.identity(labels), IntMatrix.identity(labels))


def _failing_inputs():
    """One input per identity left in the checkers, with the identity it violates."""
    one, gm = one_point_pair(), golden_mean_pair()
    p1, p1i = example1_pair(), example1_symmetric_pair()
    two = _identity_pair(("x", "y"))
    first_only = IntMatrix.rect(("a",), ("x", "y"), [[1, 0]])
    eye_gm = IntMatrix.identity(gm.alphabet)
    wrong_s = IntMatrix.rect(gm.alphabet, gm.alphabet, [[0, 1], [1, 0]])
    power = IntMatrix.rect(p1.alphabet, p1i.alphabet, p1.A.to_rows())
    twice = IntMatrix.rect(("a",), ("a",), [[2]])
    swap, ident2 = _two_cycle_pair(), _identity_pair(("1", "2"))
    return [
        (he_check, (gm, gm, IntMatrix.identity(("1", "x"))), {}, "shape"),
        (he_check, (one, one, twice), {}, "R zero-one"),
        (he_check, (gm, gm, eye_gm), {"supplied_S": wrong_s}, "S == K*R^T*J"),
        (he_check, (p1, p1i, power), {}, "A == R*S"),
        (he_check, (one, two, first_only), {}, "B == S*R"),
        (sfe_check, (one, one, twice, 0), {}, "lag"),
        (sfe_check, (gm, gm, IntMatrix.identity(("1", "x")), 1), {}, "shape"),
        (sfe_check, (one, one, IntMatrix.rect(("a",), ("a",), [[-1]]), 1), {},
         "R nonnegative"),
        (sfe_check, (p1, p1i, p1.A, 1), {}, "A^k == R*S"),
        (sfe_check, (one, two, first_only, 1), {}, "B^k == S*R"),
        (sfe_check, (swap, ident2, IntMatrix.identity(("1", "2")), 2), {},
         "A*R == R*B"),
    ]


FAILING = _failing_inputs()


@pytest.mark.parametrize("checker, args, kwargs, identity", FAILING,
                         ids=[f"{c.__name__}: {i}" for c, _, _, i in FAILING])
def test_every_remaining_identity_can_fail(checker, args, kwargs, identity):
    with pytest.raises(CertificateError) as e:
        checker(*args, **kwargs)
    assert e.value.identity == identity


def naive_he_search(src, dst):
    found = []
    for bits in product((0, 1), repeat=src.size * dst.size):
        rows = [list(bits[i * dst.size:(i + 1) * dst.size]) for i in range(src.size)]
        r = IntMatrix.rect(src.alphabet, dst.alphabet, rows)
        try:
            found.append(he_check(src, dst, r).R)
        except CertificateError:
            pass
    return found


def test_he_search_complete_on_small_alphabets():
    rng = random.Random(43)
    cases = []
    while len(cases) < 6:
        p = random_flip_pair(rng, max_size=3)
        q = random_flip_pair(rng, max_size=3)
        if p.size * q.size <= 9:
            cases.append((p, q))
    cases.append((one_point_pair(), one_point_pair()))
    for src, dst in cases:
        pruned = [c.R for c in he_search(src, dst, max_solutions=600)]
        assert pruned == naive_he_search(src, dst)


def test_he_search_finds_block_certificate():
    gm = golden_mean_pair()
    hb2, chain = higher_block(gm, 1)
    sols = he_search(gm, hb2, max_solutions=10)
    assert chain.links[0].R in [c.R for c in sols]


def test_he_search_example1_empty():
    assert he_search(example1_pair(), example1_symmetric_pair()) == []


def test_he_search_budget():
    p = example2_pair("A")
    with pytest.raises(BudgetError):
        he_search(p, p, cell_budget=30)


def test_gamma_block_identity_style_cert():
    # a bare elementary certificate (R = I, S = A) still resolves blocks
    gm = golden_mean_pair()
    cert = HalfElemCert(source=gm, target=gm,
                        r_ones=IntMatrix.identity(gm.alphabet)._support, s_ones=gm.A._support)
    assert gamma_block(cert, "1", "2") == "1"
    assert gamma_block(cert, "2", "1") == "2"
    with pytest.raises(CertificateError):
        gamma_block(cert, "2", "2")  # inadmissible transition


def test_gamma_point_two_block():
    gm = golden_mean_pair()
    _, chain = higher_block(gm, 1)
    cert = chain.links[0]
    assert gamma_point(cert, ("1", "2")) == ("1 2", "2 1")
    for m in range(1, 6):
        for x in enumerate_periodic(gm.A, m):
            assert gamma_point(cert, shift_point(x, 1)) == \
                shift_point(gamma_point(cert, x), 1)


def test_gamma_point_is_period_preserving_bijection():
    rng = random.Random(53)
    certs = []
    for _ in range(5):
        _, chain = higher_block(random_flip_pair(rng, max_size=4), 1)
        certs.append(chain.links[0])
    _, chain = higher_block(golden_mean_pair(), 1)
    certs.append(chain.links[0])
    for cert in certs:
        for m in range(1, 7):
            src_points = enumerate_periodic(cert.source.A, m)
            images = {gamma_point(cert, x) for x in src_points}
            assert len(images) == len(src_points)
            assert images == set(enumerate_periodic(cert.target.A, m))
            assert trace(mat_pow(cert.source.A, m)) == trace(mat_pow(cert.target.A, m))


def test_verify_prop22():
    p = one_point_pair()
    cert = he_check(p, p, IntMatrix.rect(("a",), ("a",), [[1]]))
    assert verify_prop22(cert).passed

    gm = golden_mean_pair()
    _, chain = higher_block(gm, 1)
    assert verify_prop22(chain.links[0]).passed


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(pair=zero_one_flip_pairs(), other=zero_one_flip_pairs(), n=st.integers(1, 2))
def test_accepted_steps_intertwine_the_flips(pair, other, n):
    # Prop 2.2 for every step higher_block builds and he_search finds
    _, chain = higher_block(pair, n)
    certs = list(chain.links)
    for src, dst in ((pair, other), (other, pair)):
        if src.size * dst.size <= DEFAULT_CELL_BUDGET:
            certs += he_search(src, dst)
    for cert in certs:
        assert verify_prop22(cert).passed


def test_verify_prop22_localizes_on_doctored_cert():
    gm = golden_mean_pair()
    _, chain = higher_block(gm, 1)
    good = chain.links[0]
    # swap two rows of S so some blocks resolve to the wrong image
    bad_s = tuple(good.s_ones[i] for i in (1, 0, 2))
    doctored = HalfElemCert(source=good.source, target=good.target,
                            r_ones=good.r_ones, s_ones=bad_s)
    report = verify_prop22(doctored)
    assert not report.passed
    assert report.first_failure().detail == "transition (1, 1): 1 2 != 2 1"


def _naive_gamma(cert: HalfElemCert, a1: str, a2: str):
    """gamma_block read entry by entry: the identity of its error, or b."""
    if cert.source.A.entry(a1, a2) != 1:
        return "admissible"
    bs = gamma_images(cert, a1, a2)
    return bs[0] if len(bs) == 1 else "unique b"


def test_gamma_block_equals_the_entrywise_oracle():
    gm = golden_mean_pair()
    _, chain = higher_block(gm, 2)
    good = chain.links[0]
    # S with two rows swapped joins some transitions by two b and some by none
    doctored = HalfElemCert(source=good.source, target=good.target, r_ones=good.r_ones,
                            s_ones=tuple(good.s_ones[i] for i in (1, 0, 2)))
    # with S all ones, (2, 2) has a unique b but is not a transition of gm
    loose = HalfElemCert(source=gm, target=gm, r_ones=((0,), (1,)), s_ones=((0, 1), (0, 1)))
    for cert in (*chain.links, doctored, loose):
        for a1, a2 in product(cert.source.alphabet, repeat=2):
            try:
                got = gamma_block(cert, a1, a2)
            except CertificateError as e:
                got = e.identity
            assert got == _naive_gamma(cert, a1, a2)


def test_sse_verify_empty_chain():
    gm = golden_mean_pair()
    chain = StrongChain(gm, ())
    assert chain.pairs == (gm,) and chain.target == gm
    report = sse_verify(chain)
    assert [(c.name, c.passed) for c in report.checks] == [("lag 0", True)]


def test_sse_verify_block_chain_and_corruption():
    gm = golden_mean_pair()
    _, chain = higher_block(gm, 2)
    assert (chain.source, chain.lag, chain.target.size) == (gm, 2, 5)
    # a link taken from another chain does not start where the chain has reached
    _, other = higher_block(example1_pair(), 2)
    with pytest.raises(CertificateError) as e:
        StrongChain(chain.source, (chain.links[0], other.links[1]))
    assert e.value.identity == "link 1 endpoints"
    with pytest.raises(CertificateError) as e:
        StrongChain(example1_pair(), chain.links)
    assert e.value.identity == "link 0 endpoints"
    # a corrupted link is refused where the chain is read, by he_check;
    # the document carries R alone, so no supplied S is compared first
    doc = jsonio.chain_to_doc(chain)
    for link in doc["links"]:
        del link["S"]
    doc["links"][1]["R"][0][0] ^= 1
    with pytest.raises(CertificateError) as e:
        jsonio.chain_from_doc(doc)
    assert e.value.identity in ("A == R*S", "B == S*R")


def test_chain_traces_agree():
    p1 = example1_pair()
    _, chain = higher_block(p1, 3)
    a, b = chain.pairs[0].A, chain.pairs[-1].A
    for m in range(1, 7):
        assert trace(mat_pow(a, m)) == trace(mat_pow(b, m))


def test_sfe_check_examples():
    p1, p1i = example1_pair(), example1_symmetric_pair()
    for k in (1, 2):
        cert = sfe_check(p1, p1i, mat_pow(p1.A, k), 2 * k)
        assert cert.S == mat_pow(p1.A, k)
        assert mat_mul(cert.S, p1.A) == mat_mul(p1i.A, cert.S)
    one = one_point_pair()
    assert sfe_check(one, one, IntMatrix.rect(("a",), ("a",), [[1]]), 1).lag == 1


def test_sfe_check_identity_failure_is_named():
    p1, p1i = example1_pair(), example1_symmetric_pair()
    with pytest.raises(CertificateError) as e:
        sfe_check(p1, p1i, p1.A, 1)
    assert e.value.identity == "A^k == R*S"


def naive_sfe_search(src, dst, lag_max, entry_max):
    found = []
    cells = src.size * dst.size
    for values in product(range(entry_max + 1), repeat=cells):
        rows = [list(values[i * dst.size:(i + 1) * dst.size])
                for i in range(src.size)]
        r = IntMatrix.rect(src.alphabet, dst.alphabet, rows)
        for lag in range(1, lag_max + 1):
            try:
                c = sfe_check(src, dst, r, lag)
                found.append((c.lag, c.R))
            except CertificateError:
                pass
    return sorted(found, key=lambda t: (t[0], t[1].to_rows()))


def test_sfe_search_matches_naive_on_small_cases():
    rng = random.Random(47)
    one, two = one_point_pair(), _identity_pair(("x", "y"))
    # in these two, a kernel candidate passes one power identity and fails the other
    cases = [(one, one), (one, two), (two, one)]
    while len(cases) < 6:
        p = random_flip_pair(rng, max_size=2)
        q = random_flip_pair(rng, max_size=2)
        cases.append((p, q))
    for src, dst in cases:
        fast = sorted(((c.lag, c.R) for c in sfe_bounded_search(src, dst, 2, 1)),
                      key=lambda t: (t[0], t[1].to_rows()))
        assert fast == naive_sfe_search(src, dst, 2, 1)


def test_sfe_search_example1():
    p1, p1i = example1_pair(), example1_symmetric_pair()
    found = sfe_bounded_search(p1, p1i, lag_max=2, entry_max=1)
    assert (2, p1.A) in [(c.lag, c.R) for c in found]


def test_sfe_search_example2_none_within_bounds():
    found = sfe_bounded_search(example2_pair("A"), example2_pair("C"),
                               lag_max=2, entry_max=1)
    assert found == []


def test_sfe_search_budget():
    p = example2_pair("A")
    with pytest.raises(BudgetError):
        sfe_bounded_search(p, p, lag_max=1, entry_max=3, budget=100)
