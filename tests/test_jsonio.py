import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from corpus import corpus
from flipshift import jsonio
from flipshift.constructions import (OneBlockConjugacySpec, decompose_conjugacy,
                                     higher_block)
from flipshift.equivalence import StrongChain, he_check, he_search, sfe_bounded_search
from flipshift.errors import SchemaError
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                example2_matrix, golden_mean_pair)
from flipshift.flips import FlipPair
from flipshift.matrices import IntMatrix
from flipshift.series import TruncatedSeries
from flipshift.shifts import word_center


def test_matrix_round_trip_square():
    m = example2_matrix("B")
    doc = {"labels": list(m.row_labels), "rows": m.to_rows()}
    assert jsonio.matrix_from_doc(doc) == m


def test_matrix_round_trip_rect():
    m = IntMatrix.rect("ab", "xyz", [[1, 2, 3], [4, 5, 6]])
    doc = {"row_labels": ["a", "b"], "col_labels": ["x", "y", "z"], "rows": m.to_rows()}
    assert jsonio.matrix_from_doc(doc) == m


def test_matrix_schema_error_path():
    with pytest.raises(SchemaError) as e:
        jsonio.matrix_from_doc({"labels": ["a"], "rows": [[1, "x"]]})
    assert "rows[0][1]" in str(e.value)


class _Int(int):
    def __repr__(self):
        return f"_Int({int(self)})"


def test_int_rows_take_int_subclasses_and_name_the_first_bad_entry():
    m = jsonio.matrix_from_doc({"labels": ["a", "b"], "rows": [[1, _Int(0)], [0, 1]]})
    assert m == IntMatrix.identity("ab")
    with pytest.raises(SchemaError) as e:
        jsonio.matrix_from_doc({"labels": ["a", "b"], "rows": [[1, 0], [0, True]]})
    assert str(e.value) == "matrix.rows[1][1]: expected integer, got True"


def test_labels_must_be_strings():
    doc = {"alphabet": ["a", 1], "A": [[1, 0], [0, 1]], "J": [[1, 0], [0, 1]]}
    with pytest.raises(SchemaError) as e:
        jsonio.pair_from_doc(doc)
    assert str(e.value) == "pair.alphabet[1]: expected str, got int"


def test_pair_round_trip():
    p = example1_pair()
    doc = jsonio.pair_to_doc(p)
    back = jsonio.pair_from_doc(doc)
    assert back == p
    assert back.name == p.name


def test_pair_duplicate_labels_rejected():
    doc = {"alphabet": ["a", "a"], "A": [[1, 0], [0, 1]], "J": [[1, 0], [0, 1]]}
    with pytest.raises(SchemaError):
        jsonio.pair_from_doc(doc)


def test_series_round_trip():
    s = TruncatedSeries.from_coeffs(4, [1, Fraction(1, 2), 0, Fraction(-7, 3)])
    doc = jsonio.series_to_doc(s)
    assert doc["coeffs"] == ["1", "1/2", "0", "-7/3", "0"]
    assert TruncatedSeries(doc["order"], tuple(map(Fraction, doc["coeffs"]))) == s


def test_chain_round_trip_reverifies():
    gm = golden_mean_pair()
    _, chain = higher_block(gm, 2)
    doc = jsonio.chain_to_doc(chain)
    back = jsonio.chain_from_doc(doc)
    assert back.lag == chain.lag
    assert back.pairs == chain.pairs
    assert all(a.R == b.R and a.S == b.S for a, b in zip(back.links, chain.links))


def test_chain_link_count_mismatch():
    gm = golden_mean_pair()
    doc = {"pairs": [jsonio.pair_to_doc(gm)], "links": [{"kind": "he", "R": [[1]]}]}
    with pytest.raises(SchemaError):
        jsonio.chain_from_doc(doc)


def test_blockflip_doc_round_trip():
    gm = golden_mean_pair()
    doc = {"A": {"labels": ["1", "2"], "rows": gm.A.to_rows()}, "window": 0,
           "phi": [{"block": "1", "image": "1"}, {"block": "2", "image": "2"}]}
    spec = jsonio.blockflip_from_doc(doc)
    assert spec.window == 0
    assert spec.rule == {("1",): "1", ("2",): "2"} and spec.A == gm.A


def test_conjugacy_doc_round_trip():
    gm = golden_mean_pair()
    target = gm.relabel({"1": "b", "2": "a"}).reorder(("a", "b"))
    doc = {"from": jsonio.pair_to_doc(gm), "to": jsonio.pair_to_doc(target),
           "psi": {"1": "b", "2": "a"}, "inverse_window": 0}
    spec = jsonio.conjugacy_from_doc(doc)
    assert spec.inverse_window == 0
    assert spec.psi == {"1": "b", "2": "a"} and spec.source == gm and spec.target == target
    with pytest.raises(SchemaError):
        jsonio.conjugacy_from_doc({**doc, "inverse_window": "x"})


# -- the writer against json.dumps at indent 2 -------------------------------------

_TEXT = st.text(st.one_of(st.characters(blacklist_categories=()),
                          st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udfff\U0001f600')),
                max_size=8)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf")]), _TEXT,
    st.lists(st.integers(-2 ** 200, 2 ** 200)),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans(), st.none())),
    st.lists(st.integers(-3, 3).map(_Int), max_size=3))
_DIGIT = st.integers(0, 9)
# entries a row of digits may meet in a document: bools, wider ints, int subclasses
_BREAKER = st.one_of(st.sampled_from([True, False, 10, 255, 256, -1]), _DIGIT.map(_Int))


@st.composite
def _matrices(draw):
    """Rows of one length with entries 0..9, as lists or tuples, at times
    with one entry, one empty row or one longer row that breaks them."""
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_DIGIT, min_size=width, max_size=width),
                         min_size=1, max_size=5))
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["none", "entry", "empty", "ragged"]))
    if kind == "entry":
        rows[i][draw(st.integers(0, width - 1))] = draw(_BREAKER)
    elif kind == "empty":
        rows[i] = []
    elif kind == "ragged":
        rows[i].append(draw(_DIGIT))
    return draw(st.sampled_from([rows, tuple(map(tuple, rows)), [tuple(r) for r in rows]]))


_LEAVES = st.one_of(_LEAVES, _matrices())
_KEYS = st.one_of(_TEXT, st.integers(), st.booleans(), st.none(), st.floats())
_DOCS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=20)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(doc=_DOCS)
def test_dumps_is_json_dumps_at_indent_two(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, indent=2)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rows=_matrices())
def test_dumps_writes_rows_as_json_dumps(rows):
    assert jsonio.dumps(rows) == json.dumps(rows, indent=2)
    assert jsonio.dumps({"A": rows}) == json.dumps({"A": rows}, indent=2)


@pytest.mark.parametrize("doc", [{(1,): 2}, {"a": [1, {2, 3}]}, [object()], b"x"])
def test_dumps_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as theirs:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as ours:
        jsonio.dumps(doc)
    assert str(ours.value) == str(theirs.value)


# -- the writer on pairs, certificates and chains ------------------------------------

@lru_cache(maxsize=None)
def _written_objects() -> tuple:
    """Named and corpus pairs, and every chain from ``higher_block``,
    ``decompose_conjugacy`` and ``he_search`` on them, with their links and
    pairs; lag-k certificates too, whose R and S are integral."""
    objs: list = [example1_pair(), golden_mean_pair(), example1_symmetric_pair()]
    for base in corpus(seed=83, count=10, max_size=4) + [golden_mean_pair()]:
        hb3, chain = higher_block(base, 2)
        psi = {lab: word_center(tuple(lab.split(" "))) for lab in hb3.alphabet}
        chains = [higher_block(base, 1)[1], chain,
                  decompose_conjugacy(OneBlockConjugacySpec(hb3, base, psi, 1)).chain]
        hb2 = chain.pairs[1]
        if base.size * hb2.size <= 30:
            chains += [StrongChain(base, (c,)) for c in he_search(base, hb2, max_solutions=2)]
        for c in chains:
            objs += [c, *c.links, *c.pairs]
        objs += sfe_bounded_search(base, base, lag_max=2, entry_max=1)[:2]
    return tuple(objs)


def _to_doc(obj) -> dict:
    if isinstance(obj, FlipPair):
        return jsonio.pair_to_doc(obj)
    if isinstance(obj, StrongChain):
        return jsonio.chain_to_doc(obj)
    return jsonio.cert_to_doc(obj)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_dumps_writes_objects_as_json_dumps_of_their_documents(data):
    obj = data.draw(st.sampled_from(_written_objects()))
    payload, doc = obj, _to_doc(obj)
    for _ in range(data.draw(st.integers(0, 3))):
        before, after = (data.draw(st.lists(_DIGIT, max_size=2)) for _ in "ab")
        if data.draw(st.booleans()):
            payload, doc = [*before, payload, *after], [*before, doc, *after]
        else:
            key = data.draw(_TEXT)
            payload = {**dict.fromkeys(map(str, before), 0), key: payload, "~": after}
            doc = {**dict.fromkeys(map(str, before), 0), key: doc, "~": after}
    assert jsonio.dumps(payload) == json.dumps(doc, indent=2)


def test_a_mutated_chain_document_is_written_as_mutated():
    _, chain = higher_block(golden_mean_pair(), 2)
    doc = jsonio.chain_to_doc(chain)
    doc["links"][1]["R"][0][0] ^= 1
    assert jsonio.dumps(doc) == json.dumps(doc, indent=2) != jsonio.dumps(chain)


def test_the_writer_reads_pairs_and_steps_through_their_ones(monkeypatch):
    block_pair, chain = higher_block(example1_pair(), 2)
    expected = json.dumps({"pair": jsonio.pair_to_doc(block_pair),
                           "chain": jsonio.chain_to_doc(chain)}, indent=2)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense matrix was made for the writer")

    monkeypatch.setattr(IntMatrix, "to_rows", refuse)
    monkeypatch.setattr(IntMatrix, "_from_ones", refuse)
    assert jsonio.dumps({"pair": block_pair, "chain": chain}) == expected
    assert "J" not in vars(block_pair)


def test_pairs_and_steps_from_outside_keep_the_matrices_they_were_checked_from(monkeypatch):
    _, chain = higher_block(example1_pair(), 2)
    doc = jsonio.chain_to_doc(chain)
    back = jsonio.chain_from_doc(doc)
    a, j, r = back.source.A, back.source.J, back.links[0].R
    pair = FlipPair(a, j)
    cert = he_check(pair, back.pairs[1], r)

    def refuse(*args):
        raise AssertionError("a checked matrix was built again from its ones")

    monkeypatch.setattr(IntMatrix, "_from_ones", refuse)
    for p, pdoc in zip(back.pairs, doc["pairs"]):
        assert (p.A.to_rows(), p.J.to_rows()) == (pdoc["A"], pdoc["J"])
    for link, ldoc in zip(back.links, doc["links"]):
        assert link.R.to_rows() == ldoc["R"]
    assert pair.A is a and pair.J is j and cert.R is r


_GM_DOC = {"alphabet": ["1", "2"], "A": [[1, 1], [1, 0]], "J": [[1, 0], [0, 1]]}
_GM_MATRIX = {"labels": ["1", "2"], "rows": [[1, 1], [1, 0]]}


@pytest.mark.parametrize("read, doc, message", [
    (jsonio.matrix_from_doc, [], "matrix: expected dict, got list"),
    (jsonio.matrix_from_doc, {"labels": ["a"], "rows": [[1.5]]},
     "matrix.rows[0][0]: expected integer, got 1.5"),
    (jsonio.matrix_from_doc, {"labels": ["a"], "rows": [1]},
     "matrix.rows[0]: expected list, got int"),
    (jsonio.matrix_from_doc, {"labels": ["a", "a"], "rows": [[1, 0], [0, 1]]},
     "matrix: duplicate labels: ('a', 'a')"),
    (jsonio.matrix_from_doc, {"labels": ["a", "b"], "rows": [[1, 0]]},
     "matrix: 1 rows for 2 row labels"),
    (jsonio.matrix_from_doc, {"row_labels": ["a"], "col_labels": ["b", "b"], "rows": [[1, 1]]},
     "matrix: duplicate labels: ('b', 'b')"),
    (jsonio.pair_from_doc, {**_GM_DOC, "A": [[1, 1], [1]]},
     "pair: row of length 1 for 2 column labels"),
    (jsonio.pair_from_doc, {**_GM_DOC, "J": [[True, 0], [0, 1]]},
     "pair.J[0][0]: expected integer, got True"),
    (jsonio.pair_from_doc, {**_GM_DOC, "name": 3}, "pair.name: expected str, got int"),
    (lambda doc: jsonio.rect_from_doc(doc, ("a",), ("b", "c"), "R"), [[1]],
     "R: row of length 1 for 2 column labels"),
    (jsonio.chain_from_doc, {"pairs": []}, "chain.pairs: a chain needs at least one pair"),
    (jsonio.chain_from_doc, {"pairs": [_GM_DOC], "links": [{}]},
     "chain.links: 1 links do not fit 1 pairs"),
    (jsonio.chain_from_doc, {"pairs": [_GM_DOC, _GM_DOC], "links": [{"kind": "sfe"}]},
     "chain.links[0].kind: chain links must have kind 'he'"),
    (jsonio.blockflip_from_doc, {"A": _GM_MATRIX, "window": -1, "phi": []},
     "spec.window: expected integer >= 0"),
    (jsonio.blockflip_from_doc, {"A": _GM_MATRIX, "window": True, "phi": []},
     "spec.window: expected integer >= 0"),
    (jsonio.blockflip_from_doc, {"A": _GM_MATRIX, "window": 0, "phi": [{"block": 1}]},
     "spec.phi[0].block: expected str, got int"),
    (jsonio.conjugacy_from_doc, {"from": _GM_DOC, "to": _GM_DOC, "psi": {"1": 1}},
     "conjugacy.psi[1]: expected str, got int"),
    (jsonio.conjugacy_from_doc, {"from": _GM_DOC, "to": _GM_DOC, "psi": {}, "inverse_window": -1},
     "conjugacy.inverse_window: expected integer >= 0"),
])
def test_reader_refusals(read, doc, message):
    with pytest.raises(SchemaError) as e:
        read(doc)
    assert str(e.value) == message
