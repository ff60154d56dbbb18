import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from corpus import corpus, zero_one_flip_pairs
from flipshift import jsonio, matrices
from flipshift.constructions import (OneBlockConjugacySpec, decompose_conjugacy,
                                     higher_block)
from flipshift.equivalence import StrongChain, he_check, he_search, sfe_bounded_search
from flipshift.errors import FlipPairError, FlipShiftError, MatrixShapeError, SchemaError
from flipshift.fixtures import (example1_pair, example1_symmetric_pair,
                                example2_matrix, example2_pair, golden_mean_pair)
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


_FLAT = {"rows": [{"m": 1, "n": 0, "count": 3}, {"a\u00e9\n": "x\"y", 2: None, 1.5: True}],
         "coeffs": ["1", "-1/2", "\ud800"], "mixed": [1, "a", 2.5, float("nan"), False, None],
         "inputs": {"p.json": "ab" * 32}}


@pytest.mark.parametrize("c_encoder", [True, False], ids=["C encoder", "python encoder"])
def test_flat_containers_are_written_whole_as_json_dumps_writes_them(c_encoder, monkeypatch):
    if not c_encoder:
        monkeypatch.setattr(jsonio, "c_make_encoder", None)
    jsonio._flat.cache_clear()
    try:
        assert jsonio.dumps(_FLAT) == json.dumps(_FLAT, indent=2)
        assert jsonio.dumps([_FLAT]) == json.dumps([_FLAT], indent=2)
    finally:
        jsonio._flat.cache_clear()


def test_a_count_report_is_written_one_call_per_row(monkeypatch):
    rows = [{"m": m, "n": n, "count": 2 ** m + n} for m in range(1, 11) for n in (0, 1)]
    report = {"command": "count", "inputs": {"p.json": "ab" * 32}, "rows": rows}
    calls = []
    write = jsonio._write
    monkeypatch.setattr(jsonio, "_write", lambda *args: calls.append(1) or write(*args))
    assert jsonio.dumps(report) == json.dumps(report, indent=2)
    assert len(calls) == 4 + len(rows)  # the report, its three values, each row


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
    (jsonio.matrix_from_doc, {"labels": "ab", "rows": [[1]]},
     "matrix.labels: expected list, got str"),
    (jsonio.matrix_from_doc, {"row_labels": ["a"], "rows": [[1]]},
     "matrix.col_labels: expected list, got NoneType"),
])
def test_reader_refusals(read, doc, message):
    with pytest.raises(SchemaError) as e:
        read(doc)
    assert str(e.value) == message


# Each document holds two faults; the reader reports the one it always has.
@pytest.mark.parametrize("doc, error, message", [
    ({**_GM_DOC, "A": [[1, 1], [1]], "J": [[1, 0], [0, True]]},
     SchemaError, "pair.J[1][1]: expected integer, got True"),
    ({**_GM_DOC, "alphabet": ["1", "1"], "A": [[1, 2], [1, 0]]},
     SchemaError, "pair: duplicate labels: ('1', '1')"),
    ({**_GM_DOC, "A": [[1, 2], [1, 0]], "J": [[0, 1], [0, 1]]},
     FlipPairError, "transition matrix has an entry outside {0,1}"),
    ({**_GM_DOC, "alphabet": ["1", ""], "A": [[1, 1], [0, 0]]},
     FlipPairError, "empty symbol label"),
], ids=["bool in J, ragged A", "duplicate label, 2 in A", "2 in A, J not involutive",
        "empty label, no flip symmetry"])
def test_reader_reports_the_first_of_two_faults(doc, error, message):
    with pytest.raises(error) as e:
        jsonio.pair_from_doc(doc)
    assert str(e.value) == message


@lru_cache(maxsize=None)
def _block_pair_doc(n: int) -> tuple:
    """Example 2's (n+1)-block pair of A and its document: 20 symbols at n = 1, 359 at 4."""
    pair, _ = higher_block(example2_pair("A"), n)
    return pair, json.dumps(jsonio.pair_to_doc(pair))


@pytest.mark.parametrize("n, size", [(1, 20), (4, 359)])
def test_the_reader_checks_a_valid_document_once(n, size, monkeypatch):
    pair, text = _block_pair_doc(n)

    def refuse(*args):
        raise AssertionError("a valid document was checked again")

    monkeypatch.setattr(jsonio, "_first_non_int", refuse)
    monkeypatch.setattr(matrices, "_first_non_int", refuse)
    monkeypatch.setattr(IntMatrix, "__post_init__", refuse)
    doc = json.loads(text)
    back = jsonio.pair_from_doc(doc)
    assert back.size == size and back == pair
    assert jsonio.matrix_from_doc({"labels": doc["alphabet"], "rows": doc["A"]}) == pair.A


def _built(alphabet, a_rows, j_rows):
    """The pair the checked constructors build, or the error they raise."""
    try:
        return FlipPair(IntMatrix.square(alphabet, a_rows), IntMatrix.square(alphabet, j_rows))
    except FlipShiftError as e:
        return e


_DEFECTS = ["none", "bool", "float", "int subclass", "ragged row", "missing row", "entry 2",
            "J not involutive", "duplicate label"]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(pair=zero_one_flip_pairs(), data=st.data())
def test_a_planted_defect_is_read_as_the_checked_constructors_build_it(pair, data):
    doc = jsonio.pair_to_doc(pair)
    n = pair.size
    defect = data.draw(st.sampled_from(_DEFECTS))
    rows = doc[data.draw(st.sampled_from("AJ"))]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if defect == "bool":
        rows[i][j] = bool(rows[i][j])
    elif defect == "float":
        rows[i][j] = float(rows[i][j])
    elif defect == "int subclass":
        rows[i][j] = _Int(rows[i][j])
    elif defect == "ragged row":
        rows[i] = rows[i][:-1] if data.draw(st.booleans()) else rows[i] + [0]
    elif defect == "missing row":
        del rows[i]
    elif defect == "entry 2":
        rows[i][j] = 2
    elif defect == "J not involutive":  # row i's one moves to column j, or goes
        doc["J"][i] = [int(k == j != pair.tau_index[i]) for k in range(n)]
    elif defect == "duplicate label":
        assume(n > 1)
        doc["alphabet"][i] = doc["alphabet"][(i + 1) % n]
    want = _built(doc["alphabet"], doc["A"], doc["J"])
    try:
        got = jsonio.pair_from_doc(doc)
    except FlipShiftError as e:
        got = e
    if isinstance(want, FlipPair):
        assert got == want
    elif isinstance(want, FlipPairError):
        assert type(got) is FlipPairError and (got.axiom, str(got)) == (want.axiom, str(want))
    else:
        assert isinstance(want, MatrixShapeError) and type(got) is SchemaError
    if defect in ("none", "int subclass"):
        assert got == pair
    elif defect in ("bool", "float", "ragged row", "missing row", "duplicate label"):
        assert type(got) is SchemaError
