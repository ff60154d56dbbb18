"""JSON document schemas for every value the command line reads or writes.

Schemas (all integers are exact, series coefficients are fraction strings):

* square matrix   {"labels": [str...], "rows": [[int...]...]}
* general matrix  {"row_labels": [...], "col_labels": [...], "rows": [[int...]...]}
* flip pair       {"name"?: str, "alphabet": [str...], "A": rows, "J": rows}
* series          {"order": int, "coeffs": ["p/q" | "p", ...]}
* certificate     {"kind": "he"|"sfe", "lag": int, "R": rows, "S"?: rows}
                  (labels come from the flanking pairs)
* witness R       rows, {"rows": rows}, or a matrix whose row labels are the
                  source alphabet and column labels the target's, in order
* chain           {"pairs": [pair...], "links": [certificate...]}
* block flip rule {"A": matrix, "window": int,
                   "phi": [{"block": "a b c", "image": "d"}...]}
* conjugacy       {"from": pair, "to": pair, "psi": {label: label},
                   "inverse_window": int}

Every parser raises SchemaError with the offending field path.  A document is
checked once: each label list is read once, the entry types and row types of a
whole matrix in one C pass each, the label repeats and the shape once, and the
matrices are then built unchecked.  Only a document that fails a whole pass is
scanned row by row, to name its first bad entry.  A pair's axioms are then
checked by ``FlipPair``, a zero-one test on each matrix first.  A pair
document's faults are reported in one fixed order: label types, the entries
of A, then of J, the name, repeated labels, the shape of A, then of J, and
last the pair's axioms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import chain
from json.encoder import c_make_encoder
from typing import Any

from .constructions import BlockFlipSpec, OneBlockConjugacySpec
from .equivalence import HalfElemCert, ShiftFlipCert, StrongChain, he_check
from .errors import FlipShiftError, SchemaError
from .flips import FlipPair
from .matrices import IntMatrix, _as_labels, _first_non_int, _Ones, _rows_of_ones
from .series import TruncatedSeries


def _expect(doc: Any, kind: type, path: str):
    if not isinstance(doc, kind):
        raise SchemaError(path, f"expected {kind.__name__}, got {type(doc).__name__}")
    return doc


def _str_list(doc: Any, path: str) -> list[str]:
    _expect(doc, list, path)
    if not set(map(type, doc)) <= {str}:
        for i, x in enumerate(doc):
            _expect(x, str, f"{path}[{i}]")
    return doc


def _int_rows(doc: Any, path: str) -> list[list[int]]:
    """``doc`` as rows of ints.  A list of lists of plain ints passes in two C passes
    over the whole document; any other is scanned row by row, which names its first
    bad row or entry and lets int subclasses pass."""
    if type(doc) is list and set(map(type, doc)) <= {list} \
            and set(map(type, chain.from_iterable(doc))) <= {int}:
        return doc
    _expect(doc, list, path)
    for i, row in enumerate(doc):
        _expect(row, list, f"{path}[{i}]")
        j = _first_non_int(row)
        if j is not None:
            raise SchemaError(f"{path}[{i}][{j}]", f"expected integer, got {row[j]!r}")
    return doc


def _at(path: str, make, *args):
    """``make(*args)``, with a fault in it reported as a SchemaError at ``path``."""
    try:
        return make(*args)
    except FlipShiftError as e:
        raise SchemaError(path, str(e)) from e


def rect_from_doc(doc: Any, row_labels: tuple[str, ...], col_labels: tuple[str, ...],
                  path: str) -> IntMatrix:
    """Integer rows labelled by the given alphabets, e.g. a certificate's R or S."""
    rows = _int_rows(doc, path)
    return _at(path, IntMatrix._of_int_rows, _at(path, _as_labels, row_labels),
               _at(path, _as_labels, col_labels), rows)


# -- writing ---------------------------------------------------------------------

_STR = json.encoder.encode_basestring_ascii
_SCALAR = json.JSONEncoder(check_circular=False).encode  # any other leaf, or a refusal
_LEAF = {str: _STR, int: int.__repr__}  # the common leaves, by exact type
_SCALARS = {str, int, float, bool, type(None)}  # json's leaves, by exact type


@cache
def _flat(inner: str):
    """json's encoder with the item separator of a container whose items sit at
    ``inner``, called as ``encode(obj, 0)`` for the pieces of a flat container written
    whole, its items on the right lines; the C one when the interpreter has it."""
    if c_make_encoder is None:
        return json.JSONEncoder(separators=("," + inner, ": "), check_circular=False).iterencode
    return c_make_encoder(None, _SCALAR, _STR, None, ": ", "," + inner, False, False, True)


def dumps(obj: Any) -> str:
    """The text of ``json.dumps(obj, indent=2)``, with any pair, certificate or chain
    in ``obj`` read as its document (``pair_to_doc``, ``cert_to_doc``, ``chain_to_doc``)
    but written from its ones (``_ZeroOne``); the rest mostly by C code, since json's
    C encoder runs only without indent: a list, or a dict, of scalars is one call."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj: Any, nl: str, out: list[str]) -> None:
    inner = nl + "  "
    if not isinstance(obj, (list, tuple, dict)):
        if isinstance(obj, (FlipPair, HalfElemCert, ShiftFlipCert, StrongChain)):
            return _write(_doc(obj, _ZeroOne), nl, out)
        out.append(obj.text(nl) if type(obj) is _ZeroOne else _LEAF.get(type(obj), _SCALAR)(obj))
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif set(map(type, obj)) <= _SCALARS and (
            not isinstance(obj, dict) or set(map(type, obj.values())) <= _SCALARS):
        text = "".join(_flat(inner)(obj, 0))
        out.append(f"{text[0]}{inner}{text[1:-1]}{nl}{text[-1]}")
    elif isinstance(obj, dict):
        for i, (k, v) in enumerate(obj.items()):
            out.append(("{" if i == 0 else ",") + inner + _key(k) + ": ")
            _write(v, inner, out)
        out.append(nl + "}")
    else:
        for i, x in enumerate(obj):
            out.append(("[" if i == 0 else ",") + inner)
            _write(x, inner, out)
        out.append(nl + "]")


@dataclass(frozen=True, slots=True)
class _ZeroOne:
    """A zero-one matrix as the writer meets it: its ones and its width."""

    ones: _Ones
    ncols: int

    def text(self, nl: str) -> str:
        """The rows as json writes them at ``nl``: all-zero text, a 1 set at each one."""
        if not self.ones:
            return "[]"
        inner, entry = nl + "  ", nl + "    "
        row = f"[{entry}{('0,' + entry) * (self.ncols - 1)}0{inner}]" if self.ncols else "[]"
        sep = "," + inner
        buf = bytearray(f"[{inner}{sep.join([row] * len(self.ones))}{nl}]", "ascii")
        first, stride, step = 2 + len(inner) + len(entry), len(row) + len(sep), 2 + len(entry)
        for r, js in enumerate(self.ones):
            at = first + r * stride
            for j in js:
                buf[at + j * step] = 49  # "1"
        return buf.decode()


def _key(k: Any) -> str:
    """A dict key as json writes it."""
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return _STR(k if isinstance(k, str) else _SCALAR(k))


# -- matrices --------------------------------------------------------------------

def matrix_from_doc(doc: Any, path: str = "matrix") -> IntMatrix:
    _expect(doc, dict, path)
    rows = _int_rows(doc.get("rows"), f"{path}.rows")
    if "labels" in doc:
        rl = cl = _str_list(doc["labels"], f"{path}.labels")
    else:
        rl = _str_list(doc.get("row_labels"), f"{path}.row_labels")
        cl = _str_list(doc.get("col_labels"), f"{path}.col_labels")
    row_labels = _at(path, _as_labels, rl)
    col_labels = row_labels if cl is rl else _at(path, _as_labels, cl)
    return _at(path, IntMatrix._of_int_rows, row_labels, col_labels, rows)


def r_from_doc(doc: Any, row_labels: tuple[str, ...], col_labels: tuple[str, ...],
               path: str = "R") -> IntMatrix:
    """A witness R: rows, or ``{"rows": ...}``, in the order of the given alphabets,
    or a matrix document whose labels are those alphabets."""
    if not isinstance(doc, dict):
        return rect_from_doc(doc, row_labels, col_labels, path)
    if not {"labels", "row_labels", "col_labels"} & doc.keys():
        return rect_from_doc(doc.get("rows", doc), row_labels, col_labels, path)
    m = matrix_from_doc(doc, path)
    if m.row_labels != row_labels or m.col_labels != col_labels:
        raise SchemaError(path, f"row and column labels must be {row_labels} and {col_labels}")
    return m


# -- flip pairs --------------------------------------------------------------------

def pair_to_doc(p: FlipPair) -> dict:
    return _doc(p, _rows_of_ones)


def pair_from_doc(doc: Any, path: str = "pair") -> FlipPair:
    _expect(doc, dict, path)
    alphabet = _str_list(doc.get("alphabet"), f"{path}.alphabet")
    a_rows = _int_rows(doc.get("A"), f"{path}.A")
    j_rows = _int_rows(doc.get("J"), f"{path}.J")
    name = doc.get("name")
    if name is not None:
        _expect(name, str, f"{path}.name")
    labels = _at(path, _as_labels, alphabet)
    return FlipPair(_at(path, IntMatrix._of_int_rows, labels, labels, a_rows),
                    _at(path, IntMatrix._of_int_rows, labels, labels, j_rows), name=name)


# -- series --------------------------------------------------------------------

def series_to_doc(s: TruncatedSeries) -> dict:
    return {"order": s.order, "coeffs": [str(c) for c in s.coeffs]}

# -- certificates and chains -----------------------------------------------------------

def cert_to_doc(cert: HalfElemCert | ShiftFlipCert) -> dict:
    return _doc(cert, _rows_of_ones)


def chain_to_doc(chain: StrongChain) -> dict:
    return _doc(chain, _rows_of_ones)


def _doc(obj: FlipPair | HalfElemCert | ShiftFlipCert | StrongChain, rows) -> dict:
    """The document of a pair, a certificate or a chain, each zero-one matrix
    made by ``rows(ones, ncols)``; a lag-k certificate's R and S are integral."""
    if isinstance(obj, FlipPair):
        doc = {"name": obj.name} if obj.name else {}
        doc.update(alphabet=list(obj.alphabet), A=rows(obj._succ, obj.size),
                   J=rows([(t,) for t in obj.tau_index], obj.size))
        return doc
    if isinstance(obj, HalfElemCert):
        return {"kind": "he", "lag": 1, "R": rows(obj.r_ones, obj.target.size),
                "S": rows(obj.s_ones, obj.source.size)}
    if isinstance(obj, ShiftFlipCert):
        return {"kind": "sfe", "lag": obj.lag, "R": obj.R.to_rows(), "S": obj.S.to_rows()}
    return {"pairs": [_doc(p, rows) for p in obj.pairs],
            "links": [_doc(link, rows) for link in obj.links]}


def chain_from_doc(doc: Any, path: str = "chain") -> StrongChain:
    """Parse a chain from outside, checking each link once with ``he_check``.

    The document lists every pair; link i is read between pairs i and i+1,
    so the joints hold and only the link count is checked against the pairs.
    A bad link raises ``CertificateError`` here.
    """
    _expect(doc, dict, path)
    raw_pairs = _expect(doc.get("pairs"), list, f"{path}.pairs")
    pairs = tuple(pair_from_doc(p, f"{path}.pairs[{i}]") for i, p in enumerate(raw_pairs))
    if not pairs:
        raise SchemaError(f"{path}.pairs", "a chain needs at least one pair")
    raw_links = _expect(doc.get("links", []), list, f"{path}.links")
    if len(raw_links) != len(pairs) - 1:
        raise SchemaError(f"{path}.links",
                          f"{len(raw_links)} links do not fit {len(pairs)} pairs")
    links = []
    for i, ldoc in enumerate(raw_links):
        lp = f"{path}.links[{i}]"
        _expect(ldoc, dict, lp)
        if ldoc.get("kind", "he") != "he":
            raise SchemaError(f"{lp}.kind", "chain links must have kind 'he'")
        src, dst = pairs[i], pairs[i + 1]
        r = rect_from_doc(ldoc.get("R"), src.alphabet, dst.alphabet, f"{lp}.R")
        supplied = None
        if "S" in ldoc:
            supplied = rect_from_doc(ldoc["S"], dst.alphabet, src.alphabet, f"{lp}.S")
        links.append(he_check(src, dst, r, supplied_S=supplied))
    return StrongChain(pairs[0], tuple(links))


# -- block flip rules and conjugacies ----------------------------------------------------

def blockflip_from_doc(doc: Any, path: str = "spec") -> BlockFlipSpec:
    _expect(doc, dict, path)
    a = matrix_from_doc(doc.get("A"), f"{path}.A")
    window = doc.get("window")
    if not isinstance(window, int) or isinstance(window, bool) or window < 0:
        raise SchemaError(f"{path}.window", "expected integer >= 0")
    raw = _expect(doc.get("phi"), list, f"{path}.phi")
    rule: dict[tuple[str, ...], str] = {}
    for i, entry in enumerate(raw):
        ep = f"{path}.phi[{i}]"
        _expect(entry, dict, ep)
        block = _expect(entry.get("block"), str, f"{ep}.block")
        image = _expect(entry.get("image"), str, f"{ep}.image")
        rule[tuple(block.split())] = image
    return BlockFlipSpec(a, window, rule)


def conjugacy_from_doc(doc: Any, path: str = "conjugacy") -> OneBlockConjugacySpec:
    _expect(doc, dict, path)
    src = pair_from_doc(doc.get("from"), f"{path}.from")
    dst = pair_from_doc(doc.get("to"), f"{path}.to")
    psi = _expect(doc.get("psi"), dict, f"{path}.psi")
    for k, v in psi.items():
        _expect(k, str, f"{path}.psi key")
        _expect(v, str, f"{path}.psi[{k}]")
    m = doc.get("inverse_window")
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise SchemaError(f"{path}.inverse_window", "expected integer >= 0")
    return OneBlockConjugacySpec(src, dst, dict(psi), m)
