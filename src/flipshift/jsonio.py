"""JSON document schemas for every value the command line reads or writes.

Schemas (all integers are exact, series coefficients are fraction strings):

* square matrix   {"labels": [str...], "rows": [[int...]...]}
* general matrix  {"row_labels": [...], "col_labels": [...], "rows": [[int...]...]}
* flip pair       {"name"?: str, "alphabet": [str...], "A": rows, "J": rows}
* series          {"order": int, "coeffs": ["p/q" | "p", ...]}
* certificate     {"kind": "he"|"sfe", "lag": int, "R": rows, "S"?: rows}
                  (labels come from the flanking pairs)
* chain           {"pairs": [pair...], "links": [certificate...]}
* block flip rule {"A": matrix, "window": int,
                   "phi": [{"block": "a b c", "image": "d"}...]}
* conjugacy       {"from": pair, "to": pair, "psi": {label: label},
                   "inverse_window": int}

Every parser raises SchemaError with the offending field path.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any

from .constructions import BlockFlipSpec, OneBlockConjugacySpec
from .equivalence import HalfElemCert, ShiftFlipCert, StrongChain, he_check
from .errors import FlipShiftError, SchemaError
from .flips import FlipPair
from .matrices import IntMatrix
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
    return list(doc)


def _int_rows(doc: Any, path: str) -> list[list[int]]:
    _expect(doc, list, path)
    rows = []
    for i, row in enumerate(doc):
        _expect(row, list, f"{path}[{i}]")
        if not set(map(type, row)) <= {int}:
            # int subclasses other than bool pass too; the loop names the first bad entry
            for j, x in enumerate(row):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise SchemaError(f"{path}[{i}][{j}]", f"expected integer, got {x!r}")
        rows.append(list(row))
    return rows


def rect_from_doc(doc: Any, row_labels: tuple[str, ...], col_labels: tuple[str, ...],
                  path: str) -> IntMatrix:
    """Integer rows labelled by the given alphabets, e.g. a certificate's R or S."""
    rows = _int_rows(doc, path)
    try:
        return IntMatrix.rect(row_labels, col_labels, rows)
    except FlipShiftError as e:
        raise SchemaError(path, str(e)) from e


# -- writing ---------------------------------------------------------------------

_STR = json.encoder.encode_basestring_ascii
_SCALAR = json.JSONEncoder(check_circular=False).encode  # any other leaf, or a refusal
_LEAF = {str: _STR, int: int.__repr__}  # the common leaves, by exact type
_DIGIT_INTS, _DIGITS = set(range(10)), b"0123456789".ljust(256)  # byte i to its digit


def dumps(obj: Any) -> str:
    """The text ``json.dumps`` writes for ``obj`` at indent 2, mostly by C code:
    json's C encoder runs only without indent, so a list of ints is one ``repr``
    and a matrix of digits one ``bytes`` translation (``_digit_rows``)."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj: Any, nl: str, out: list[str]) -> None:
    inner = nl + "  "
    if not isinstance(obj, (list, tuple, dict)):
        out.append(_LEAF.get(type(obj), _SCALAR)(obj))
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        for i, (k, v) in enumerate(obj.items()):
            out.append(("{" if i == 0 else ",") + inner + _key(k) + ": ")
            _write(v, inner, out)
        out.append(nl + "}")
    elif set(map(type, obj)) == {int}:
        out.append(f"[{inner}{repr(list(obj))[1:-1].replace(', ', ',' + inner)}{nl}]")
    elif (text := _digit_rows(obj, nl)) is not None:
        out.append(text)
    else:
        for i, x in enumerate(obj):
            out.append(("[" if i == 0 else ",") + inner)
            _write(x, inner, out)
        out.append(nl + "]")


def _digit_rows(rows: list | tuple, nl: str) -> str | None:
    """Rows of one length with every entry an int 0..9 as json writes them, from
    one ``bytes`` translated to digits and one ``join`` per row; else None."""
    if not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) != 1:
        return None
    flat = [*chain(*rows)]
    if set(map(type, flat)) != {int} or not set(flat) <= _DIGIT_INTS:
        return None
    digits, width, inner = bytes(flat).translate(_DIGITS).decode(), len(rows[0]), nl + "  "
    sep = "," + inner + "  "
    return "[" + inner + ("," + inner).join(
        f"[{inner}  {sep.join(digits[k:k + width])}{inner}]"
        for k in range(0, len(digits), width)) + nl + "]"


def _key(k: Any) -> str:
    """A dict key as json writes it."""
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return _STR(k if isinstance(k, str) else _SCALAR(k))


# -- matrices --------------------------------------------------------------------

def matrix_from_doc(doc: Any, path: str = "matrix") -> IntMatrix:
    _expect(doc, dict, path)
    rows = _int_rows(doc.get("rows"), f"{path}.rows")
    try:
        if "labels" in doc:
            return IntMatrix.square(_str_list(doc["labels"], f"{path}.labels"), rows)
        rl = _str_list(doc.get("row_labels"), f"{path}.row_labels")
        cl = _str_list(doc.get("col_labels"), f"{path}.col_labels")
        return IntMatrix.rect(rl, cl, rows)
    except FlipShiftError as e:
        raise SchemaError(path, str(e)) from e


# -- flip pairs --------------------------------------------------------------------

def pair_to_doc(p: FlipPair) -> dict:
    doc: dict = {}
    if p.name:
        doc["name"] = p.name
    doc.update({"alphabet": list(p.alphabet), "A": p.A.to_rows(), "J": p.J.to_rows()})
    return doc


def pair_from_doc(doc: Any, path: str = "pair") -> FlipPair:
    _expect(doc, dict, path)
    alphabet = _str_list(doc.get("alphabet"), f"{path}.alphabet")
    a_rows = _int_rows(doc.get("A"), f"{path}.A")
    j_rows = _int_rows(doc.get("J"), f"{path}.J")
    name = doc.get("name")
    if name is not None:
        _expect(name, str, f"{path}.name")
    try:
        a = IntMatrix.square(alphabet, a_rows)
        j = IntMatrix.square(alphabet, j_rows)
    except FlipShiftError as e:
        raise SchemaError(path, str(e)) from e
    return FlipPair(a, j, name=name)


# -- series --------------------------------------------------------------------

def series_to_doc(s: TruncatedSeries) -> dict:
    return {"order": s.order, "coeffs": [str(c) for c in s.coeffs]}

# -- certificates and chains -----------------------------------------------------------

def cert_to_doc(cert: HalfElemCert | ShiftFlipCert) -> dict:
    kind, lag = ("sfe", cert.lag) if isinstance(cert, ShiftFlipCert) else ("he", 1)
    return {"kind": kind, "lag": lag, "R": cert.R.to_rows(), "S": cert.S.to_rows()}


def chain_to_doc(chain: StrongChain) -> dict:
    return {"pairs": [pair_to_doc(p) for p in chain.pairs],
            "links": [cert_to_doc(c) for c in chain.links]}


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
