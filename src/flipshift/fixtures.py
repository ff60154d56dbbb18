"""Reference matrices and pairs used by the bundled example checks.

They are read from the JSON files shipped under ``data/``, which are the only
copy of each fixture.
"""

from __future__ import annotations

import json
from importlib import resources

from . import jsonio
from .flips import FlipPair
from .matrices import IntMatrix


def _load(name: str):
    return json.loads((resources.files(__package__) / "data" / name).read_text("utf-8"))


def example1_matrix_A() -> IntMatrix:
    return jsonio.matrix_from_doc(_load("example1_A.json"))


def example1_matrix_J() -> IntMatrix:
    return jsonio.matrix_from_doc(_load("example1_J.json"))


def example1_pair() -> FlipPair:
    """The fixture pair with the order-reversing involution."""
    return jsonio.pair_from_doc(_load("example1_AJ.json"))


def example1_symmetric_pair() -> FlipPair:
    """The same transition matrix with the identity involution."""
    return jsonio.pair_from_doc(_load("example1_AI.json"))


def example2_matrix(which: str) -> IntMatrix:
    """One of the seven-symbol matrices A, B, C, or their involution J."""
    return jsonio.matrix_from_doc(_load(f"example2_{which}.json"))


def example2_pair(which: str) -> FlipPair:
    return jsonio.pair_from_doc(_load(f"example2_{which}J.json"))


def golden_mean_pair() -> FlipPair:
    """Two symbols, no repeated second symbol, identity involution."""
    return jsonio.pair_from_doc(_load("golden_mean.json"))


def one_point_pair() -> FlipPair:
    a = IntMatrix.square(("a",), ((1,),))
    return FlipPair(a, a, name="one_point")
