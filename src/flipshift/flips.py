"""Flip pairs: a zero-one matrix together with a compatible symbol involution.

A flip pair is a pair (A, J) of zero-one square matrices over one alphabet
with A*J == J*A^T and J*J == I.  J is then automatically a symmetric
permutation matrix, and the symbol involution it encodes acts on words by
"reverse and substitute".
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import FlipPairError
from .matrices import IntMatrix

Word = tuple[str, ...]


class FlipPair:
    """A validated flip pair; construction performs full axiom checking."""

    def __init__(self, A: IntMatrix, J: IntMatrix, name: str | None = None):
        if not A.is_zero_one:
            raise FlipPairError("A_zero_one", "transition matrix has an entry outside {0,1}")
        if not J.is_zero_one:
            raise FlipPairError("J_zero_one", "involution matrix has an entry outside {0,1}")
        if not A.is_square or A.row_labels != A.col_labels:
            raise FlipPairError("shape", "transition matrix must be square with one label list")
        if not J.is_square or J.row_labels != J.col_labels:
            raise FlipPairError("shape", "involution matrix must be square with one label list")
        if A.row_labels != J.row_labels:
            raise FlipPairError("labels", "the two matrices must share one alphabet")
        if any(lab == "" for lab in A.row_labels):
            raise FlipPairError("labels", "empty symbol label")
        # A zero-one J has J*J == I exactly when every row holds a single 1 and
        # the map tau it encodes squares to the identity.
        tau_index = []
        for row in J.entries:
            ones = [j for j, x in enumerate(row) if x]
            if len(ones) != 1:
                raise FlipPairError("J_involution", "J*J != I")
            tau_index.append(ones[0])
        if any(tau_index[t] != i for i, t in enumerate(tau_index)):
            raise FlipPairError("J_involution", "J*J != I")
        # (A*J)(a, c) == A(a, tau c) and (J*A^T)(a, c) == A(c, tau a), so the
        # axiom reads A(a, b) == A(tau b, tau a).  That map on index pairs is an
        # involution, so it suffices that it sends every nonzero to a nonzero.
        rows = A.entries
        for a, row in enumerate(rows):
            ta = tau_index[a]
            for b, x in enumerate(row):
                if x and not rows[tau_index[b]][ta]:
                    raise FlipPairError("flip_symmetry", "A*J != J*A^T")
        self._A = A
        self._J = J
        self.name = name
        self._tau_index = tuple(tau_index)
        self._tau = MappingProxyType({a: J.col_labels[t]
                                      for a, t in zip(J.row_labels, tau_index)})

    # -- data access ---------------------------------------------------------

    @property
    def A(self) -> IntMatrix:
        return self._A

    @property
    def J(self) -> IntMatrix:
        return self._J

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._A.row_labels

    @property
    def size(self) -> int:
        return self._A.nrows

    @property
    def tau(self) -> Mapping[str, str]:
        """The symbol involution encoded by J: tau(a) = b iff J(a, b) == 1."""
        return self._tau

    @property
    def tau_index(self) -> tuple[int, ...]:
        """The symbol involution by position: tau_index[i] == j iff J[i][j] == 1."""
        return self._tau_index

    def __eq__(self, other) -> bool:
        return isinstance(other, FlipPair) and self._A == other._A and self._J == other._J

    def __hash__(self) -> int:
        return hash((self._A, self._J))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<FlipPair{tag} on {self.size} symbols>"

    # -- word actions ---------------------------------------------------------

    def flip_word(self, word: Iterable[str]) -> Word:
        """Reverse the word, then apply the symbol involution."""
        try:
            return tuple(self._tau[s] for s in reversed(tuple(word)))
        except KeyError as e:
            raise FlipPairError("labels", f"unknown symbol {e.args[0]!r}") from None

    # -- derived pairs ---------------------------------------------------------

    def relabel(self, mapping: dict[str, str]) -> "FlipPair":
        """Rename symbols; the underlying matrices keep their row order."""
        return FlipPair(self._A.relabel(mapping), self._J.relabel(mapping))

    def reorder(self, labels: Iterable[str]) -> "FlipPair":
        """Permute both matrices into the given label order."""
        labs = tuple(labels)
        return FlipPair(self._A.reorder(labs), self._J.reorder(labs))
