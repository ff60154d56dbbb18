"""Flip pairs: a zero-one matrix together with a compatible symbol involution.

A flip pair is a pair (A, J) of zero-one square matrices over one alphabet
with A*J == J*A^T and J*J == I.  J is then automatically a symmetric
permutation matrix, and the symbol involution it encodes acts on words by
"reverse and substitute".
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import FlipPairError, MatrixShapeError
from .matrices import IntMatrix, _as_labels, _Ones

Word = tuple[str, ...]


class FlipPair:
    """A validated flip pair, held as its alphabet, the successor lists ``_succ``
    of A (ascending) and tau; the dense A and J are views, built on demand."""

    def __init__(self, A: IntMatrix, J: IntMatrix, name: str | None = None):
        if not A.is_zero_one:
            raise FlipPairError("A_zero_one", "transition matrix has an entry outside {0,1}")
        if not J.is_zero_one:
            raise FlipPairError("J_zero_one", "involution matrix has an entry outside {0,1}")
        if A.row_labels != A.col_labels:
            raise FlipPairError("shape", "transition matrix must be square with one label list")
        if J.row_labels != J.col_labels:
            raise FlipPairError("shape", "involution matrix must be square with one label list")
        if A.row_labels != J.row_labels:
            raise FlipPairError("labels", "the two matrices must share one alphabet")
        # the checked pair, made from the given matrices' ones; they stay its dense views
        vars(self).update(vars(self._from_ones(A.row_labels, A._support, J._support, name)),
                          A=A, J=J)

    @classmethod
    def _from_ones(cls, alphabet: tuple[str, ...], succ: _Ones, j_ones: _Ones,
                   name: str | None = None) -> "FlipPair":
        """The pair whose A and J have ones at ``succ`` and ``j_ones``, for builders whose
        labels are distinct and lists ascending: checks the axioms and no empty label."""
        if "" in alphabet:
            raise FlipPairError("labels", "empty symbol label")
        # A zero-one J has J*J == I exactly when every row holds a single 1 and
        # the map tau it encodes squares to the identity.
        if any(len(js) != 1 for js in j_ones):
            raise FlipPairError("J_involution", "J*J != I")
        tau = tuple(t for t, in j_ones)
        if any(tau[t] != i for i, t in enumerate(tau)):
            raise FlipPairError("J_involution", "J*J != I")
        # (A*J)(a, c) == A(a, tau c) and (J*A^T)(a, c) == A(c, tau a), so the axiom
        # reads A(a, b) == A(tau b, tau a): the transitions, mirrored, are themselves.
        mirror: list[list[int]] = [[] for _ in succ]
        for c, a in enumerate(tau):
            for b in succ[a]:
                mirror[tau[b]].append(c)
        if tuple(map(tuple, mirror)) != succ:
            raise FlipPairError("flip_symmetry", "A*J != J*A^T")
        pair = object.__new__(cls)
        pair.name, pair._alphabet, pair._succ, pair._tau_index = name, alphabet, succ, tau
        pair._key = (alphabet, succ, tau)
        pair._hash = hash(pair._key)
        pair._tau = MappingProxyType({a: alphabet[t] for a, t in zip(alphabet, tau)})
        return pair

    # -- data access ---------------------------------------------------------

    @cached_property
    def A(self) -> IntMatrix:
        return IntMatrix._from_ones(self._alphabet, self._alphabet, self._succ)

    @cached_property
    def J(self) -> IntMatrix:
        return IntMatrix._from_ones(self._alphabet, self._alphabet,
                                    tuple((t,) for t in self._tau_index))

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._alphabet

    @property
    def size(self) -> int:
        return len(self._alphabet)

    @property
    def tau(self) -> Mapping[str, str]:
        """The symbol involution encoded by J: tau(a) = b iff J(a, b) == 1."""
        return self._tau

    @property
    def tau_index(self) -> tuple[int, ...]:
        """The symbol involution by position: tau_index[i] == j iff J[i][j] == 1."""
        return self._tau_index

    def __eq__(self, other) -> bool:
        return isinstance(other, FlipPair) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

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
        """Rename symbols; the symbol order stays."""
        return self._permuted(_as_labels(mapping.get(x, x) for x in self._alphabet),
                              range(self.size))

    def reorder(self, labels: Iterable[str]) -> "FlipPair":
        """Permute the symbols into the given label order."""
        labs = _as_labels(labels)
        if set(labs) != set(self._alphabet):
            raise MatrixShapeError("reorder must use the same label sets")
        index = {a: i for i, a in enumerate(self._alphabet)}
        return self._permuted(labs, [index[a] for a in labs])

    def _permuted(self, alphabet: tuple[str, ...], old: Sequence[int]) -> "FlipPair":
        """The unnamed pair on ``alphabet`` whose symbol k is this pair's symbol ``old[k]``."""
        new = sorted(range(len(old)), key=old.__getitem__)  # symbol i becomes symbol new[i]
        succ = tuple(tuple(sorted(new[j] for j in self._succ[i])) for i in old)
        return FlipPair._from_ones(alphabet, succ, tuple((new[self._tau_index[i]],) for i in old))
