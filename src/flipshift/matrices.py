"""Exact linear algebra over arbitrary-precision integers.

Everything here is pure and immutable; no floating point is used anywhere.
Matrices carry row and column labels so that alphabets built downstream
(blocks, pair symbols) stay readable in output.  Entries are stored as full
tuple rows, but the algorithms skip zeros: the matrices of shifts of finite
type are sparse zero-one matrices, so products visit only the nonzeros of
their factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MatrixShapeError

Labels = tuple[str, ...]


def _as_labels(labels: Iterable[str]) -> Labels:
    out = tuple(str(x) for x in labels)
    if len(set(out)) != len(out):
        raise MatrixShapeError(f"duplicate labels: {out}")
    return out


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of Python integers with labelled rows and columns."""

    row_labels: Labels
    col_labels: Labels
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.row_labels):
            raise MatrixShapeError(
                f"{len(self.entries)} rows for {len(self.row_labels)} row labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise MatrixShapeError(
                    f"row of length {len(row)} for {len(self.col_labels)} column labels")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise MatrixShapeError(f"non-integer entry {x!r}")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise MatrixShapeError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise MatrixShapeError("duplicate column labels")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, row_labels: Labels, col_labels: Labels,
                 entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Build without re-checking; for results computed from checked matrices."""
        m = object.__new__(cls)
        object.__setattr__(m, "row_labels", row_labels)
        object.__setattr__(m, "col_labels", col_labels)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def square(cls, labels: Iterable[str], rows: Sequence[Sequence[int]]) -> "IntMatrix":
        labs = _as_labels(labels)
        return cls(labs, labs, tuple(tuple(r) for r in rows))

    @classmethod
    def rect(cls, row_labels: Iterable[str], col_labels: Iterable[str],
             rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(_as_labels(row_labels), _as_labels(col_labels),
                   tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, labels: Iterable[str]) -> "IntMatrix":
        labs = _as_labels(labels)
        n = len(labs)
        return cls(labs, labs, tuple(tuple(1 if i == j else 0 for j in range(n))
                                     for i in range(n)))

    @classmethod
    def zeros(cls, row_labels: Iterable[str], col_labels: Iterable[str]) -> "IntMatrix":
        rl, cl = _as_labels(row_labels), _as_labels(col_labels)
        return cls(rl, cl, tuple(tuple(0 for _ in cl) for _ in rl))

    # -- shape and access ---------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_zero_one(self) -> bool:
        return all(x in (0, 1) for row in self.entries for x in row)

    def row_index(self, label: str) -> int:
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise MatrixShapeError(f"unknown row label {label!r}") from None

    def col_index(self, label: str) -> int:
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise MatrixShapeError(f"unknown column label {label!r}") from None

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def entry(self, row_label: str, col_label: str) -> int:
        return self.entries[self.row_index(row_label)][self.col_index(col_label)]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.row_labels != other.row_labels or self.col_labels != other.col_labels:
            raise MatrixShapeError("matrix addition requires identical labels")
        return IntMatrix(self.row_labels, self.col_labels,
                         tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.row_labels != other.row_labels or self.col_labels != other.col_labels:
            raise MatrixShapeError("matrix subtraction requires identical labels")
        return IntMatrix(self.row_labels, self.col_labels,
                         tuple(tuple(a - b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.row_labels, self.col_labels,
                         tuple(tuple(c * x for x in row) for row in self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(self.col_labels, self.row_labels,
                                  tuple(zip(*self.entries)) if self.nrows
                                  else tuple(() for _ in self.col_labels))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return mat_mul(self, other)

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    # -- relabeling ---------------------------------------------------------

    def relabel(self, mapping: dict[str, str]) -> "IntMatrix":
        """Rename labels in place; entries are untouched."""
        rl = tuple(mapping.get(x, x) for x in self.row_labels)
        cl = tuple(mapping.get(x, x) for x in self.col_labels)
        return IntMatrix(_as_labels(rl), _as_labels(cl), self.entries)

    def reorder(self, row_labels: Iterable[str],
                col_labels: Iterable[str] | None = None) -> "IntMatrix":
        """Permute rows/columns into the given label order."""
        rl = _as_labels(row_labels)
        cl = rl if col_labels is None else _as_labels(col_labels)
        if set(rl) != set(self.row_labels) or set(cl) != set(self.col_labels):
            raise MatrixShapeError("reorder must use the same label sets")
        ri = [self.row_index(x) for x in rl]
        ci = [self.col_index(x) for x in cl]
        return IntMatrix(rl, cl, tuple(tuple(self.entries[i][j] for j in ci) for i in ri))

    def submatrix(self, row_labels: Iterable[str],
                  col_labels: Iterable[str] | None = None) -> "IntMatrix":
        """Restrict to the given labels (a subset, kept in the given order)."""
        rl = _as_labels(row_labels)
        cl = rl if col_labels is None else _as_labels(col_labels)
        ri = [self.row_index(x) for x in rl]
        ci = [self.col_index(x) for x in cl]
        return IntMatrix(rl, cl, tuple(tuple(self.entries[i][j] for j in ci) for i in ri))


@dataclass(frozen=True)
class IntVector:
    """Labelled vector of Python integers."""

    labels: Labels
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.entries):
            raise MatrixShapeError("vector labels and entries differ in length")

    def dot(self, other: "IntVector") -> int:
        if self.labels != other.labels:
            raise MatrixShapeError("dot product requires identical labels")
        return sum(a * b for a, b in zip(self.entries, other.entries))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients stored in ascending degree order."""

    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        c = [int(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [0]
        return cls(tuple(c))

    @property
    def degree(self) -> int:
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, a: IntMatrix) -> IntMatrix:
        """Evaluate the polynomial at a square matrix."""
        if not a.is_square or a.row_labels != a.col_labels:
            raise MatrixShapeError("polynomial evaluation needs a square matrix")
        acc = IntMatrix.zeros(a.row_labels, a.col_labels)
        ident = IntMatrix.identity(a.row_labels)
        power = ident
        for c in self.coeffs:
            if c:
                acc = acc + power.scale(c)
            power = mat_mul(a, power)
        return acc

    def __str__(self) -> str:
        if self.degree <= 0:
            return str(self.coeffs[0])
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if d == 1 else f"{mag}t^{d}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# -- module-level operations -------------------------------------------------

def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product; labels are inherited from the outer factors.

    Only nonzero pairs are multiplied, so the cost is the number of nonzeros of
    ``a`` times the row density of ``b``: put the sparser factor on the left.
    """
    if a.ncols != b.nrows or a.col_labels != b.row_labels:
        raise MatrixShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols} "
            "(inner labels must match)")
    ncols = b.ncols
    b_nonzeros = [[(j, y) for j, y in enumerate(brow) if y] for brow in b.entries]
    rows = []
    for arow in a.entries:
        acc = [0] * ncols
        for k, x in enumerate(arow):
            if x:
                for j, y in b_nonzeros[k]:
                    acc[j] += x * y
        rows.append(tuple(acc))
    return IntMatrix._trusted(a.row_labels, b.col_labels, tuple(rows))


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    """k-th power of a square matrix; the zeroth power is the identity."""
    if not a.is_square or a.row_labels != a.col_labels:
        raise MatrixShapeError("matrix power needs a square matrix with one label list")
    if k < 0:
        raise MatrixShapeError("matrix power needs k >= 0")
    result = IntMatrix.identity(a.row_labels)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def trace(a: IntMatrix) -> int:
    if not a.is_square or a.row_labels != a.col_labels:
        raise MatrixShapeError("trace needs a square matrix with one label list")
    return sum(a.entries[i][i] for i in range(a.nrows))


def delta(a: IntMatrix) -> IntVector:
    """Vector of diagonal entries, labels inherited from the matrix."""
    if not a.is_square or a.row_labels != a.col_labels:
        raise MatrixShapeError("diagonal needs a square matrix with one label list")
    return IntVector(a.row_labels, tuple(a.entries[i][i] for i in range(a.nrows)))


def bilinear(left: IntVector, a: IntMatrix, right: IntVector) -> int:
    """left^T * a * right, exactly."""
    if left.labels != a.row_labels or right.labels != a.col_labels:
        raise MatrixShapeError("bilinear form requires matching labels")
    total = 0
    for i, li in enumerate(left.entries):
        if li == 0:
            continue
        row = a.entries[i]
        total += li * sum(x * r for x, r in zip(row, right.entries))
    return total


def char_poly(a: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(tI - A) with exact integer coefficients.

    Uses the Faddeev-LeVerrier recurrence: every division is an exact integer
    division, so intermediate values never leave the integers.
    """
    if not a.is_square or a.row_labels != a.col_labels:
        raise MatrixShapeError("characteristic polynomial needs a square matrix")
    n = a.nrows
    if n == 0:
        return IntPolynomial.from_coeffs([1])
    # p(t) = t^n + c[1] t^(n-1) + ... + c[n]
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    acc = IntMatrix.identity(a.row_labels)
    for k in range(1, n + 1):
        # the sparse factor goes on the left of the dense accumulator
        acc = mat_mul(a, acc)
        t = trace(acc)
        q, r = divmod(-t, k)
        if r:
            raise ArithmeticError("inexact division in characteristic polynomial")
        coeffs[k] = q
        if k < n:
            acc = IntMatrix._trusted(acc.row_labels, acc.col_labels, tuple(
                row[:i] + (row[i] + q,) + row[i + 1:] for i, row in enumerate(acc.entries)))
    # ascending order: coeffs[k] is the coefficient of t^(n-k)
    return IntPolynomial.from_coeffs(list(reversed(coeffs)))


def _bareiss(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix.

    Returns the echelon rows and their pivot columns.  Every entry stays a
    minor of the input, so each division is exact (H. Cohen, *A Course in
    Computational Algebraic Number Theory*, 1993, section 2.2); the last pivot
    is the determinant of the pivot minor, up to sign.
    """
    m = [list(row) for row in rows]
    nr = len(m)
    pivots: list[int] = []
    prev = 1
    row = 0
    for col in range(ncols):
        if row >= nr:
            break
        piv = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        p = m[row][col]
        for r in range(row + 1, nr):
            factor = m[r][col]
            for c in range(col + 1, ncols):
                num = p * m[r][c] - factor * m[row][c]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                m[r][c] = q
            m[r][col] = 0
        prev = p
        row += 1
        pivots.append(col)
    return m[:row], pivots


def _integral_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, list[list[int]]]:
    """An integral kernel basis of an integer matrix, with its common scale d.

    d is the last Bareiss pivot.  The vector for a free column f is d there and
    0 at the other free columns; its pivot coordinates follow by
    back-substitution and are integers by Cramer's rule.  The basis is thus d
    times the pivot-normalized rational one, which is unique for these pivots.
    """
    echelon, pivots = _bareiss(rows, ncols)
    d = echelon[-1][pivots[-1]] if pivots else 1
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = d
        for row, pc in zip(reversed(echelon), reversed(pivots)):
            total = sum(row[c] * v[c] for c in range(pc + 1, ncols) if v[c])
            q, rem = divmod(-total, row[pc])
            if rem:
                raise ArithmeticError("inexact division in back-substitution")
            v[pc] = q
        basis.append(v)
    return d, basis


def rank_over_rationals(a: IntMatrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    return len(_bareiss(a.entries, a.ncols)[1])
