"""Exact linear algebra over arbitrary-precision integers.

Everything here is pure and immutable; no floating point is used anywhere.
Matrices carry row and column labels so that alphabets built downstream
(blocks, pair symbols) stay readable in output.  Entries are stored as full
tuple rows, but the algorithms skip zeros: the matrices of shifts of finite
type are sparse zero-one matrices, so products visit only the nonzeros of
their factors.

Two exact kernels sit on top.  The characteristic polynomial is one
Hessenberg pass modulo a Mersenne prime past Hadamard's bound on its
coefficients, lifted to the residue nearest zero: exact by the bound, with
no probability involved.  The rank and the integral kernel come from one
fraction-free (Bareiss) elimination that touches only the rows a step
eliminates; its entries are minors of the input, so they stay as small as
those minors are.  Rank profiles form no matrix power; see ``rank_profile``.
The polynomial and the profiles at a nonzero shift run on the matrix with its
identical rows and columns merged (``_amalgamated``): Sylvester's identity
keeps the polynomial up to a power of t, and every nullity at s != 0 is kept.
A block pair merges back to about its base.  The profile at shift 0 changes
under merging, so it stays on the matrix itself; the rank is read off the
distinct rows and columns, since deleting a repeat, unlike merging, keeps it.

Each input rule lives once, here: integer entries in ``_first_non_int``,
distinct labels in ``_as_labels``, the shape in ``_shape_fault``, squareness
as equal label lists.  The document readers check a whole document's entry
types in one pass of their own, call ``_first_non_int`` only to name a bad
entry, and build through ``IntMatrix._of_int_rows``, which checks the shape
alone.  Matrices computed from checked ones are built unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from math import gcd
from operator import add, sub
from typing import Iterable, Sequence

from .errors import BudgetError, MatrixShapeError

Labels = tuple[str, ...]
_Ones = tuple[tuple[int, ...], ...]  # per row, the columns of its nonzeros, ascending


def _as_labels(labels: Iterable[str]) -> Labels:
    out = tuple(map(str, labels))
    if len(set(out)) != len(out):
        raise MatrixShapeError(f"duplicate labels: {out}")
    return out


def _first_non_int(row: Sequence) -> int | None:
    """Where ``row`` first holds an entry that is no int, or a bool, else None; int
    subclasses pass, and a row of plain ints is one C-level check."""
    if set(map(type, row)) <= {int}:
        return None
    return next((j for j, x in enumerate(row) if not isinstance(x, int) or isinstance(x, bool)),
                None)


def _shape_fault(rows: Sequence[Sequence], nrows: int, ncols: int) -> str | None:
    """What keeps ``rows`` from being ``nrows`` rows of width ``ncols``, else None."""
    if len(rows) != nrows:
        return f"{len(rows)} rows for {nrows} row labels"
    if set(map(len, rows)) <= {ncols}:
        return None
    width = next(len(row) for row in rows if len(row) != ncols)
    return f"row of length {width} for {ncols} column labels"


def _rows_of_ones(ones: _Ones, ncols: int) -> list[list[int]]:
    """The zero-one rows of width ``ncols`` with ones at ``ones``."""
    rows = [[0] * ncols for _ in ones]
    for row, js in zip(rows, ones):
        for j in js:
            row[j] = 1
    return rows


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of Python integers with labelled rows and columns."""

    row_labels: Labels
    col_labels: Labels
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        fault = _shape_fault(self.entries, len(self.row_labels), len(self.col_labels))
        if fault is not None:
            raise MatrixShapeError(fault)
        if not set(map(type, chain.from_iterable(self.entries))) <= {int}:
            for row in self.entries:
                j = _first_non_int(row)
                if j is not None:
                    raise MatrixShapeError(f"non-integer entry {row[j]!r}")
        _as_labels(self.row_labels)
        _as_labels(self.col_labels)

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
    def _from_ones(cls, row_labels: Labels, col_labels: Labels, ones: _Ones) -> "IntMatrix":
        """The zero-one matrix with ones at ``ones``, ascending, built unchecked."""
        m = cls._trusted(row_labels, col_labels,
                         tuple(map(tuple, _rows_of_ones(ones, len(col_labels)))))
        m.__dict__["_ones"] = ones
        return m

    @classmethod
    def _of_int_rows(cls, row_labels: Labels, col_labels: Labels,
                     rows: Sequence[Sequence[int]]) -> "IntMatrix":
        """The matrix of ``rows`` under the given distinct labels, for readers that have
        checked every entry is an int: checks the shape alone."""
        fault = _shape_fault(rows, len(row_labels), len(col_labels))
        if fault is not None:
            raise MatrixShapeError(fault)
        return cls._trusted(row_labels, col_labels, tuple(map(tuple, rows)))

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
        return cls._from_ones(labs, labs, tuple((i,) for i in range(len(labs))))

    # -- shape and access ---------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    @property
    def is_zero_one(self) -> bool:  # every nonzero, read off the cached columns, is 1
        return all(row.count(1) == len(ones) for row, ones in zip(self.entries, self._support))

    @property
    def _support(self) -> _Ones:
        """Per row, its nonzero columns: a zero-one matrix's successor lists.

        Cached in the instance dict, as the hash is: ``cached_property`` takes a
        lock on the first access to each matrix, and products of fresh small
        matrices pay it on every call.
        """
        if "_ones" not in self.__dict__:
            self.__dict__["_ones"] = tuple(map(tuple, map(compress, repeat(range(self.ncols)),
                                                              self.entries)))
        return self.__dict__["_ones"]

    def __hash__(self) -> int:  # cached: a key of an lru_cache is hashed on every call
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((self.row_labels, self.col_labels, self.entries))
        return self.__dict__["_hash"]

    def entry(self, row_label: str, col_label: str) -> int:
        if row_label not in self.row_labels:
            raise MatrixShapeError(f"unknown row label {row_label!r}")
        if col_label not in self.col_labels:
            raise MatrixShapeError(f"unknown column label {col_label!r}")
        return self.entries[self.row_labels.index(row_label)][self.col_labels.index(col_label)]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, add, "addition")

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, sub, "subtraction")

    def _entrywise(self, other: "IntMatrix", op, name: str) -> "IntMatrix":
        if self.row_labels != other.row_labels or self.col_labels != other.col_labels:
            raise MatrixShapeError(f"matrix {name} requires identical labels")
        return IntMatrix._trusted(self.row_labels, self.col_labels,
                                  tuple(tuple(map(op, r1, r2))
                                        for r1, r2 in zip(self.entries, other.entries)))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.row_labels, self.col_labels,
                         tuple(tuple(c * x for x in row) for row in self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(self.col_labels, self.row_labels,
                                  tuple(zip(*self.entries)) if self.nrows
                                  else tuple(() for _ in self.col_labels))

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


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

    Only nonzero pairs are multiplied, through the cached nonzero columns, so the
    cost is the nonzeros of ``a`` times the row density of ``b``: put the sparser left.
    """
    if a.col_labels != b.row_labels:
        raise MatrixShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols} "
            "(inner labels must match)")
    ncols, b_rows, b_ones = b.ncols, b.entries, b._support
    rows = []
    for arow, ks in zip(a.entries, a._support):
        acc = [0] * ncols
        for k in ks:
            x, brow = arow[k], b_rows[k]
            for j in b_ones[k]:
                acc[j] += x * brow[j]
        rows.append(tuple(acc))
    return IntMatrix._trusted(a.row_labels, b.col_labels, tuple(rows))


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    """k-th power of a square matrix; the zeroth power is the identity."""
    if a.row_labels != a.col_labels:
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
    if a.row_labels != a.col_labels:
        raise MatrixShapeError("trace needs a square matrix with one label list")
    return sum(a.entries[i][i] for i in range(a.nrows))


# -- the modular pass ---------------------------------------------------------
#
# The characteristic polynomial is computed modulo primes whose product passes
# twice a bound on its coefficients, then lifted to the residue nearest zero.
# The bound is Hadamard's inequality, which holds for every integer matrix.

# Proven Mersenne primes 2^p - 1, in increasing order of p.
_MERSENNE_PRIMES = tuple((1 << p) - 1 for p in (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
    11213, 19937, 21701, 23209, 44497))


def _hadamard_squared(rows: Sequence[Sequence[int]]) -> int:
    """Product over the rows of max(1, squared 2-norm).

    Its square root bounds every minor of the matrix, of any size: by
    Hadamard's inequality a minor is at most the product of its rows' norms,
    each of which is at most its full row's norm.
    """
    out = 1
    for row in rows:
        out *= max(1, sum(x * x for x in row if x))
    return out


def _mersenne_primes_past(bound_squared: int) -> list[int]:
    """Listed Mersenne primes whose product M has M^2 > bound_squared.

    That is the smallest listed prime that passes alone, since one pass
    modulo a larger prime is cheaper than several passes.  Past the largest,
    it is the largest primes, as many as the product needs.
    """
    for p in _MERSENNE_PRIMES:
        if p * p > bound_squared:
            return [p]
    primes, product = [], 1
    for p in reversed(_MERSENNE_PRIMES):
        primes.append(p)
        product *= p
        if product * product > bound_squared:
            return primes
    raise BudgetError(f"integer bound of {bound_squared.bit_length() // 2} bits passes "
                      "the product of the listed Mersenne primes")


def _hessenberg_char_poly(rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """Ascending coefficients of det(tI - A) mod the prime p.

    A is brought to upper Hessenberg form H by elementary similarities, and
    the characteristic polynomials of H's leading blocks follow from
    expansion along their last column (H. Cohen, *A Course in Computational
    Algebraic Number Theory*, 1993, algorithm 2.2.9).  A zero on the
    subdiagonal cuts that expansion short, so sparse inputs cost little.
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][m - 1], -1, p)
        # The eliminations commute, so all row operations go first and the
        # inverse column operations follow in one sweep.
        factors = [(j, h[j][m - 1] * inv % p) for j in range(m + 1, n) if h[j][m - 1]]
        if not factors:
            continue
        pivot_row = [(c, x) for c, x in enumerate(h[m]) if x]
        for j, u in factors:
            row = h[j]
            for c, x in pivot_row:
                row[c] = (row[c] - u * x) % p
        for row in h:
            s = sum(u * row[j] for j, u in factors if row[j])
            if s:
                row[m] = (row[m] + s) % p
    # polys[m] is the characteristic polynomial of the leading m x m block
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        poly = [0] + prev
        d = h[m][m]
        if d:
            for k, c in enumerate(prev):
                poly[k] = (poly[k] - d * c) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            u = t * h[i][m] % p
            if u:
                for k, c in enumerate(polys[i]):
                    poly[k] = (poly[k] - u * c) % p
        polys.append(poly)
    return polys[n]


def _char_poly_modular(rows: Sequence[Sequence[int]], primes: Sequence[int]) -> list[int]:
    """det(tI - A) modulo the product of the primes, lifted symmetrically.

    The residues of each prime are merged by the Chinese remainder theorem.
    The lift is the exact polynomial only when the product passes twice the
    largest absolute coefficient.
    """
    modulus, coeffs = 1, [0] * (len(rows) + 1)
    for p in primes:
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((r - c) * inv % p)
                  for c, r in zip(coeffs, _hessenberg_char_poly(rows, p))]
        modulus *= p
    half = modulus // 2
    return [c - modulus if c > half else c for c in coeffs]


def _amalgamated(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The square matrix B left once A's identical rows and columns are merged.

    Identical rows give A = D*E, with E one row per class and D zero-one with one
    1 per row; E*D keeps one row per class and sums the columns of each class.
    Identical columns are merged the same way in the transpose, and both repeat
    until none are left.  By Sylvester's identity det(tI - D*E) =
    t^(n-m) * det(tI - E*D) for E*D of size m, and for s != 0, E and D carry
    ker(D*E - sI)^j and ker(E*D - sI)^j onto each other, since D*E and E*D are
    invertible there.  Neither holds at s = 0, where each merge adds a kernel
    dimension.
    """
    a, size = [tuple(row) for row in rows], -1
    while len(a) != size:
        size = len(a)
        for _ in range(2):  # rows, then columns as the rows of the transpose
            classes: dict[tuple[int, ...], int] = {}
            cls = [classes.setdefault(row, len(classes)) for row in a]
            merged = []
            for row in classes:
                acc = [0] * len(classes)
                for j, x in enumerate(row):
                    if x:
                        acc[cls[j]] += x
                merged.append(acc)
            a = list(zip(*merged))
    return a


def char_poly(a: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(tI - A) with exact integer coefficients.

    A's identical rows and columns are merged first: by Sylvester's identity the
    merged m x m matrix B of ``_amalgamated`` has det(tI - A) = t^(n-m) *
    det(tI - B), so B's coefficients are A's.  Then one Hessenberg pass on B
    modulo Mersenne primes whose product M passes 2 * 2^m * H, where H is the
    product over B's rows of max(1, row 2-norm).  The coefficient of t^(m-k) is,
    up to sign, the sum of the C(m, k) <= 2^m principal k x k minors, and each
    of them is at most H by Hadamard's inequality.  So every coefficient lies
    strictly inside (-M/2, M/2), where the symmetric lift is exact.
    """
    if a.row_labels != a.col_labels:
        raise MatrixShapeError("characteristic polynomial needs a square matrix")
    rows = _amalgamated(a.entries)
    primes = _mersenne_primes_past(_hadamard_squared(rows) << (2 * len(rows) + 2))
    return IntPolynomial.from_coeffs([0] * (a.nrows - len(rows))
                                     + _char_poly_modular(rows, primes))


# -- the fraction-free elimination ---------------------------------------------


def _bareiss(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix.

    Returns the echelon rows and their pivot columns.  Every entry stays a
    minor of the input, so each division is exact (H. Cohen, *A Course in
    Computational Algebraic Number Theory*, 1993, section 2.2); the last pivot
    is the determinant of the pivot minor, up to sign.

    A step with pivot p_k only rescales, by p_k / p_(k-1), a row that is zero
    in the pivot column.  Such rows are left alone: each row records the step
    its entries belong to and catches up by one exact division when a later
    step needs it.  So a step costs only the rows it eliminates, and the
    entries stay the size of the minors, however loose a bound on them is.
    """
    m = [list(row) for row in rows]
    nr = len(m)
    dets = [1]  # dets[k] is the pivot of step k, with dets[0] = 1
    stamp = [0] * nr  # m[r] holds the entries of row r as of step stamp[r]
    pivots: list[int] = []

    def current(r: int) -> list[int]:
        k = stamp[r]
        if k != len(pivots):
            if dets[-1] != dets[k]:
                m[r] = [x * dets[-1] // dets[k] for x in m[r]]
            stamp[r] = len(pivots)
        return m[r]

    for col in range(ncols):
        row = len(pivots)
        if row >= nr:
            break
        piv = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        stamp[row], stamp[piv] = stamp[piv], stamp[row]
        pivot_row = current(row)
        p, prev = pivot_row[col], dets[-1]
        tail = [(c, x) for c, x in enumerate(pivot_row) if x and c > col]
        for r in range(row + 1, nr):
            if m[r][col]:
                cur = current(r)
                factor = cur[col]
                if p == prev:
                    # (p*y - factor*x)/p: entries off the tail keep their values
                    for c, x in tail:
                        cur[c] -= factor * x // p
                else:
                    new = [y * p for y in cur]
                    for c, x in tail:
                        new[c] -= factor * x
                    cur = m[r] = [y // prev for y in new]
                cur[col] = 0
                stamp[r] = row + 1
        dets.append(p)
        pivots.append(col)
    return m[:len(pivots)], pivots


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
    """Rank over the rationals: the pivot count of the Bareiss elimination."""
    return len(_bareiss(a.entries, a.ncols)[1])


def _row_chain(rows: list[list[int]], nonzeros: Sequence[Sequence[tuple[int, int]]],
               shift: int, limit: int) -> tuple[list[int], list[list[int]]]:
    """The ranks of U*N, U*N^2, ... (N = M - shift*I) until they stop falling or
    reach ``limit``, and the last echelon rows.  U is echelon rows, M the
    nonzeros of its rows; each step divides the rows by their content first.
    """
    ranks: list[int] = []
    while len(ranks) < limit:
        image = []
        for row in rows:
            g = gcd(*row)
            row = [x // g for x in row]
            out = [-shift * x for x in row]
            for k, x in enumerate(row):
                if x:
                    for j, y in nonzeros[k]:
                        out[j] += x * y
            image.append(out)
        prev, rows = len(rows), _bareiss(image, len(nonzeros))[0]
        ranks.append(len(rows))
        if len(rows) == prev:
            break
    return ranks, rows


def rank_profile(m: IntMatrix, shift: int, max_power: int) -> list[int]:
    """The ranks over the rationals of (M - shift*I)^j for j = 1..max_power."""
    return _rank_profile(m, shift, max_power)[1]


def _rank_profile(m: IntMatrix, shift: int, max_power: int) -> tuple[int, list[int]]:
    """The rank of M and the ranks of (M - shift*I)^j for j = 1..max_power.

    No power is formed.  The row space of M^(j+1) is that of M^j times M, so
    the ranks of M^j are the chain from M's echelon rows, constant once its
    rank stops falling (the spaces are nested).  Its last rows R span the
    eventual range, of dimension d.  For s = shift != 0, every left generalized
    eigenvector of a nonzero eigenvalue lies there, and M - sI is invertible on
    the other n - d dimensions, K = {x : x*M^n = 0}, which M keeps.  So
    rank((M - sI)^j) = n - d + rank(R*(M - sI)^j), the chain started at R.

    At s != 0 the chain runs on the merged matrix B of ``_amalgamated``, since
    the nullities of (M - sI)^j and (B - sI)^j are equal there and so is d; its
    offset is still n - d.  Summing changes the rank of M, but deleting repeated
    rows and columns does not, so when B merged anything the rank comes from M's
    distinct rows restricted to their distinct columns.  The chain at s = 0
    starts from M's echelon rows, whose count is the rank.
    """
    if m.row_labels != m.col_labels:  # the error of forming M - shift*I
        raise MatrixShapeError("matrix subtraction requires identical labels")
    b = m.entries if shift == 0 else _amalgamated(m.entries)
    nz = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    if len(b) == m.nrows:  # unmerged, B is M
        rows = _bareiss(m.entries, m.ncols)[0]
        rank = len(rows)
    else:
        distinct = list(dict.fromkeys(map(tuple, m.entries)))
        rank = len(_bareiss(list(dict.fromkeys(zip(*distinct))), len(distinct))[1])
        rows = _bareiss(b, len(b))[0]
    if shift == 0:
        offset, ranks = 0, [rank] + _row_chain(rows, nz, 0, max_power - 1)[0]
    else:  # the rank falls at most n times, so the chain from B ends on its own
        core = _row_chain(rows, nz, 0, len(b) + 1)[1]
        offset, ranks = m.nrows - len(core), _row_chain(core, nz, shift, max_power)[0]
    ranks += [ranks[-1]] * (max_power - len(ranks))
    return rank, [offset + r for r in ranks]
