"""Certificates and checkers for the three equivalence notions on flip pairs.

A single splitting step is witnessed by a zero-one matrix R; the companion
matrix S is always derived as S = K R^T J, which halves both the certificate
format and every search space.  J and K are read as the symbol involutions
they encode, so S is R transposed and re-indexed.  ``he_check`` checks each
step once, where it is made.  Steps and the lag-k analogue with nonnegative
integral R are verified identity by identity with the first violation
reported by name; identities implied by the earlier ones are not re-checked.
Both bounded searches are one pruned walk over the integral kernel of the
linear condition A*R == R*B: a splitting step is a lag-1 witness whose R is
zero-one.  The walk is where either search refuses, under its one budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetError, CertificateError, MatrixShapeError
from .flips import FlipPair
from .matrices import IntMatrix, _integral_kernel, _Ones, mat_mul, mat_pow
from .report import Report
from .shifts import _index_blocks

DEFAULT_SEARCH_BUDGET = 1_000_000
DEFAULT_MAX_SOLUTIONS = 16


@dataclass(frozen=True)
class HalfElemCert:
    """A splitting step, made only by ``he_check`` or by reversing one it made.

    The makers are the builders, ``he_search`` and ``jsonio.chain_from_doc``.
    R(a, b) == 1 iff b is in ``r_ones[a]``, and S(b, a) == 1 iff a is in
    ``s_ones[b]``; ``R`` and ``S`` are their dense views.
    """

    source: FlipPair
    target: FlipPair
    r_ones: _Ones
    s_ones: _Ones

    @cached_property
    def R(self) -> IntMatrix:
        return IntMatrix._from_ones(self.source.alphabet, self.target.alphabet, self.r_ones)

    @cached_property
    def S(self) -> IntMatrix:
        return IntMatrix._from_ones(self.target.alphabet, self.source.alphabet, self.s_ones)

    @cached_property
    def _gamma_codes(self) -> dict[str, str]:
        """chr(i) + chr(k) -> chr(b) for the source transitions (i, k) joined by
        exactly one b with R(i, b) == S(b, k) == 1; R's ones meet S's ones at b."""
        hits: dict[str, list[int]] = {}
        for i, bs in enumerate(self.r_ones):
            allowed = set(self.source._succ[i])
            for b in bs:
                for k in self.s_ones[b]:
                    if k in allowed:
                        hits.setdefault(chr(i) + chr(k), []).append(b)
        return {key: chr(bs[0]) for key, bs in hits.items() if len(bs) == 1}


@dataclass(frozen=True)
class StrongChain:
    """A sequence of splitting steps, held as its source pair and its links.

    Link i joins pairs i and i+1, so the pairs are derived from the source
    and the links' targets, and the lag is the number of links.  Each link
    was checked by ``he_check`` where it was made; construction checks each
    joint once, refusing a link that does not start where the previous one
    ended (or, for link 0, at the source).
    """

    source: FlipPair
    links: tuple[HalfElemCert, ...]

    def __post_init__(self):
        end = self.source
        for i, link in enumerate(self.links):
            if link.source != end:
                raise CertificateError(f"link {i} endpoints",
                                       "link does not start where the chain has reached")
            end = link.target

    @property
    def lag(self) -> int:
        return len(self.links)

    @property
    def pairs(self) -> tuple[FlipPair, ...]:
        return (self.source, *(link.target for link in self.links))

    @property
    def target(self) -> FlipPair:
        return self.links[-1].target if self.links else self.source


@dataclass(frozen=True)
class ShiftFlipCert:
    """A checked lag-k equivalence witnessed by a nonnegative integral R."""

    source: FlipPair
    target: FlipPair
    R: IntMatrix
    S: IntMatrix
    lag: int


# -- single-step checking ------------------------------------------------------


def _companion(src: FlipPair, dst: FlipPair, R: IntMatrix) -> IntMatrix:
    """S = K R^T J read through the involutions: S[b][a] == R[tau_J a][tau_K b]."""
    rows = R.entries
    tau_j = src.tau_index
    return IntMatrix._trusted(dst.alphabet, src.alphabet, tuple(
        tuple(rows[ta][tb] for ta in tau_j) for tb in dst.tau_index))


def he_check(src: FlipPair, dst: FlipPair, R: IntMatrix | _Ones,
             supplied_S: IntMatrix | None = None) -> HalfElemCert:
    """Check R as a single splitting step from src to dst.

    R is an ``IntMatrix``, read into its ones and kept as the dense R, or the
    ones themselves, as the builders make them.  Derives S = K R^T J by
    re-indexing R's ones, then verifies A == R*S and B == S*R.  A supplied S
    is only cross-validated against the derived one.  S is zero-one because
    it re-indexes R, and R == J S^T K because J and K are involutions.
    """
    views = {}
    if isinstance(R, IntMatrix):
        if R.row_labels != src.alphabet or R.col_labels != dst.alphabet:
            raise CertificateError("shape",
                                   "R must map the source alphabet to the target alphabet")
        if not R.is_zero_one:
            raise CertificateError("R zero-one", "R has an entry outside {0,1}")
        views["R"], R = R, R._support
    # S(b, a) == 1 iff tau_K b is in R's ones at tau_J a
    tau_k, s_rows = dst.tau_index, [[] for _ in dst.alphabet]
    for a, ta in enumerate(src.tau_index):
        for b in R[ta]:
            s_rows[tau_k[b]].append(a)
    cert = HalfElemCert(source=src, target=dst, r_ones=R, s_ones=tuple(map(tuple, s_rows)))
    vars(cert).update(views)
    if supplied_S is not None and supplied_S != cert.S:
        raise CertificateError("S == K*R^T*J", "supplied S differs from the derived one")
    if mat_mul(cert.R, cert.S) != src.A:
        raise CertificateError("A == R*S", "A != R*S")
    if mat_mul(cert.S, cert.R) != dst.A:
        raise CertificateError("B == S*R", "B != S*R")
    return cert


def gamma_block(cert: HalfElemCert, a1: str, a2: str) -> str:
    """The unique target symbol b with R(a1, b) == S(b, a2) == 1."""
    alphabet = cert.source.alphabet
    for label, side in ((a1, "row"), (a2, "column")):
        if label not in alphabet:
            raise MatrixShapeError(f"unknown {side} label {label!r}")
    i, k = alphabet.index(a1), alphabet.index(a2)
    b = cert._gamma_codes.get(chr(i) + chr(k))
    if b is not None:
        return cert.target.alphabet[ord(b)]
    if k not in cert.source._succ[i]:
        raise CertificateError("admissible", f"({a1!r}, {a2!r}) is not an allowed transition")
    raise CertificateError("unique b", f"no unique image symbol for ({a1!r}, {a2!r})")


def verify_prop22(cert: HalfElemCert) -> Report:
    """Check the flip-intertwining identity of the induced conjugacy.

    The image of a flipped point must be the once-shifted flip of the image
    point.  Both sides are two-block codes, so the identity is decided as
    Gamma(tau b, tau a) == tau'(Gamma(a, b)) on every source transition (a, b),
    read off ``HalfElemCert._gamma_codes`` on index strings; labels are spelled
    only for the first transition that fails.
    """
    report = Report(title="flip intertwining of the induced conjugacy")
    src, codes, dst_tau = cert.source, cert._gamma_codes, cert.target.tau_index
    bad = ""
    for e in _index_blocks(src.A, 2):
        rhs = codes.get(e)
        if rhs is None or codes.get(e[::-1].translate(src.tau_index)) != rhs.translate(dst_tau):
            a, b = (src.alphabet[ord(c)] for c in e)
            try:
                lhs = gamma_block(cert, src.tau[b], src.tau[a])
                bad = f"transition ({a}, {b}): {lhs} != {cert.target.tau[gamma_block(cert, a, b)]}"
            except CertificateError as err:
                bad = f"transition ({a}, {b}): {err}"
            break
    report.add("source transitions", not bad, bad)
    return report


def sse_verify(chain: StrongChain) -> Report:
    """Report the lag of a chain and what its parity means.

    Nothing is left to check: every link passed ``he_check`` where it was made
    or read (see ``HalfElemCert``), and every joint passed ``StrongChain``
    where the chain was made.  Even lag means the end systems are conjugate
    as flip systems; odd lag means the source is conjugate to the
    once-shifted flip of the target.
    """
    report = Report(title="splitting chain verification")
    k = chain.lag
    if k % 2 == 0:
        note = "even lag: end systems conjugate as flip systems"
    else:
        note = "odd lag: source conjugate to the once-shifted flip of the target"
    report.add(f"lag {k}", True, note)
    return report


# -- lag-k checking ------------------------------------------------------------


def sfe_check(src: FlipPair, dst: FlipPair, R: IntMatrix, lag: int) -> ShiftFlipCert:
    """Check R as a lag-k equivalence witness from src to dst.

    Derives S = K R^T J and verifies A^k == R*S, B^k == S*R and A*R == R*B.
    S*A == B*S then holds as well: S*A == K (A R)^T J == K (R B)^T J == B*S by
    the flip symmetry of both pairs.  This is the checker for certificates
    from outside; ``sfe_bounded_search`` tests only the two power identities.
    """
    if lag < 1:
        raise CertificateError("lag", "lag must be >= 1")
    if R.row_labels != src.alphabet or R.col_labels != dst.alphabet:
        raise CertificateError("shape", "R must map the source alphabet to the target alphabet")
    if any(x < 0 for row in R.entries for x in row):
        raise CertificateError("R nonnegative", "R has a negative entry")
    s = _companion(src, dst, R)
    if mat_mul(R, s) != mat_pow(src.A, lag):
        raise CertificateError("A^k == R*S", f"A^{lag} != R*S")
    if mat_mul(s, R) != mat_pow(dst.A, lag):
        raise CertificateError("B^k == S*R", f"B^{lag} != S*R")
    if mat_mul(src.A, R) != mat_mul(R, dst.A):
        raise CertificateError("A*R == R*B", "A*R != R*B")
    return ShiftFlipCert(source=src, target=dst, R=R, S=s, lag=lag)


# -- bounded searches: one walk over the kernel of A*R == R*B ------------------


def _kernel_walk(src: FlipPair, dst: FlipPair, lag_max: int, entry_max: int, budget: int
                 ) -> list[tuple[tuple[int, ...], IntMatrix, IntMatrix, list[int]]]:
    """Every R with A*R == R*B and entries in 0..entry_max, with the lags
    k <= lag_max at which A^k == R*S and B^k == S*R, for any R that has one:
    (R at the kernel's free cells, R, S, the lags), in no set order.

    The cells of R are the columns of the linear system.  Its integral kernel
    has scale d and one vector per free cell, d there and 0 past it, so each
    other cell is final once the free cells past it are set.  The walk sets
    the free cells from the last back and drops a branch at the first final
    cell that is not d times a value in 0..entry_max.  A finished row of R is
    compared on R*S with itself and the rows past it, keeping the lags whose
    A^k still fits, and a whole R on S*R with B^k.  ``BudgetError`` refuses a
    system of over ``budget`` entries unbuilt, and the branch past ``budget``
    untaken; the walk takes fewer than (entry_max+1)^dimension branches.
    """
    na, nb = src.size, dst.size
    ncell = na * nb
    if ncell * ncell > budget:
        raise BudgetError(f"{na}x{nb} needs {ncell ** 2} system entries, over budget {budget}")
    system = []
    for i in range(na):
        for b in range(nb):
            row = [0] * ncell
            for j in range(na):
                row[j * nb + b] += src.A.entries[i][j]
            for c in range(nb):
                row[i * nb + c] -= dst.A.entries[c][b]
            system.append(row)
    d, basis = _integral_kernel(system, ncell)
    free = [max(k for k, x in enumerate(v) if x) for v in basis]
    # d times cell k is the sum of r[f] * w over its terms (f, w)
    terms = [[(f, v[k]) for f, v in zip(free, basis) if v[k]] for k in range(ncell)]
    steps = []  # the cells from the last back, each row checked once it is finished
    for t in reversed(range(na)):
        steps += [("free" if k in free else "settle", k)
                  for k in reversed(range(t * nb, (t + 1) * nb))]
        steps.append(("row", t))
    powers = [(lag, mat_pow(src.A, lag).entries, mat_pow(dst.A, lag))
              for lag in range(1, lag_max + 1)]
    tau_j, tau_k = src.tau_index, dst.tau_index
    r, found, taken = [0] * ncell, [], 0
    # (next step, a free cell and its value, lags): the branches still to take;
    # a branch sets only the cells before its own, so the cells past it stay set
    branches = [(0, None, 0, powers)]
    while branches:
        start, cell, value, alive = branches.pop()
        if cell is not None:
            r[cell] = value
        for pos, (kind, i) in enumerate(steps[start:], start + 1):
            if kind == "row":
                # (R*S)(i, tau_J u) == (R*S)(u, tau_J i), and so are A^k's
                # entries by the flip symmetry: one comparison decides both
                row = r[i * nb:(i + 1) * nb]
                for u in range(i, na):
                    rs = sum(x * r[u * nb + tb] for x, tb in zip(row, tau_k) if x)
                    alive = [p for p in alive if p[1][i][tau_j[u]] == rs]
                if not alive:
                    break
            elif kind == "free":
                if (taken := taken + entry_max) > budget:
                    raise BudgetError(f"kernel dimension {len(basis)} with entries <= "
                                      f"{entry_max} needs more than {budget} branches")
                branches.extend((pos, i, c, alive) for c in range(1, entry_max + 1))
                r[i] = 0
            else:
                q, rem = divmod(sum(r[f] * w for f, w in terms[i]), d)
                if rem or not 0 <= q <= entry_max:
                    break
                r[i] = q
        else:
            rm = IntMatrix._trusted(src.alphabet, dst.alphabet, tuple(
                tuple(r[t * nb:(t + 1) * nb]) for t in range(na)))
            s = _companion(src, dst, rm)
            sr = mat_mul(s, rm)
            lags = [lag for lag, _, b_k in alive if sr == b_k]
            if lags:
                found.append((tuple(r[f] for f in free), rm, s, lags))
    return found


def he_search(src: FlipPair, dst: FlipPair, max_solutions: int = DEFAULT_MAX_SOLUTIONS
              ) -> list[HalfElemCert]:
    """The first ``max_solutions`` splitting steps from src to dst by R's rows.

    A step is a lag-1 witness whose R is zero-one (A*R == R*S*R == R*B), so
    the steps are ``_kernel_walk``'s at lag 1 with entries <= 1, each made by
    ``he_check``.  ``sfe_bounded_search(src, dst, 1, 1, budget)`` widens the budget.
    """
    found = sorted(_kernel_walk(src, dst, 1, 1, DEFAULT_SEARCH_BUDGET),
                   key=lambda w: w[1].entries)
    return [he_check(src, dst, r) for _, r, _, _ in found[:max(max_solutions, 0)]]


def sfe_bounded_search(src: FlipPair, dst: FlipPair, lag_max: int, entry_max: int,
                       budget: int = DEFAULT_SEARCH_BUDGET) -> list[ShiftFlipCert]:
    """All lag-k certificates with entries of R bounded by entry_max, k <= lag_max.

    The intertwining condition A*R == R*B is linear in R, so the candidates
    are the points of its integral kernel with entries in 0..entry_max, which
    ``_kernel_walk`` visits with pruning, testing only A^k == R*S and
    B^k == S*R; ``sfe_check`` stays the full checker for certificates from
    outside.  This is complete within the stated bounds; an empty result means
    "none within bounds", never a non-existence proof.  ``budget`` bounds the
    walk's system entries and branches.  Certificates come in the order of R at
    the kernel's free cells, the first free cell first, then lags ascending.
    """
    if lag_max < 1 or entry_max < 0:
        raise ValueError("need lag_max >= 1 and entry_max >= 0")
    found = sorted(_kernel_walk(src, dst, lag_max, entry_max, budget), key=lambda w: w[0])
    return [ShiftFlipCert(source=src, target=dst, R=r, S=s, lag=lag)
            for _, r, s, lags in found for lag in lags]
