"""Certificates and checkers for the three equivalence notions on flip pairs.

A single splitting step is witnessed by a zero-one matrix R; the companion
matrix S is always derived as S = K R^T J, which halves both the certificate
format and every search space.  J and K are read as the symbol involutions
they encode, so S is R transposed and re-indexed.  ``he_check`` checks each
step once, where it is made.  Steps and the lag-k analogue with nonnegative
integral R are verified identity by identity with the first violation
reported by name; identities implied by the earlier ones are not re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product

from .errors import BudgetError, CertificateError
from .flips import FlipPair
from .matrices import IntMatrix, _integral_kernel, _Ones, mat_mul, mat_pow
from .report import Report
from .shifts import blocks

DEFAULT_CELL_BUDGET = 30
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

    @cached_property
    def _gamma_table(self) -> dict[tuple[str, str], str]:
        """``_gamma_codes`` in the labels: (a1, a2) -> b."""
        src, dst = self.source.alphabet, self.target.alphabet
        return {(src[ord(i)], src[ord(k)]): dst[ord(b)]
                for (i, k), b in self._gamma_codes.items()}


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
    try:
        return cert._gamma_table[(a1, a2)]
    except KeyError:
        if cert.source.A.entry(a1, a2) != 1:
            raise CertificateError("admissible",
                                   f"({a1!r}, {a2!r}) is not an allowed transition") from None
        raise CertificateError("unique b",
                               f"no unique image symbol for ({a1!r}, {a2!r})") from None


def verify_prop22(cert: HalfElemCert) -> Report:
    """Check the flip-intertwining identity of the induced conjugacy.

    The image of a flipped point must be the once-shifted flip of the image
    point.  Both sides are two-block codes, so the identity is decided as
    Gamma(tau b, tau a) == tau'(Gamma(a, b)) on every source transition (a, b).
    """
    report = Report(title="flip intertwining of the induced conjugacy")
    src_tau, dst_tau = cert.source.tau, cert.target.tau
    bad = ""
    for a, b in blocks(cert.source.A, 2):
        try:
            lhs = gamma_block(cert, src_tau[b], src_tau[a])
            rhs = dst_tau[gamma_block(cert, a, b)]
        except CertificateError as e:
            bad = f"transition ({a}, {b}): {e}"
            break
        if lhs != rhs:
            bad = f"transition ({a}, {b}): {lhs} != {rhs}"
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


# -- single-step search ----------------------------------------------------------


def he_search(src: FlipPair, dst: FlipPair, max_solutions: int = DEFAULT_MAX_SOLUTIONS,
              cell_budget: int = DEFAULT_CELL_BUDGET) -> list[HalfElemCert]:
    """Enumerate all single splitting steps from src to dst, R row by row.

    S is forced by the derivation rule, so only zero-one R matrices are
    enumerated, in lexicographic row order.  Partial assignments are pruned
    against both product identities before descending.
    """
    na, nb = src.size, dst.size
    if na * nb > cell_budget:
        raise BudgetError(f"{na}x{nb} exceeds the search budget of {cell_budget} cells")
    tau_j, tau_k = src.tau_index, dst.tau_index
    a_sets, b_sets = [set(js) for js in src._succ], [set(js) for js in dst._succ]
    row_candidates = [tuple(compress(range(nb), bits)) for bits in product((0, 1), repeat=nb)]
    rows: list[tuple[int, ...]] = []
    found: list[HalfElemCert] = []

    def partial_ok(t: int) -> bool:
        # with rows 0..t placed, A*J == R*K*R^T is decided on those rows, where
        # (R*K*R^T)(i, i2) counts the b in R[i] with tau_K b in R[i2]
        rt = set(rows[t])
        for i in range(t + 1):
            ri = set(rows[i])
            if sum(tau_k[b] in ri for b in rt) != (tau_j[i] in a_sets[t]) or \
                    sum(tau_k[b] in rt for b in ri) != (tau_j[t] in a_sets[i]):
                return False
        # K*B == R^T*J*R on fully placed symbol pairs: each (b, b2) with
        # R(a, b) == R(tau_J a, b2) == 1 at most once, and only where B(tau_K b, b2) == 1
        seen: set[tuple[int, int]] = set()
        for a in range(t + 1):
            if tau_j[a] <= t:
                for b in rows[a]:
                    for b2 in rows[tau_j[a]]:
                        if (b, b2) in seen or b2 not in b_sets[tau_k[b]]:
                            return False
                        seen.add((b, b2))
        return True

    def descend():
        if len(found) >= max_solutions:
            return
        if len(rows) == na:
            try:
                found.append(he_check(src, dst, tuple(rows)))
            except CertificateError:
                pass
            return
        for cand in row_candidates:
            rows.append(cand)
            if partial_ok(len(rows) - 1):
                descend()
            rows.pop()
            if len(found) >= max_solutions:
                return

    descend()
    return found


# -- lag-k checking and bounded search -------------------------------------------


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


def sfe_bounded_search(src: FlipPair, dst: FlipPair, lag_max: int, entry_max: int,
                       budget: int = DEFAULT_SEARCH_BUDGET) -> list[ShiftFlipCert]:
    """All lag-k certificates with entries of R bounded by entry_max, k <= lag_max.

    The intertwining condition A*R == R*B is linear in R, so candidates are
    enumerated inside its kernel: free coordinates of the kernel are entries
    of R and therefore range over 0..entry_max.  The kernel basis is integral
    with scale d, so a candidate is kept when every coordinate is a multiple
    of d with quotient in 0..entry_max.  This is complete within the stated
    bounds; an empty result means "none within bounds", never a non-existence
    proof.

    A candidate has the right shape, is nonnegative and satisfies A*R == R*B
    by construction, so of ``sfe_check``'s identities only A^k == R*S and
    B^k == S*R are tested here: the powers once per lag, R*S once per
    candidate, and S*R once for a candidate whose R*S is one of the powers.
    ``sfe_check`` stays the full checker for certificates from outside.
    Certificates come candidate by candidate, lags ascending.
    """
    if lag_max < 1 or entry_max < 0:
        raise ValueError("need lag_max >= 1 and entry_max >= 0")
    na, nb = src.size, dst.size
    ncell = na * nb
    if ncell == 0:
        return []
    rows = []
    for i in range(na):
        for b in range(nb):
            row = [0] * ncell
            for j in range(na):
                row[j * nb + b] += src.A.entries[i][j]
            for c in range(nb):
                row[i * nb + c] -= dst.A.entries[c][b]
            rows.append(row)
    d, basis = _integral_kernel(rows, ncell)
    dim = len(basis)
    if (entry_max + 1) ** dim > budget:
        raise BudgetError(
            f"kernel dimension {dim} with entries <= {entry_max} exceeds budget {budget}")
    nonzeros = [[(k, x) for k, x in enumerate(bvec) if x] for bvec in basis]
    powers = [(lag, mat_pow(src.A, lag), mat_pow(dst.A, lag))
              for lag in range(1, lag_max + 1)]
    found: list[ShiftFlipCert] = []
    for coeffs in product(range(entry_max + 1), repeat=dim):
        vec = [0] * ncell
        for c, bvec in zip(coeffs, nonzeros):
            if c:
                for k, x in bvec:
                    vec[k] += c * x
        if any(x % d or not 0 <= x // d <= entry_max for x in vec):
            continue
        r = IntMatrix._trusted(src.alphabet, dst.alphabet, tuple(
            tuple(vec[i * nb + b] // d for b in range(nb)) for i in range(na)))
        s = _companion(src, dst, r)
        rs = mat_mul(r, s)
        lags = [(lag, b_k) for lag, a_k, b_k in powers if rs == a_k]
        if lags:
            sr = mat_mul(s, r)
            found.extend(ShiftFlipCert(source=src, target=dst, R=r, S=s, lag=lag)
                         for lag, b_k in lags if sr == b_k)
    return found
