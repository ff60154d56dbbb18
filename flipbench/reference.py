"""Reference computations for checking flipshift's outputs.

Everything here is written apart from the package: it imports nothing from
``flipshift`` and works on plain lists of ``int`` rows and ``Fraction``
coefficients.  Counts come from iterating sparse row vectors, never from
matrix powers, so a fault in the package's dense kernel cannot hide in the
expected values.

A pair is given as ``(alphabet, A, J)``: a tuple of symbol strings and two
zero-one row lists over that alphabet.
"""

from __future__ import annotations

from fractions import Fraction


def sparse_rows(rows):
    """Per row, the list of (column, value) of its nonzero entries."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def vec_times(vec, srows, ncols):
    """The row vector ``vec`` times the matrix given by its sparse rows."""
    out = [0] * ncols
    for i, x in enumerate(vec):
        if x:
            for j, a in srows[i]:
                out[j] += x * a
    return out


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def traces(rows, kmax):
    """tr(A^k) for k = 1..kmax, as a list indexed from 0 for k = 1."""
    n = len(rows)
    srows = sparse_rows(rows)
    out = [0] * kmax
    for i in range(n):
        vec = [0] * n
        vec[i] = 1
        for k in range(kmax):
            vec = vec_times(vec, srows, n)
            out[k] += vec[i]
    return out


def tau_of(jrows):
    """The symbol involution of a zero-one J, as a list of indices."""
    return [row.index(1) for row in jrows]


def flip_counts(arows, jrows, m_max):
    """The triples (p(2m-1,0), p(2m,0), p(2m,1)) for m = 1..m_max.

    p(2m-1,0) = dJ^T A^(m-1) dAJ, p(2m,0) = dJ^T A^m dJ and
    p(2m,1) = dJA^T A^(m-1) dAJ, where dM is the diagonal of M.
    """
    n = len(arows)
    tau = tau_of(jrows)
    d_j = [1 if tau[i] == i else 0 for i in range(n)]
    d_aj = [arows[i][tau[i]] for i in range(n)]
    d_ja = [arows[tau[i]][i] for i in range(n)]
    srows = sparse_rows(arows)
    left_j, left_ja = d_j, d_ja
    out = []
    for _ in range(m_max):
        left_j_next = vec_times(left_j, srows, n)
        out.append((dot(left_j, d_aj), dot(left_j_next, d_j), dot(left_ja, d_aj)))
        left_j = left_j_next
        left_ja = vec_times(left_ja, srows, n)
    return out


# -- essential part and block pairs ----------------------------------------------------


def essential_flags(arows):
    """(has infinite past, has infinite future) per symbol."""
    n = len(arows)
    succ = [[j for j in range(n) if arows[i][j]] for i in range(n)]
    pred = [[i for i in range(n) if arows[i][j]] for j in range(n)]

    def survivors(edges_out, edges_in):
        # repeatedly drop symbols with no outgoing edge into the kept set
        alive = [True] * n
        outdeg = [len(e) for e in edges_out]
        stack = [i for i in range(n) if outdeg[i] == 0]
        while stack:
            i = stack.pop()
            if not alive[i]:
                continue
            alive[i] = False
            for p in edges_in[i]:
                if alive[p]:
                    outdeg[p] -= 1
                    if outdeg[p] == 0:
                        stack.append(p)
        return alive

    future = survivors(succ, pred)
    past = survivors(pred, succ)
    return past, future


def essential_indices(arows):
    past, future = essential_flags(arows)
    return [i for i in range(len(arows)) if past[i] and future[i]]


def restrict(alphabet, arows, jrows, keep):
    """The pair restricted to the symbol indices ``keep``."""
    return (tuple(alphabet[i] for i in keep),
            [[arows[i][j] for j in keep] for i in keep],
            [[jrows[i][j] for j in keep] for i in keep])


def block_words(arows, k):
    """Index words of length k that occur in bi-infinite points, in lex order."""
    past, future = essential_flags(arows)
    n = len(arows)
    succ = [[j for j in range(n) if arows[i][j]] for i in range(n)]
    words = [(i,) for i in range(n) if past[i]]
    for _ in range(k - 1):
        words = [w + (j,) for w in words for j in succ[w[-1]]]
    return [w for w in words if future[w[-1]]]


def block_pair(alphabet, arows, jrows, k):
    """The k-block pair: edges by word overlap, involution by reverse-then-tau.

    Labels are the space-joined words, in lexicographic order of symbol
    positions, the order flipshift documents for block alphabets.
    """
    tau = tau_of(jrows)
    words = block_words(arows, k)
    pos = {w: i for i, w in enumerate(words)}
    by_prefix: dict[tuple, list[int]] = {}
    for i, w in enumerate(words):
        by_prefix.setdefault(w[:-1], []).append(i)
    size = len(words)
    a = [[0] * size for _ in range(size)]
    jm = [[0] * size for _ in range(size)]
    for i, w in enumerate(words):
        for i2 in by_prefix.get(w[1:], ()):
            if arows[w[-1]][words[i2][-1]]:
                a[i][i2] = 1
        jm[i][pos[tuple(tau[s] for s in reversed(w))]] = 1
    labels = tuple(" ".join(alphabet[s] for s in w) for w in words)
    return labels, a, jm


def centre_map(block_labels):
    """psi of the centre-read code from an odd-length block alphabet."""
    out = {}
    for lab in block_labels:
        word = lab.split(" ")
        out[lab] = word[len(word) // 2]
    return out


# -- polynomials and series ------------------------------------------------------------


def char_poly_from_traces(tr, n):
    """Ascending coefficients of det(tI - A) from tr(A^k), k = 1..n (Newton).

    With e_0 = 1 and k*e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i, the
    polynomial is sum_k (-1)^k e_k t^(n-k).
    """
    e = [Fraction(1)]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * tr[i - 1] for i in range(1, k + 1))
        e.append(Fraction(acc, k))
    desc = [(-1) ** k * e[k] for k in range(n + 1)]
    if any(c.denominator != 1 for c in desc):
        raise ArithmeticError("Newton's identities gave a non-integral coefficient")
    return [int(c) for c in reversed(desc)]


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def multiplicity_of_one(coeffs):
    """The multiplicity of 1 as a root of an ascending-coefficient polynomial."""
    p = list(coeffs)
    mult = 0
    while len(p) > 1 and sum(p) == 0:
        # synthetic division by (t - 1), from the top coefficient down
        q = [0] * (len(p) - 1)
        carry = 0
        for d in range(len(p) - 1, 0, -1):
            carry = p[d] + carry
            q[d - 1] = carry
        p = q
        mult += 1
    return mult


def series_exp(f):
    """exp of a series with zero constant term: n g_n = sum k f_k g_(n-k)."""
    order = len(f) - 1
    g = [Fraction(1)] + [Fraction(0)] * order
    for d in range(1, order + 1):
        g[d] = sum(k * f[k] * g[d - k] for k in range(1, d + 1)) / d
    return g


def generating_function(triples, order):
    """sum_m p(2m-1,0) t^(2m-1) + (p(2m,0) + p(2m,1))/2 t^(2m)."""
    g = [Fraction(0)] * (order + 1)
    for m, (odd, even0, even1) in enumerate(triples, start=1):
        if 2 * m - 1 <= order:
            g[2 * m - 1] = Fraction(odd)
        if 2 * m <= order:
            g[2 * m] = Fraction(even0 + even1, 2)
    return g


def lind_zeta(tr, triples, order):
    """exp((1/2) sum_n tr(A^n) t^(2n)/n + G(t)): the half power is exact."""
    f = generating_function(triples, order)
    for n in range(1, order // 2 + 1):
        f[2 * n] += Fraction(tr[n - 1], 2 * n)
    return series_exp(f)


def pair_series(arows, jrows, order):
    """Generating function and Lind zeta of a pair, each to the given order."""
    tr = traces(arows, max(order // 2, 1))
    triples = flip_counts(arows, jrows, order // 2 + 1)
    return generating_function(triples, order), lind_zeta(tr, triples, order)


# -- splitting steps -----------------------------------------------------------------


def mat_mul(a, b, ncols):
    """Product of integer row lists, b with ncols columns, row by sparse row."""
    sb = sparse_rows(b)
    return [vec_times(row, sb, ncols) for row in a]


def transpose(a, ncols):
    return [[row[j] for row in a] for j in range(ncols)]


def splitting_step_holds(src_a, src_j, dst_a, dst_j, r, s):
    """Whether (R, S) is a splitting step: A = R S, B = S R and S = K R^T J."""
    if len(r) != len(src_a) or len(s) != len(dst_a):
        return False
    if any(len(row) != len(dst_a) for row in r) or any(len(row) != len(src_a) for row in s):
        return False
    na, nb = len(src_a), len(dst_a)
    derived = mat_mul(mat_mul(dst_j, transpose(r, nb), na), src_j, na)
    return mat_mul(r, s, na) == src_a and mat_mul(s, r, nb) == dst_a and derived == s


PRIME = 2 ** 61 - 1


def commutant_dimension(arows):
    """dim {R : A R = R A}, the kernel the lag search enumerates.

    The rank of the linear map R -> A R - R A is taken modulo a large prime.
    That rank can only fall short of the rational one, so the result can only
    overstate the dimension; as every commutant of an n x n matrix has
    dimension at least n, a result of exactly n is exact.
    """
    n = len(arows)
    rows = []
    for i in range(n):
        for b in range(n):
            row = [0] * (n * n)
            for j in range(n):
                row[j * n + b] += arows[i][j]
            for c in range(n):
                row[i * n + c] -= arows[c][b]
            rows.append(row)
    return n * n - rank_mod_prime(rows)


def rank_mod_prime(rows):
    """Rank of an integer matrix over the field with PRIME elements."""
    m = [[x % PRIME for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], PRIME - 2, PRIME)
        pivot_row = [x * inv % PRIME for x in m[r]]
        m[r] = pivot_row
        for i in range(r + 1, nr):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % PRIME for x, y in zip(m[i], pivot_row)]
        r += 1
    return r
