"""Constructive machinery connecting flip pairs.

Three builders live here:

* ``higher_block``: the block-recoded pair on length-(n+1) admissible words,
  together with the length-n chain of splitting steps that witnesses it.
* ``build_flip_pair``: turn a sliding-block flip rule on a Markov shift into a
  flip pair plus the block code onto it.
* ``decompose_conjugacy``: decompose a one-block flip-conjugacy between two
  flip pairs into a chain of splitting steps of even lag, via intermediate
  triple alphabets and a final block-recoding of the target.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equivalence import (HalfElemCert, StrongChain, gamma_point, he_check,
                          sse_verify)
from .errors import CertificateError, FlipShiftError, SpecError
from .flips import FlipPair, Word
from .matrices import IntMatrix
from .report import Report
from .shifts import (Point, blocks, enumerate_periodic, essential_symbols,
                     flip_point, is_essential, is_periodic_point, shift_point,
                     word_center)

CHECK_PERIOD = 6  # the spec classes validate on all periods up to this


def _join(w: Word) -> str:
    return " ".join(w)


def _word_key(alphabet: tuple[str, ...]):
    index = {s: i for i, s in enumerate(alphabet)}
    return lambda w: tuple(index[s] for s in w)


# -- higher block pairs --------------------------------------------------------


def _block_pair(pair: FlipPair, k: int) -> tuple[FlipPair, tuple[Word, ...]]:
    """The flip pair on length-k admissible words, in canonical block order."""
    words = blocks(pair.A, k)
    labels = tuple(_join(w) for w in words)
    n = len(words)
    pos = {w: i for i, w in enumerate(words)}
    a_rows = [[0] * n for _ in range(n)]
    j_rows = [[0] * n for _ in range(n)]
    for i, u in enumerate(words):
        for j2, v in enumerate(words):
            # progressive overlap plus admissibility of the one new pair
            if u[1:] == v[:-1] and pair.A.entry(u[-1], v[-1]) == 1:
                a_rows[i][j2] = 1
        flipped = pair.flip_word(u)
        j_rows[i][pos[flipped]] = 1
    a = IntMatrix.square(labels, a_rows)
    jm = IntMatrix.square(labels, j_rows)
    return FlipPair(a, jm), words


def higher_block(pair: FlipPair, n: int) -> tuple[FlipPair, StrongChain]:
    """The (n+1)-block pair of a flip pair, with its verified splitting chain.

    The chain has one link per block-length increase; link k goes from the
    k-block pair to the (k+1)-block pair, with R reading "drop the last
    symbol" and S reading "drop the first symbol".
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pairs: list[FlipPair] = []
    word_lists: list[tuple[Word, ...]] = []
    for k in range(1, n + 2):
        pk, words = _block_pair(pair, k)
        pairs.append(pk)
        word_lists.append(words)
    links: list[HalfElemCert] = []
    for k in range(n):
        us, vs = word_lists[k], word_lists[k + 1]
        r_rows = [[1 if u == v[:-1] else 0 for v in vs] for u in us]
        s_rows = [[1 if u == v[1:] else 0 for u in us] for v in vs]
        r = IntMatrix.rect(pairs[k].alphabet, pairs[k + 1].alphabet, r_rows)
        s = IntMatrix.rect(pairs[k + 1].alphabet, pairs[k].alphabet, s_rows)
        links.append(he_check(pairs[k], pairs[k + 1], r, supplied_S=s))
    chain = StrongChain(pairs=tuple(pairs), links=tuple(links))
    return pairs[-1], chain


# -- flip pairs from sliding-block flip rules ------------------------------------


class BlockFlipSpec:
    """A sliding-block flip rule on a Markov shift, validated on construction.

    The rule maps every admissible window of width 2*window+1 to a symbol; the
    induced map applies the rule at mirrored coordinates.  Admissibility of
    images, involutivity, and the time-reversal identity are verified on all
    periodic points up to ``CHECK_PERIOD``.
    """

    def __init__(self, A: IntMatrix, window: int, rule: dict[Word, str]):
        if window < 0:
            raise SpecError("window", "window must be >= 0")
        needed = set(blocks(A, 2 * window + 1))
        given = {tuple(k): str(v) for k, v in rule.items()}
        if set(given) != needed:
            missing = sorted(needed - set(given))[:3]
            extra = sorted(set(given) - needed)[:3]
            raise SpecError("phi_total",
                            f"rule domain mismatch (missing {missing}, extra {extra})")
        alphabet = set(A.row_labels)
        for k, v in given.items():
            if v not in alphabet:
                raise SpecError("phi_into", f"rule image {v!r} is not a symbol")
        self.A = A
        self.window = window
        self.rule = given
        for m in range(1, CHECK_PERIOD + 1):
            for x in enumerate_periodic(A, m):
                y = self.phi_point(x)
                if not is_periodic_point(A, y):
                    raise SpecError("phi_into", f"image of {x} leaves the shift")
                if self.phi_point(y) != x:
                    raise SpecError("phi_involution", f"rule does not square to id at {x}")
                if shift_point(y, 1) != self.phi_point(shift_point(x, -1)):
                    raise SpecError("phi_reversal", f"rule does not reverse time at {x}")

    def phi_point(self, x: Point) -> Point:
        """Apply the induced flip to a periodic point."""
        m = len(x)
        n = self.window
        out = []
        for i in range(m):
            block = tuple(x[(-i - n + d) % m] for d in range(2 * n + 1))
            out.append(self.rule[block])
        return tuple(out)

    def count_pmn(self, m: int, n: int) -> int:
        """Brute-force count of points fixed by shift^m and shift^n o flip."""
        count = 0
        for x in enumerate_periodic(self.A, m):
            if shift_point(self.phi_point(x), n) == x:
                count += 1
        return count


@dataclass
class BlockCode:
    """A sliding block code reading a window of radius ``radius``."""

    radius: int
    mapping: dict[Word, str]

    def apply_point(self, x: Point) -> Point:
        m = len(x)
        width = 2 * self.radius + 1
        return tuple(self.mapping[tuple(x[(i - self.radius + d) % m]
                                        for d in range(width))]
                     for i in range(m))


def build_flip_pair(spec: BlockFlipSpec) -> tuple[FlipPair, BlockCode]:
    """Represent a sliding-block flip by a flip pair on window/image symbol pairs.

    Each new symbol is a realized pair (u, v): u a centered window of a point
    x, v the reverse of the flip image's matching window.  Realization is
    decided by scanning admissible blocks of width 4*window+1, since the image
    window only depends on that much of x.  The returned block code reads a
    point into the new alphabet; it conjugates the given flip to the one-block
    flip of the pair.
    """
    n = spec.window
    a = spec.A
    width = 2 * n + 1
    letters: dict[tuple[Word, Word], None] = {}
    theta: dict[Word, tuple[Word, Word]] = {}
    for w in blocks(a, 4 * n + 1):
        u = w[n:3 * n + 1]
        v = tuple(spec.rule[w[d:d + width]] for d in range(width))
        letters[(u, v)] = None
        theta[w] = (u, v)
    key = _word_key(a.row_labels)
    ordered = sorted(letters, key=lambda uv: (key(uv[0]), key(uv[1])))
    label = {uv: f"{_join(uv[0])}|{_join(uv[1])}" for uv in ordered}
    size = len(ordered)
    a_rows = [[0] * size for _ in range(size)]
    j_rows = [[0] * size for _ in range(size)]
    for i, (u, v) in enumerate(ordered):
        for j2, (u2, v2) in enumerate(ordered):
            # overlaps plus the single new adjacency on each side; the extra
            # pairs are only binding at window 0, where the overlaps are empty
            if (u[1:] == u2[:-1] and a.entry(u[-1], u2[-1]) == 1
                    and v[1:] == v2[:-1] and a.entry(v2[-1], v[-1]) == 1):
                a_rows[i][j2] = 1
            if tuple(reversed(v)) == u2 and tuple(reversed(v2)) == u:
                j_rows[i][j2] = 1
    labels = tuple(label[uv] for uv in ordered)
    new_a = IntMatrix.square(labels, a_rows)
    new_j = IntMatrix.square(labels, j_rows)
    ess = essential_symbols(new_a)
    if ess != labels:
        new_a = new_a.submatrix(ess)
        new_j = new_j.submatrix(ess)
    pair = FlipPair(new_a, new_j)
    mapping = {}
    for w, uv in theta.items():
        if label[uv] not in pair.alphabet:
            raise SpecError("realization",
                            f"scanned window {w} maps to a stranded symbol")
        mapping[w] = label[uv]
    return pair, BlockCode(radius=2 * n, mapping=mapping)


# -- decomposing one-block conjugacies -------------------------------------------


class OneBlockConjugacySpec:
    """A one-block conjugacy of flip systems, validated on construction.

    ``psi`` maps source symbols to target symbols; ``inverse_window`` is the
    radius of target windows that determine the inverse's central symbol.
    Validation checks that psi is total, lands in the target shift, is a
    flip-intertwining bijection on periodic points up to ``CHECK_PERIOD``, and
    that images of width-(2m+1) source blocks determine their central symbol
    and exhaust the target's width-(2m+1) blocks.
    """

    def __init__(self, source: FlipPair, target: FlipPair, psi: dict[str, str],
                 inverse_window: int):
        if inverse_window < 0:
            raise SpecError("inverse_window", "inverse window must be >= 0")
        if not is_essential(source.A) or not is_essential(target.A):
            raise SpecError("essential", "both pairs must have no stranded symbols")
        if set(psi) != set(source.alphabet):
            raise SpecError("psi_total", "psi must be defined on exactly the source alphabet")
        if not set(psi.values()) <= set(target.alphabet):
            raise SpecError("psi_into", "psi maps outside the target alphabet")
        self.source = source
        self.target = target
        self.psi = dict(psi)
        self.inverse_window = inverse_window
        m = inverse_window
        target_blocks = set(blocks(target.A, 2 * m + 1))
        centers: dict[Word, str] = {}
        seen = set()
        for u in blocks(source.A, 2 * m + 1):
            img = self.map_word(u)
            if img not in target_blocks:
                raise SpecError("psi_into", f"image block {img} is not admissible")
            c = word_center(u)
            if centers.setdefault(img, c) != c:
                raise SpecError("inverse_window",
                                f"image block {img} has ambiguous central preimage")
            seen.add(img)
        if seen != target_blocks:
            raise SpecError("psi_onto", "images do not exhaust the target blocks")
        for per in range(1, CHECK_PERIOD + 1):
            src_points = enumerate_periodic(source.A, per)
            dst_points = set(enumerate_periodic(target.A, per))
            images = [self.map_point(x) for x in src_points]
            if not set(images) <= dst_points:
                raise SpecError("psi_into", f"period-{per} image leaves the target shift")
            if len(set(images)) != len(images) or len(images) != len(dst_points):
                raise SpecError("psi_bijective",
                                f"not a period-{per} bijection "
                                f"({len(set(images))} images, {len(dst_points)} points)")
            for x in src_points:
                if self.map_point(flip_point(source, x)) != flip_point(target, self.map_point(x)):
                    raise SpecError("psi_flip", f"flip intertwining fails at {x}")

    def map_word(self, w: Word) -> Word:
        return tuple(self.psi[s] for s in w)

    def map_point(self, x: Point) -> Point:
        return tuple(self.psi[s] for s in x)


@dataclass
class ConjugacyDecomposition:
    """A verified even-lag chain realizing a one-block conjugacy.

    ``source_recoding`` renames source symbols onto the chain's first pair
    (the identity except for pure relabelings).  ``map_point`` composes the
    recoding with every link's induced conjugacy and finally shifts back by
    half the lag: the raw link composition lands on the lag-shifted image, and
    the half-lag shift is exactly the normalization that makes an even-lag
    chain a flip-system conjugacy.
    """

    chain: StrongChain
    source_recoding: dict[str, str]

    def map_point(self, x: Point) -> Point:
        y = tuple(self.source_recoding[s] for s in x)
        for link in self.chain.links:
            y = gamma_point(link, y)
        return shift_point(y, -(self.chain.lag // 2))


def _triple_label(k: int, u: Word, w: Word, v: Word) -> str:
    if k == 1:
        return _join(w)
    return f"{_join(u)}|{_join(w)}|{_join(v)}"


def decompose_conjugacy(spec: OneBlockConjugacySpec) -> ConjugacyDecomposition:
    """Decompose a one-block flip-conjugacy into splitting steps of even lag.

    With inverse window m, the chain walks through 2m+1 pairs on triple
    alphabets (target block, source block, target block) and then back down
    the reversed block chain of the target, for a total lag of 4m.  With
    m == 0 the conjugacy is a pure relabeling and the chain is empty; the
    relabeling is returned as the source recoding.
    """
    src, dst, psi = spec.source, spec.target, spec.psi
    m = spec.inverse_window
    if m == 0:
        relabeled = src.relabel(psi).reorder(dst.alphabet)
        if relabeled != dst:
            raise SpecError("recoding_mismatch",
                            "window-0 conjugacy is not a relabeling onto the target")
        return ConjugacyDecomposition(
            chain=StrongChain(pairs=(dst,), links=()),
            source_recoding=dict(psi))

    kmax = 2 * m + 1
    dst_blocks = {length: blocks(dst.A, length) for length in range(1, kmax + 2)}
    dst_block_sets = {length: set(v) for length, v in dst_blocks.items()}
    src_blocks = {j: blocks(src.A, j) for j in (1, 2, 3)}
    src_block_sets = {j: set(v) for j, v in src_blocks.items()}
    src_key = _word_key(src.alphabet)
    dst_key = _word_key(dst.alphabet)

    # triples[k] is the ordered list of (u, w, v); strings[k] the matching words
    triples: dict[int, list[tuple[Word, Word, Word]]] = {}
    strings: dict[int, list[Word]] = {}
    pairs: list[FlipPair] = []
    for k in range(1, kmax + 1):
        i = (k - 1) // 2
        j = k - 2 * i
        us = dst_blocks[i] if i else ((),)
        ws = src_blocks[j]
        cand = []
        for u in us:
            for w in ws:
                img = spec.map_word(w)
                for v in us:
                    s = u + img + v
                    if s in dst_block_sets[k]:
                        cand.append((u, w, v))
        cand.sort(key=lambda t: (dst_key(t[0]), src_key(t[1]), dst_key(t[2])))
        word_of = {t: t[0] + spec.map_word(t[1]) + t[2] for t in cand}
        size = len(cand)
        c_rows = [[0] * size for _ in range(size)]
        l_rows = [[0] * size for _ in range(size)]
        pos = {t: idx for idx, t in enumerate(cand)}
        for t in cand:
            u, w, v = t
            st = word_of[t]
            for t2 in cand:
                u2, w2, v2 = t2
                st2 = word_of[t2]
                if (st[1:] == st2[:-1] and st + st2[-1:] in dst_block_sets[k + 1]
                        and w[1:] == w2[:-1] and w + w2[-1:] in src_block_sets[j + 1]):
                    c_rows[pos[t]][pos[t2]] = 1
            mate = (dst.flip_word(v), src.flip_word(w), dst.flip_word(u))
            if mate in pos:
                l_rows[pos[t]][pos[mate]] = 1
        labels = tuple(_triple_label(k, *t) for t in cand)
        c = IntMatrix.square(labels, c_rows)
        lm = IntMatrix.square(labels, l_rows)
        ess = essential_symbols(c)
        if ess != labels:
            keep = set(ess)
            cand = [t for t in cand if _triple_label(k, *t) in keep]
            c = c.submatrix(ess)
            lm = lm.submatrix(ess)
        try:
            pairs.append(FlipPair(c, lm))
        except FlipShiftError as e:
            raise SpecError("triple_pair", f"stage {k} is not a flip pair: {e}") from e
        triples[k] = cand
        strings[k] = [word_of[t] for t in cand]

    if pairs[0] != src:
        raise SpecError("source_mismatch",
                        "stage 1 does not reproduce the source pair")

    links: list[HalfElemCert] = []
    for k in range(1, kmax):
        a_k, a_k1 = triples[k], triples[k + 1]
        st_k, st_k1 = strings[k], strings[k + 1]
        d_rows = [[0] * len(a_k1) for _ in a_k]
        e_rows = [[0] * len(a_k) for _ in a_k1]
        for i1, t in enumerate(a_k):
            for i2, t2 in enumerate(a_k1):
                if st_k[i1] == st_k1[i2][:-1] and t[1][-1] == t2[1][0]:
                    d_rows[i1][i2] = 1
                if st_k1[i2][1:] == st_k[i1] and t2[1][-1] == t[1][0]:
                    e_rows[i2][i1] = 1
        d = IntMatrix.rect(pairs[k - 1].alphabet, pairs[k].alphabet, d_rows)
        e = IntMatrix.rect(pairs[k].alphabet, pairs[k - 1].alphabet, e_rows)
        try:
            links.append(he_check(pairs[k - 1], pairs[k], d, supplied_S=e))
        except CertificateError as err:
            raise CertificateError(err.identity, f"link {k}: {err}") from err

    # identify the top stage with the (2m+1)-block pair of the target
    hb_pair, hb_chain = higher_block(dst, 2 * m)
    top_labels = [_join(s) for s in strings[kmax]]
    if len(set(top_labels)) != len(top_labels):
        raise SpecError("recoding_mismatch", "top-stage block relabeling is not injective")
    relabeled_a = IntMatrix.square(top_labels, pairs[-1].A.to_rows())
    relabeled_j = IntMatrix.square(top_labels, pairs[-1].J.to_rows())
    try:
        relabeled = FlipPair(relabeled_a.reorder(hb_pair.alphabet),
                             relabeled_j.reorder(hb_pair.alphabet))
    except FlipShiftError as e:
        raise SpecError("recoding_mismatch", f"top-stage relabeling failed: {e}") from e
    if relabeled != hb_pair:
        raise SpecError("recoding_mismatch",
                        "top stage does not match the target's block pair")

    # rebuild the last upward link with relabeled columns
    last = links.pop()
    d = IntMatrix.rect(last.R.row_labels, top_labels, last.R.to_rows())
    e = IntMatrix.rect(top_labels, last.S.col_labels, last.S.to_rows())
    d = d.reorder(last.R.row_labels, hb_pair.alphabet)
    e = e.reorder(hb_pair.alphabet, last.S.col_labels)
    links.append(he_check(pairs[-2], hb_pair, d, supplied_S=e))

    chain_pairs = pairs[:-1] + [hb_pair]
    for t in range(2 * m - 1, -1, -1):
        link = hb_chain.links[t]
        rev = he_check(hb_chain.pairs[t + 1], hb_chain.pairs[t],
                       link.S, supplied_S=link.R)
        links.append(rev)
        chain_pairs.append(hb_chain.pairs[t])

    chain = StrongChain(pairs=tuple(chain_pairs), links=tuple(links))
    verification = sse_verify(chain)
    if not verification.passed:
        fail = verification.first_failure()
        raise CertificateError("chain", f"assembled chain failed verification: {fail}")
    identity = {s: s for s in src.alphabet}
    return ConjugacyDecomposition(chain=chain, source_recoding=identity)


def verify_decomposition(dec: ConjugacyDecomposition, spec: OneBlockConjugacySpec,
                         period: int) -> Report:
    """Check the decomposition's composed map against the given conjugacy."""
    report = Report(title="decomposition agrees with the conjugacy")
    for per in range(1, period + 1):
        ok, bad = True, ""
        for x in enumerate_periodic(spec.source.A, per):
            got = dec.map_point(x)
            want = spec.map_point(x)
            if got != want:
                ok, bad = False, f"point {x}: {got} != {want}"
                break
        report.add(f"period {per}", ok, bad)
    return report
