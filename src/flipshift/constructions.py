"""Constructive machinery connecting flip pairs.

Three builders live here:

* ``higher_block``: the block-recoded pair on length-(n+1) admissible words,
  together with the length-n chain of splitting steps that witnesses it.
* ``build_flip_pair``: turn a sliding-block flip rule on a Markov shift into a
  flip pair plus the block code onto it.
* ``decompose_conjugacy``: decompose a one-block flip-conjugacy between two
  flip pairs into a chain of splitting steps of even lag, through triple
  alphabets read off the source's blocks and the target's block chain.

All three build their pairs by one rule on a list of words (the higher-block
and state-splitting presentations of Lind & Marcus, 1995, sections 1.4 and
2.4), and read the links between them the same way: matches are looked up by
overlap in a dict, never found by comparing all pairs of words.  Flip rules,
conjugacies and decompositions are decided on admissible blocks, not points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .equivalence import HalfElemCert, StrongChain, gamma_block, he_check
from .errors import BudgetError, CertificateError, MatrixShapeError, SpecError
from .flips import FlipPair, Word
from .matrices import IntMatrix
from .report import Report
from .shifts import block_count, blocks, is_essential, word_center

BLOCK_CELL_BUDGET = 1 << 21  # most cells of the top pair's N x N matrices in higher_block


def _join(w: Word) -> str:
    return " ".join(w)


def _word_key(alphabet: tuple[str, ...]):
    index = {s: i for i, s in enumerate(alphabet)}
    return lambda w: tuple(index[s] for s in w)


# -- word pairs ------------------------------------------------------------------


def _ones(row_labels, col_labels, xs: Sequence, ys: Sequence, x_key, y_key,
          joins=None) -> IntMatrix:
    """The zero-one matrix over xs by ys with a one where x_key(x) == y_key(y)
    and joins(x, y); the ys are found through one dict from key to positions."""
    at: dict[Hashable, list[int]] = {}
    for j, y in enumerate(ys):
        at.setdefault(y_key(y), []).append(j)
    rows = []
    for x in xs:
        row = [0] * len(ys)
        for j in at.get(x_key(x), ()):
            if joins is None or joins(x, ys[j]):
                row[j] = 1
        rows.append(tuple(row))
    return IntMatrix._trusted(row_labels, col_labels, tuple(rows))


def _word_pair(words: Sequence, labels: Sequence[str], tail, head, joins,
               mate) -> FlipPair:
    """The flip pair on ``words``, one symbol per word, labelled by ``labels``.

    x is followed by y when tail(x) == head(y) and joins(x, y); J sends x to
    mate(x).  Only the labels are checked: the matrices are zero-one by
    construction.  Every caller reads its words off bi-infinite points, so no
    symbol is stranded.  Two words whose labels coincide are refused, by name.
    """
    word_of: dict[str, object] = {}
    for w, lab in zip(words, labels):
        if word_of.setdefault(lab, w) is not w:
            raise MatrixShapeError(f"{word_of[lab]!r} and {w!r} both join to {lab!r}")
    labs = tuple(word_of)
    a = _ones(labs, labs, words, words, tail, head, joins)
    jm = _ones(labs, labs, words, words, mate, lambda y: y)
    return FlipPair(a, jm)


# -- higher block pairs --------------------------------------------------------


def higher_block(pair: FlipPair, n: int) -> tuple[FlipPair, StrongChain]:
    """The (n+1)-block pair of a flip pair, with its verified splitting chain.

    At every block length k, the k-block u is followed by v when u[1:] ==
    v[:-1] and the base allows u[-1] -> v[-1].  The chain has one link per
    block-length increase; link k goes from the k-block pair to the
    (k+1)-block pair, with R reading "drop the last symbol" and S reading
    "drop the first symbol".  ``BudgetError`` refuses, before any building, a
    top pair whose N x N matrices pass ``BLOCK_CELL_BUDGET`` cells.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = block_count(pair.A, n + 1)
    if size * size > BLOCK_CELL_BUDGET:
        raise BudgetError(f"the {n + 1}-block pair has {size} symbols; its {size * size} "
                          f"matrix cells pass the budget of {BLOCK_CELL_BUDGET}")
    edges = set(blocks(pair.A, 2))
    pairs: list[FlipPair] = []
    word_lists: list[tuple[Word, ...]] = []
    for k in range(1, n + 2):
        words = blocks(pair.A, k)
        pairs.append(_word_pair(words, [_join(w) for w in words],
                                tail=lambda u: u[1:], head=lambda v: v[:-1],
                                joins=lambda u, v: (u[-1], v[-1]) in edges,
                                mate=pair.flip_word))
        word_lists.append(words)
    links: list[HalfElemCert] = []
    for k in range(n):
        us, vs = word_lists[k], word_lists[k + 1]
        r = _ones(pairs[k].alphabet, pairs[k + 1].alphabet, us, vs,
                  lambda u: u, lambda v: v[:-1])
        links.append(he_check(pairs[k], pairs[k + 1], r))
    return pairs[-1], StrongChain(pairs[0], tuple(links))


# -- flip pairs from sliding-block flip rules ------------------------------------


class BlockFlipSpec:
    """A sliding-block flip rule on a Markov shift, validated on construction.

    The rule maps every admissible window of width 2*window+1 to a symbol; the
    induced map phi applies the rule at mirrored coordinates,
    phi(x)_i = rule(x_(-i-window) ... x_(-i+window)), so phi reverses time for
    every rule.  The rule is a flip exactly when phi maps into the shift and
    squares to the identity, and both are decided on admissible blocks: two
    adjacent image symbols read one block of width 2*window+2, and the centre
    of phi(phi(x)) reads one block of width 4*window+1.
    """

    def __init__(self, A: IntMatrix, window: int, rule: dict[Word, str]):
        if window < 0:
            raise SpecError("window", "window must be >= 0")
        width = 2 * window + 1
        needed = set(blocks(A, width))
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
        edges = set(blocks(A, 2))
        for b in blocks(A, width + 1):
            # phi(x)_i reads b[1:] and phi(x)_(i+1) reads b[:-1]
            if (given[b[1:]], given[b[:-1]]) not in edges:
                raise SpecError("phi_into", f"image of block {b} leaves the shift")
        for b in blocks(A, 4 * window + 1):
            # the images read by phi(phi(x))_0, which must be the centre x_0
            images = tuple(given[b[d:d + width]] for d in range(width))
            if given[images[::-1]] != b[2 * window]:
                raise SpecError("phi_involution",
                                f"rule does not square to id on block {b}")


@dataclass
class BlockCode:
    """A sliding block code reading a window of radius ``radius``."""

    radius: int
    mapping: dict[Word, str]


def build_flip_pair(spec: BlockFlipSpec) -> tuple[FlipPair, BlockCode]:
    """Represent a sliding-block flip by a flip pair on window/image symbol pairs.

    Each new symbol is a realized pair (u, v): u a centered window of a point
    x, v the reverse of the flip image's matching window.  Realization is
    decided by scanning admissible blocks of width 4*window+1, since the image
    window only depends on that much of x.  (u, v) is followed by (u2, v2)
    when both overlaps agree and the one new adjacency on each side is
    allowed; J sends (u, v) to (v reversed, u reversed).  The returned block
    code reads a point into the new alphabet; it conjugates the given flip to
    the one-block flip of the pair.
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
    edges = set(blocks(a, 2))
    # the new adjacencies are only binding at window 0, where the overlaps are empty
    pair = _word_pair(
        ordered, [label[uv] for uv in ordered],
        tail=lambda uv: (uv[0][1:], uv[1][1:]),
        head=lambda uv: (uv[0][:-1], uv[1][:-1]),
        joins=lambda x, y: (x[0][-1], y[0][-1]) in edges and (y[1][-1], x[1][-1]) in edges,
        mate=lambda uv: (uv[1][::-1], uv[0][::-1]))
    mapping = {w: label[uv] for w, uv in theta.items()}
    return pair, BlockCode(radius=2 * n, mapping=mapping)


# -- decomposing one-block conjugacies -------------------------------------------


class OneBlockConjugacySpec:
    """A one-block conjugacy of flip systems, decided on blocks at construction.

    ``psi`` maps source symbols to target symbols; ``inverse_window`` m is the
    radius of the target windows whose images determine the inverse's centre.
    psi must send transitions to transitions; the images of width-(2m+1)
    source blocks must determine their centre (so theta o psi = id) and
    exhaust the target's width-(2m+1) blocks (so psi o theta = id, for the
    inverse rule theta(w) = that centre); theta must send every target block
    of width 2m+2 to a source transition; and psi must commute with the flips.
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
        src_edges = set(blocks(source.A, 2))
        dst_edges = set(blocks(target.A, 2))
        for e in blocks(source.A, 2):
            if self.map_word(e) not in dst_edges:
                raise SpecError("psi_into", f"image of transition {e} is not a transition")
        # every image block is admissible now, since the target is essential
        theta: dict[Word, str] = {}
        for u in blocks(source.A, 2 * m + 1):
            img, c = self.map_word(u), word_center(u)
            if theta.setdefault(img, c) != c:
                raise SpecError("inverse_window",
                                f"image block {img} has ambiguous central preimage")
        if set(theta) != set(blocks(target.A, 2 * m + 1)):
            raise SpecError("psi_onto", "images do not exhaust the target blocks")
        for w in blocks(target.A, 2 * m + 2):
            if (theta[w[:-1]], theta[w[1:]]) not in src_edges:
                raise SpecError("psi_bijective",
                                f"inverse image of block {w} is not a transition")
        for a in source.alphabet:
            if psi[source.tau[a]] != target.tau[psi[a]]:
                raise SpecError("psi_flip", f"psi does not commute with the flips at {a!r}")

    def map_word(self, w: Word) -> Word:
        return tuple(self.psi[s] for s in w)


@dataclass
class ConjugacyDecomposition:
    """A verified even-lag chain realizing a one-block conjugacy.

    The chain runs from the source to the target, except at lag 0, where it
    is the target alone.  ``source_recoding`` renames source symbols onto the
    chain's source (the identity except for pure relabelings).  The raw
    composition of the links lands on the lag-shifted image, and shifting
    back by half the lag makes an even-lag chain a flip-system conjugacy;
    ``verify_decomposition`` decides that composed map against the conjugacy
    on blocks.
    """

    chain: StrongChain
    source_recoding: dict[str, str]


def decompose_conjugacy(spec: OneBlockConjugacySpec) -> ConjugacyDecomposition:
    """Decompose a one-block flip-conjugacy into splitting steps of even lag.

    With inverse window m, the chain climbs 2m+1 stages and descends the
    target's block chain, for a lag of 4m.  Stage k reads psi through a
    window of width k (Lind & Marcus, 1995, section 7.1): its symbols are the
    triples (psi(b[:i]), b[i:k-i], psi(b[k-i:])) over the source's k-blocks b,
    with i = (k-1)//2.  These are exactly the essential triples: the source
    point through b reads a bi-infinite path through each, and the middles of
    a bi-infinite path spell a source point whose image its target words spell.
    So stage 1 is the source and the top stage the target's (2m+1)-block pair,
    whose symbols the spec has decided are each the image of one centre.  At
    m == 0 psi relabels the source onto the target: the chain is empty and psi
    is the source recoding.
    """
    src, dst = spec.source, spec.target
    m = spec.inverse_window
    if m == 0:
        return ConjugacyDecomposition(
            chain=StrongChain(dst, ()),
            source_recoding=dict(spec.psi))

    kmax = 2 * m + 1
    dst_blocks = {length: set(blocks(dst.A, length)) for length in range(3, kmax + 1)}
    src_blocks = {j: set(blocks(src.A, j)) for j in (2, 3)}
    src_key = _word_key(src.alphabet)
    dst_key = _word_key(dst.alphabet)

    # word_of gives each triple its target word psi(b)
    word_of: dict[tuple[Word, Word, Word], Word] = {}

    def read(k: int) -> list[tuple[Word, Word, Word]]:
        """The triples of stage k, read off the source's k-blocks, in key order."""
        i = (k - 1) // 2
        found = {}
        for b in blocks(src.A, k):
            img = spec.map_word(b)
            found[(img[:i], b[i:k - i], img[k - i:])] = img
        word_of.update(found)
        return sorted(found, key=lambda t: (dst_key(t[0]), src_key(t[1]), dst_key(t[2])))

    # triples[k] lists stage k's triples in the order of its pair's alphabet
    triples = {1: read(1)}
    pairs: list[FlipPair] = [src]
    for k in range(2, kmax):
        i = (k - 1) // 2
        j = k - 2 * i
        triples[k] = cand = read(k)
        dst_next, src_next = dst_blocks[k + 1], src_blocks[j + 1]
        # a flip pair for every accepted spec: psi commutes with the flips, so
        # mate(t) is the triple of the flipped source block, and the block
        # sets dst_next and src_next are closed under flips
        pairs.append(_word_pair(
            cand, [f"{_join(u)}|{_join(w)}|{_join(v)}" for u, w, v in cand],
            tail=lambda t: (word_of[t][1:], t[1][1:]),
            head=lambda t: (word_of[t][:-1], t[1][:-1]),
            joins=lambda t, t2: (word_of[t] + word_of[t2][-1:] in dst_next
                                 and t[1] + t2[1][-1:] in src_next),
            mate=lambda t: (dst.flip_word(t[2]), src.flip_word(t[1]),
                            dst.flip_word(t[0]))))

    # the top stage is the block pair: its triples in the block pair's order
    hb_pair, hb_chain = higher_block(dst, 2 * m)
    by_label = {_join(word_of[t]): t for t in read(kmax)}
    triples[kmax] = [by_label[lab] for lab in hb_pair.alphabet]
    pairs.append(hb_pair)

    # R reads "drop the last symbol" of the target word, keeping the source
    # block's adjacency; the S that he_check derives drops the first symbol
    links: list[HalfElemCert] = []
    for k in range(1, kmax):
        r = _ones(pairs[k - 1].alphabet, pairs[k].alphabet, triples[k], triples[k + 1],
                  lambda t: (word_of[t], t[1][-1]), lambda t: (word_of[t][:-1], t[1][0]))
        try:
            links.append(he_check(pairs[k - 1], pairs[k], r))
        except CertificateError as err:
            raise CertificateError(err.identity, f"link {k}: {err}") from err

    # the descent reverses the target's checked block chain: R = J S^T K, so
    # (S, R) satisfies A = RS, B = SR and the derivation rule from B to A
    # whenever (R, S) satisfies them from A to B
    for link in reversed(hb_chain.links):
        links.append(HalfElemCert(link.target, link.source, link.S, link.R))

    chain = StrongChain(src, tuple(links))
    identity = {s: s for s in src.alphabet}
    return ConjugacyDecomposition(chain=chain, source_recoding=identity)


def verify_decomposition(dec: ConjugacyDecomposition,
                         spec: OneBlockConjugacySpec) -> Report:
    """Check the decomposition's composed map against the given conjugacy.

    Each of the L links reads two adjacent symbols, so the composed map is a
    block code on source windows of width L+1, and block codes are equal
    exactly when they agree on every admissible window (Lind & Marcus, 1995,
    section 1.5).  Link k turns the images of the k-blocks into those of the
    (k+1)-blocks; the widest blocks are walked first, so over the budget
    ``BudgetError`` comes before any work.
    """
    a, lag = spec.source.A, dec.chain.lag
    widest = blocks(a, lag + 1)
    report = Report(title="decomposition agrees with the conjugacy")
    name = f"blocks of width {lag + 1}"
    image = {(s,): dec.source_recoding[s] for s in spec.source.alphabet}
    for k, link in enumerate(dec.chain.links, start=1):
        try:
            image = {w: gamma_block(link, image[w[:-1]], image[w[1:]])
                     for w in blocks(a, k + 1)}
        except CertificateError as e:
            report.add(name, False, f"link {k - 1}: {e.identity}: {e}")
            return report
    # the half-lag shift puts each output symbol over its window's symbol lag // 2
    bad = next((w for w in widest if image[w] != spec.psi[w[lag // 2]]), None)
    report.add(name, bad is None, "" if bad is None else
               f"block {bad}: {image[bad]} != {spec.psi[bad[lag // 2]]}")
    return report
