"""Constructive machinery connecting flip pairs.

Three builders live here:

* ``higher_block``: the block-recoded pair on length-(n+1) admissible words,
  together with the length-n chain of splitting steps that witnesses it.
* ``build_flip_pair``: turn a sliding-block flip rule on a Markov shift into a
  flip pair plus the block code onto it.
* ``decompose_conjugacy``: decompose a one-block flip-conjugacy between two
  flip pairs into a chain of splitting steps of even lag, through triple
  alphabets read off the source's blocks and the target's block chain.

Words are the index strings of ``shifts``: a word over a pair's alphabet is a
``str`` of ``chr(position)``, as ``shifts._index_blocks`` walks them, so words
slice, hash and sort as strings, and their string order is their order by
symbol position.  Flips and one-block maps act on them by ``str.translate``.
Labels are made only at the boundary: the alphabets of built pairs (block
pairs take theirs from ``blocks``, the labelled view of the same walk), the
public values ``blocks``, ``OneBlockConjugacySpec.map_word``,
``BlockFlipSpec.rule`` and ``BlockCode.mapping``, and refusal messages.

All three build their pairs with one word-pair builder, ``_word_pair`` (the
higher-block and state-splitting presentations of Lind & Marcus, 1995,
sections 1.4 and 2.4): word x is followed by y when their overlaps agree and
one more adjacency holds.  Block pairs read their successor lists and links
off the block walk of ``shifts``.  The other two read theirs with one
matcher, ``_matches``: the successors of x are looked up in a dict under keys
that each name one allowed adjacency, never found by comparing all pairs of
words, and the links between pairs are read the same way.  Flip rules,
conjugacies and decompositions are decided on admissible blocks, not points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Hashable, Sequence

from .equivalence import HalfElemCert, StrongChain, gamma_block, he_check
from .errors import BudgetError, CertificateError, MatrixShapeError, SpecError
from .flips import FlipPair, Word
from .matrices import IntMatrix, _Ones
from .report import Report
from .shifts import _block_walk, _index_blocks, _index_successors, block_count, blocks, \
    is_essential

BLOCK_CELL_BUDGET = 1 << 21  # most cells of the top pair's N x N matrices in higher_block


def _join(w: Word) -> str:
    return " ".join(w)


def _codes(alphabet: Sequence[str]) -> dict[str, str]:
    """Each label's index character."""
    return {s: chr(i) for i, s in enumerate(alphabet)}


def _word(alphabet: Sequence[str], w: str) -> Word:
    """An index string spelled in the labels of ``alphabet``."""
    return tuple(alphabet[ord(c)] for c in w)


def _speller(alphabet: Sequence[str]):
    """The index string -> ``_join`` of its labels, by one ``str.translate``."""
    table = {i: s + " " for i, s in enumerate(alphabet)}
    return lambda w: w.translate(table)[:-1]


# -- word pairs ------------------------------------------------------------------


def _matches(xs: Sequence, ys: Sequence, x_keys, y_key, joins=None) -> _Ones:
    """Per x, the positions j with y_key(ys[j]) among x_keys(x) and joins(x, ys[j]):
    the ones of a zero-one matrix over xs by ys, found through one dict from key
    to positions.  The lists are ascending when x_keys gives its keys in the
    order of the positions they find."""
    at: dict[Hashable, list[int]] = {}
    for j, y in enumerate(ys):
        at.setdefault(y_key(y), []).append(j)
    get, none = at.get, repeat(())
    found = [tuple(chain.from_iterable(map(get, x_keys(x), none))) for x in xs]
    if joins is None:
        return tuple(found)
    return tuple(tuple(j for j in js if joins(x, ys[j])) for x, js in zip(xs, found))


def _word_pair(words: Sequence, labels: list[str], succ: _Ones, mate, show) -> FlipPair:
    """The flip pair on ``words``, one symbol per word, labelled by ``labels``.

    Word i is followed by the words at ``succ[i]``, and J sends x to mate(x).
    The pair checks its axioms over them; only the labels are checked here.
    Every caller reads its words off bi-infinite points, so no symbol is
    stranded.  Two words whose labels coincide are refused, by the names
    ``show`` gives them in labels.
    """
    if len(set(labels)) != len(labels):
        word_of: dict[str, object] = {}
        for w, lab in zip(words, labels):
            if word_of.setdefault(lab, w) != w:
                raise MatrixShapeError(f"{show(word_of[lab])!r} and {show(w)!r} "
                                       f"both join to {lab!r}")
    at = {w: i for i, w in enumerate(words)}
    return FlipPair._from_ones(tuple(labels), succ, tuple((at[mate(w)],) for w in words))


# -- higher block pairs --------------------------------------------------------


def higher_block(pair: FlipPair, n: int) -> tuple[FlipPair, StrongChain]:
    """The (n+1)-block pair of a flip pair, with its verified splitting chain.

    At every block length k, the k-block u is followed by v when u[1:] ==
    v[:-1] and the base allows u[-1] -> v[-1], that is, when u + v[-1] is a
    (k+1)-block.  The chain has one link per block-length increase; link k
    goes from the k-block pair to the (k+1)-block pair, with R reading "drop
    the last symbol" and S reading "drop the first symbol".  Both are read
    off the base's ``_BlockWalk``: R(u, w) == 1 iff w is a child of u, and u
    is followed by the suffixes of its children, so no word is compared.
    ``BudgetError`` refuses, before any building, a top pair whose N x N
    matrices pass ``BLOCK_CELL_BUDGET`` cells, or a walk over the budget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = block_count(pair.A, n + 1)
    if size * size > BLOCK_CELL_BUDGET:
        raise BudgetError(f"the {n + 1}-block pair has {size} symbols; its {size * size} "
                          f"matrix cells pass the budget of {BLOCK_CELL_BUDGET}")
    tau = pair.tau_index
    walk = _block_walk(pair.A)
    walk.level(n + 2)
    pairs = [_word_pair(walk.words[k - 1], [_join(w) for w in blocks(pair.A, k)],
                        tuple(map(walk.suffix[k].__getitem__, map(slice, first, first[1:]))),
                        mate=lambda u: u[::-1].translate(tau),
                        show=lambda u: _word(pair.alphabet, u))
             for k, first in enumerate(walk.first[:n + 1], start=1)]
    links = [he_check(pairs[k - 1], pairs[k], tuple(map(tuple, map(range, first, first[1:]))))
             for k, first in enumerate(walk.first[:n], start=1)]
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
    of phi(phi(x)) reads one block of width 4*window+1.  ``rule`` is the rule
    in labels; the checks and ``build_flip_pair`` read it on index strings.
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
        code = _codes(A.row_labels)
        self._rule = {w: code[given[k]]
                      for w, k in zip(_index_blocks(A, width), blocks(A, width))}
        edges = set(_index_blocks(A, 2))
        for b in _index_blocks(A, width + 1):
            # phi(x)_i reads b[1:] and phi(x)_(i+1) reads b[:-1]
            if self._rule[b[1:]] + self._rule[b[:-1]] not in edges:
                raise SpecError("phi_into", f"image of block {_word(A.row_labels, b)} "
                                            f"leaves the shift")
        for b in _index_blocks(A, 4 * window + 1):
            # the images read by phi(phi(x))_0, which must be the centre x_0
            images = "".join([self._rule[b[d:d + width]] for d in range(width)])
            if self._rule[images[::-1]] != b[2 * window]:
                raise SpecError("phi_involution", f"rule does not square to id on block "
                                                  f"{_word(A.row_labels, b)}")


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
    allowed; the candidates (u2, v2) are looked up by u's successors, so at
    window 0, where the overlaps are empty, no pair of symbols is compared.
    J sends (u, v) to (v reversed, u reversed).  The returned block code
    reads a point into the new alphabet; it conjugates the given flip to the
    one-block flip of the pair.
    """
    n = spec.window
    a = spec.A
    width = 2 * n + 1
    rule = spec._rule
    words = _index_blocks(a, 4 * n + 1)
    theta = [(w[n:3 * n + 1], "".join([rule[w[d:d + width]] for d in range(width)]))
             for w in words]
    ordered = sorted(set(theta))
    spell = _speller(a.row_labels)
    labels = [f"{spell(u)}|{spell(v)}" for u, v in ordered]
    succ = _index_successors(a._support)
    edges = set(_index_blocks(a, 2))
    # u2 runs on from u along a transition; the new adjacency of v is checked
    follows = _matches(ordered, ordered,
                       lambda x: [(x[0][1:] + c, x[1][1:]) for c in succ[ord(x[0][-1])]],
                       lambda y: (y[0], y[1][:-1]),
                       joins=lambda x, y: y[1][-1] + x[1][-1] in edges)
    pair = _word_pair(ordered, labels, follows, mate=lambda uv: (uv[1][::-1], uv[0][::-1]),
                      show=lambda uv: (_word(a.row_labels, uv[0]), _word(a.row_labels, uv[1])))
    label = dict(zip(ordered, labels))
    mapping = {k: label[uv] for k, uv in zip(blocks(a, 4 * n + 1), theta)}
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
    ``_psi`` is psi by position, the ``str.translate`` table of index strings.
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
        code = _codes(target.alphabet)
        self._psi = tuple(ord(code[psi[s]]) for s in source.alphabet)
        src_edges = set(_index_blocks(source.A, 2))
        dst_edges = set(_index_blocks(target.A, 2))
        for e in _index_blocks(source.A, 2):
            if e.translate(self._psi) not in dst_edges:
                edge = _word(source.alphabet, e)
                raise SpecError("psi_into", f"image of transition {edge} is not a transition")
        # every image block is admissible now, since the target is essential
        theta: dict[str, str] = {}
        for u in _index_blocks(source.A, 2 * m + 1):
            img, c = u.translate(self._psi), u[m]
            if theta.setdefault(img, c) != c:
                block = _word(target.alphabet, img)
                raise SpecError("inverse_window",
                                f"image block {block} has ambiguous central preimage")
        if set(theta) != set(_index_blocks(target.A, 2 * m + 1)):
            raise SpecError("psi_onto", "images do not exhaust the target blocks")
        for w in _index_blocks(target.A, 2 * m + 2):
            if theta[w[:-1]] + theta[w[1:]] not in src_edges:
                block = _word(target.alphabet, w)
                raise SpecError("psi_bijective",
                                f"inverse image of block {block} is not a transition")
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
    is the source recoding.  Triples are tuples of index strings, so they sort
    by position, first word first.
    """
    src, dst = spec.source, spec.target
    m = spec.inverse_window
    if m == 0:
        return ConjugacyDecomposition(
            chain=StrongChain(dst, ()),
            source_recoding=dict(spec.psi))

    kmax = 2 * m + 1
    src_tau, dst_tau = src.tau_index, dst.tau_index
    src_succ = _index_successors(src._succ)
    spell_src, spell_dst = _speller(src.alphabet), _speller(dst.alphabet)

    def show(t: tuple[str, str, str]) -> tuple[Word, Word, Word]:
        return _word(dst.alphabet, t[0]), _word(src.alphabet, t[1]), _word(dst.alphabet, t[2])

    # word_of gives each triple its target word psi(b)
    word_of: dict[tuple[str, str, str], str] = {}

    def read(k: int) -> list[tuple[str, str, str]]:
        """The triples of stage k, read off the source's k-blocks, in order."""
        i = (k - 1) // 2
        found = {}
        for b in _index_blocks(src.A, k):
            img = b.translate(spec._psi)
            found[(img[:i], b[i:k - i], img[k - i:])] = img
        word_of.update(found)
        return sorted(found)

    # triples[k] lists stage k's triples in the order of its pair's alphabet
    triples = {1: read(1)}
    pairs: list[FlipPair] = [src]
    for k in range(2, kmax):
        triples[k] = cand = read(k)
        # t is followed by t2 when the target words overlap and t2's source
        # block runs on from t's along a source transition; both pairs are
        # essential, so the joined words are blocks.  A flip pair for every
        # accepted spec: psi commutes with the flips, so mate(t) is the triple
        # of the flipped source block
        succ = _matches(cand, cand,
                        lambda t: [(word_of[t][1:], t[1][1:] + d)
                                   for d in src_succ[ord(t[1][-1])]],
                        lambda t: (word_of[t][:-1], t[1]))
        pairs.append(_word_pair(
            cand, [f"{spell_dst(u)}|{spell_src(w)}|{spell_dst(v)}" for u, w, v in cand], succ,
            mate=lambda t: (t[2][::-1].translate(dst_tau), t[1][::-1].translate(src_tau),
                            t[0][::-1].translate(dst_tau)),
            show=show))

    # the top stage is the block pair: its triples in the block pair's order
    hb_pair, hb_chain = higher_block(dst, 2 * m)
    by_word = {word_of[t]: t for t in read(kmax)}
    triples[kmax] = [by_word[w] for w in _index_blocks(dst.A, kmax)]
    pairs.append(hb_pair)

    # R reads "drop the last symbol" of the target word, keeping the source
    # block's adjacency; the S that he_check derives drops the first symbol
    links: list[HalfElemCert] = []
    for k in range(1, kmax):
        r = _matches(triples[k], triples[k + 1],
                     lambda t: ((word_of[t], t[1][-1]),), lambda t: (word_of[t][:-1], t[1][0]))
        try:
            links.append(he_check(pairs[k - 1], pairs[k], r))
        except CertificateError as err:
            raise CertificateError(err.identity, f"link {k}: {err}") from err

    # the descent reverses the target's checked block chain: R = J S^T K, so
    # (S, R) satisfies A = RS, B = SR and the derivation rule from B to A
    # whenever (R, S) satisfies them from A to B
    for link in reversed(hb_chain.links):
        links.append(HalfElemCert(link.target, link.source, link.s_ones, link.r_ones))

    identity = {s: s for s in src.alphabet}
    return ConjugacyDecomposition(chain=StrongChain(src, tuple(links)),
                                  source_recoding=identity)


def _verification_blocks(spec: OneBlockConjugacySpec) -> tuple[str, ...]:
    """The blocks of width lag + 1 = 4m + 1 that ``verify_decomposition`` walks, cached."""
    return _index_blocks(spec.source.A, 4 * spec.inverse_window + 1)


def verify_decomposition(dec: ConjugacyDecomposition,
                         spec: OneBlockConjugacySpec) -> Report:
    """Check the decomposition's composed map against the given conjugacy.

    Each of the L links reads two adjacent symbols, so the composed map is a
    block code on source windows of width L+1, and block codes are equal
    exactly when they agree on every admissible window (Lind & Marcus, 1995,
    section 1.5).  Link k turns the images of the k-blocks into those of the
    (k+1)-blocks, through its table from two index characters to one
    (``HalfElemCert._gamma_codes``); the widest blocks are walked first, so
    over the budget ``BudgetError`` comes before any work.
    """
    a, lag = spec.source.A, dec.chain.lag
    widest = _index_blocks(a, lag + 1)
    report = Report(title="decomposition agrees with the conjugacy")
    name = f"blocks of width {lag + 1}"
    labels = spec.source.alphabet
    code = _codes(dec.chain.source.alphabet)
    image = {chr(i): code[dec.source_recoding[s]] for i, s in enumerate(labels)}
    for k, link in enumerate(dec.chain.links, start=1):
        ws = _index_blocks(a, k + 1)
        joined = [image[w[:-1]] + image[w[1:]] for w in ws]
        try:
            image = dict(zip(ws, map(link._gamma_codes.__getitem__, joined)))
        except KeyError as missed:
            # gamma_block names the first pair without a unique image
            try:
                gamma_block(link, *_word(link.source.alphabet, missed.args[0]))
            except CertificateError as e:
                report.add(name, False, f"link {k - 1}: {e.identity}: {e}")
                return report
            raise
    # the half-lag shift puts each output symbol over its window's symbol lag // 2
    out = dec.chain.target.alphabet
    out_code = _codes(out)
    want = {chr(i): out_code.get(spec.psi[s]) for i, s in enumerate(labels)}
    bad = next((w for w in widest if image[w] != want[w[lag // 2]]), None)
    report.add(name, bad is None, "" if bad is None else
               f"block {_word(labels, bad)}: {out[ord(image[bad])]} != "
               f"{spec.psi[labels[ord(bad[lag // 2])]]}")
    return report
