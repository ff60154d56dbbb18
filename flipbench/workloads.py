"""The benchmark's workloads: seeded inputs, the CLI operations run on them,
and the checks every output must pass.

An operation is one README command, or a short pipeline of them, on one
generated input.  Within a workload every operation is the same kind of work
on inputs of one size class, so per-operation percentiles compare like with
like.  Expected values come from ``reference``, never from the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

ZETA_ORDER = 16          # the CLI's default series order
RANK_MAX_POWER = 4       # the CLI's default for rank-profile
COUNT_M_MAX = 10         # count runs over m <= the period cap
COUNT_NS = (0, 1, 2, 3)  # two of each parity, so parity-only dependence is testable


@dataclass
class Op:
    """One timed operation: CLI argument lists run in order, plus their check.

    ``check`` receives the exit code and captured standard output of every
    command and returns a list of problems; an empty list means correct.
    """

    commands: list[list[str]]
    check: Callable[[list[tuple[int, str]]], list[str]]
    sampled: bool = True  # False: timed into the round, left out of op percentiles


@dataclass
class Pair:
    alphabet: tuple[str, ...]
    A: list[list[int]]
    J: list[list[int]]

    def doc(self) -> dict:
        return {"alphabet": list(self.alphabet), "A": self.A, "J": self.J}

    @property
    def size(self) -> int:
        return len(self.alphabet)


# -- input generation ---------------------------------------------------------------------


def random_pair(rng: random.Random, lo: int, hi: int, density: float) -> Pair:
    """A random flip pair on lo..hi essential symbols.

    Draws a symbol involution, fills A orbit by orbit under (a, b) -> (tau b,
    tau a) so that A J = J A^T holds by construction, and restricts to the
    symbols on bi-infinite paths (a set the involution preserves).
    """
    while True:
        n = rng.randint(lo, hi + 2)
        pool = list(range(n))
        rng.shuffle(pool)
        tau = list(range(n))
        while pool:
            a = pool.pop()
            if pool and rng.random() < 0.6:
                b = pool.pop()
                tau[a], tau[b] = b, a
        rows = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if rows[a][b] is None:
                    bit = 1 if rng.random() < density else 0
                    rows[a][b] = bit
                    rows[tau[b]][tau[a]] = bit
        jrows = [[1 if tau[a] == b else 0 for b in range(n)] for a in range(n)]
        keep = ref.essential_indices(rows)
        if lo <= len(keep) <= hi:
            _, arows, jr = ref.restrict(tuple(range(n)), rows, jrows, keep)
            return Pair(tuple(str(i + 1) for i in range(len(keep))), arows, jr)


def draw_pool(rng: random.Random, draw: Callable, tries: int, enough: Callable) -> list:
    """Candidates from exactly ``tries`` draws, then more only if ``enough`` fails.

    ``draw`` returns a candidate or None.  A fixed number of draws makes the
    set-up's cost nearly the same for every seed; ``tries`` is set well above
    the expected need, so the extra draws are rare.
    """
    pool = [c for c in (draw(rng) for _ in range(tries)) if c is not None]
    while not enough(pool):
        c = draw(rng)
        if c is not None:
            pool.append(c)
    return pool


def load_pair(path: Path) -> Pair:
    doc = json.loads(path.read_text())
    return Pair(tuple(doc["alphabet"]), doc["A"], doc["J"])


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _parse(out: str, problems: list[str], what: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as e:
        problems.append(f"{what}: output is not JSON ({e})")
        return None


def _codes(results, want: int, problems: list[str], names: list[str]) -> bool:
    ok = True
    for (code, _), name in zip(results, names):
        if code != want:
            problems.append(f"{name}: exit code {code}, expected {want}")
            ok = False
    return ok


def _labelled(alphabet, arows, jrows):
    """A pair as its rows of A and J keyed by label: equal whatever the order."""
    def by_label(rows):
        return {a: frozenset((alphabet[j], x) for j, x in enumerate(row) if x)
                for a, row in zip(alphabet, rows)}
    return by_label(arows), by_label(jrows)


def _same_pair(doc: dict, alphabet, arows, jrows) -> bool:
    try:
        return (sorted(doc["alphabet"]) == sorted(alphabet)
                and len(doc["A"]) == len(doc["J"]) == len(alphabet)
                and _labelled(doc["alphabet"], doc["A"], doc["J"])
                == _labelled(alphabet, arows, jrows))
    except (KeyError, TypeError, ValueError, IndexError):
        return False


def _check_chain(chain: dict, lag: int, first, last, problems: list[str], what: str):
    """A chain document: its lag, its end pairs, and every link recomputed."""
    try:
        pairs, links = chain["pairs"], chain["links"]
    except (KeyError, TypeError):
        problems.append(f"{what}: chain has no pairs or links")
        return
    if len(links) != lag or len(pairs) != lag + 1:
        problems.append(f"{what}: chain has lag {len(links)}, expected {lag}")
        return
    if not _same_pair(pairs[0], *first):
        problems.append(f"{what}: chain does not start at the source pair")
    if not _same_pair(pairs[-1], *last):
        problems.append(f"{what}: chain does not end at the target pair")
    for k, link in enumerate(links):
        src, dst = pairs[k], pairs[k + 1]
        try:
            ok = ref.splitting_step_holds(src["A"], src["J"], dst["A"], dst["J"],
                                          link["R"], link["S"])
        except (KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            problems.append(f"{what}: link {k} is not a splitting step")


def _check_report(doc: dict, problems: list[str], what: str):
    rep = doc.get("verification") if isinstance(doc, dict) else None
    if not isinstance(rep, dict) or rep.get("passed") is not True \
            or not all(c.get("passed") is True for c in rep.get("checks", [])) \
            or not rep.get("checks"):
        problems.append(f"{what}: verification report did not pass")


def _series(doc, problems: list[str], what: str):
    try:
        return [Fraction(c) for c in doc["series"]["coeffs"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        problems.append(f"{what}: no series in output")
        return None


# -- recode ------------------------------------------------------------------------------


RECODE_N = 2  # higher-block --n 2: the 3-block pair, read back by its centre
# The size class: 3-block pairs on exactly 12 symbols whose bases have 20-22
# words of length 4, the size of the largest triple-alphabet stage of the
# decomposition.  Op time grows like the square of the block count, so a
# narrow class keeps the batch's total work nearly the same for every seed.
RECODE_BLOCKS = 12
RECODE_4BLOCKS = (20, 22)


def _recode_candidate(rng: random.Random):
    p = random_pair(rng, 4, 4, 0.4)
    if len(ref.block_words(p.A, RECODE_N + 1)) != RECODE_BLOCKS:
        return None
    if not RECODE_4BLOCKS[0] <= len(ref.block_words(p.A, 4)) <= RECODE_4BLOCKS[1]:
        return None
    return p, ref.block_pair(p.alphabet, p.A, p.J, RECODE_N + 1)


def recode_inputs(rng: random.Random, count: int) -> list[tuple[Pair, tuple]]:
    """(base, 3-block pair) for bases on 4 symbols of the size class.

    About one draw in 17 is of the class.
    """
    return draw_pool(rng, _recode_candidate, 24 * count,
                     lambda pool: len(pool) >= count)[:count]


def recode_op(base: Pair, block, base_path: str, conj_path: str) -> Op:
    base_t = (base.alphabet, base.A, base.J)

    def check(results):
        problems: list[str] = []
        if not _codes(results, 0, problems, ["higher-block", "decompose"]):
            return problems
        hb = _parse(results[0][1], problems, "higher-block")
        dec = _parse(results[1][1], problems, "decompose")
        if hb is None or dec is None:
            return problems
        if not _same_pair(hb.get("pair", {}), *block):
            problems.append("higher-block: block pair differs from the reference one")
        _check_chain(hb.get("chain"), RECODE_N, base_t, block, problems, "higher-block")
        _check_report(hb, problems, "higher-block")
        if dec.get("lag") != 4:
            problems.append(f"decompose: lag {dec.get('lag')}, expected 4")
        _check_chain(dec.get("chain"), 4, block, base_t, problems, "decompose")
        _check_report(dec, problems, "decompose")
        return problems

    return Op([["higher-block", "--pair", base_path, "--n", str(RECODE_N)],
               ["decompose", conj_path]], check)


def setup_recode(rng: random.Random, root: Path, data: Path, count: int) -> list[Op]:
    ops = []
    for i, (base, block) in enumerate(recode_inputs(rng, count)):
        labels, a, j = block
        conj = {"from": {"alphabet": list(labels), "A": a, "J": j},
                "to": base.doc(), "psi": ref.centre_map(labels), "inverse_window": 1}
        ops.append(recode_op(base, block, _write(root / f"base{i}.json", base.doc()),
                             _write(root / f"conj{i}.json", conj)))
    return ops


# -- invariants ---------------------------------------------------------------------------


def invariants_op(base: Pair, block, pair_path: str, matrix_path: str,
                  lind_expected: list[Fraction]) -> Op:
    labels, a, j = block
    size = len(labels)
    cache: dict = {}

    def expected():
        if not cache:
            gen, _ = ref.pair_series(base.A, base.J, ZETA_ORDER)
            chi_base = ref.char_poly_from_traces(ref.traces(base.A, base.size), base.size)
            cache.update(gen=gen, tr=ref.traces(a, ZETA_ORDER),
                         chi=[0] * (size - base.size) + chi_base,
                         mult=ref.multiplicity_of_one(chi_base))
        return cache

    def check(results):
        problems: list[str] = []
        names = ["zeta lind", "zeta artin", "zeta gen", "charpoly", "rank-profile"]
        if not _codes(results, 0, problems, names):
            return problems
        docs = [_parse(out, problems, n) for (_, out), n in zip(results, names)]
        if any(d is None for d in docs):
            return problems
        want = expected()
        lind, artin, gen = (_series(d, problems, n) for d, n in zip(docs[:3], names))
        if lind is not None and lind != lind_expected:
            problems.append("zeta lind: differs from the base pair's Lind zeta")
        if gen is not None and gen != want["gen"]:
            problems.append("zeta gen: differs from the base pair's generating function")
        if artin is not None:
            tr = want["tr"]
            if len(artin) != ZETA_ORDER + 1 or artin[0] != 1 or any(
                    n * artin[n] != sum(tr[k - 1] * artin[n - k] for k in range(1, n + 1))
                    for n in range(1, ZETA_ORDER + 1)):
                problems.append("zeta artin: coefficients break the trace recurrence")
        if docs[3].get("coefficients") != want["chi"]:
            problems.append("charpoly: not t^(N-n) times the base polynomial")
        profile = docs[4].get("profile")
        if not isinstance(profile, list) or len(profile) != RANK_MAX_POWER \
                or size - profile[-1] != want["mult"]:
            problems.append("rank-profile: stable nullity of (M-I)^j is not the "
                            "multiplicity of 1")
        return problems

    commands = [["zeta", "--pair", pair_path, "--which", w] for w in ("lind", "artin", "gen")]
    commands += [["charpoly", matrix_path],
                 ["rank-profile", matrix_path, "--shift", "1",
                  "--max-power", str(RANK_MAX_POWER)]]
    return Op(commands, check)


# The size class: block pairs on 18-20 symbols, the sizes of example 2's
# 2-block pairs.  The dense kernel's cost grows like a power of the size, so
# the seeded slots take the sizes in a fixed rotation and the batch's work is
# nearly the same for every seed.
INVARIANTS_SIZES = (18, 19, 20)


def _block_in_class(p: Pair):
    """The shortest block pair of p whose size is in the class, if any."""
    for k in range(2, 8):
        n = len(ref.block_words(p.A, k))
        if n in INVARIANTS_SIZES:
            return ref.block_pair(p.alphabet, p.A, p.J, k)
        if n > max(INVARIANTS_SIZES):
            return None
    return None


def _invariants_candidate(rng: random.Random):
    base = random_pair(rng, 3, 6, 0.4)
    block = _block_in_class(base)
    if block is None:
        return None
    chi = ref.char_poly_from_traces(ref.traces(base.A, base.size), base.size)
    if ref.multiplicity_of_one(chi) > RANK_MAX_POWER:
        return None  # the rank profile would not reach the stable nullity
    return base, block


def invariants_inputs(rng: random.Random, data: Path, count: int):
    """(base, block pair, Lind zeta of the base) triples of the size class.

    The block pairs of example 2's three pairs come first, each checked
    against the Lind zeta of example 2's A: the claim is that all three
    share it.  The rest come from seeded base pairs on 3-6 symbols, one of
    each size in turn; about one draw in 18 gives a given size.
    """
    out = []
    ex2_lind = None
    for w in ("A", "B", "C"):
        base = load_pair(data / f"example2_{w}J.json")
        if ex2_lind is None:
            ex2_lind = ref.pair_series(base.A, base.J, ZETA_ORDER)[1]
        out.append((base, ref.block_pair(base.alphabet, base.A, base.J, 2), ex2_lind))
    wanted = [INVARIANTS_SIZES[i % len(INVARIANTS_SIZES)] for i in range(count - len(out))]

    def enough(pool):
        sizes = [len(block[0]) for _, block in pool]
        return all(sizes.count(n) >= wanted.count(n) for n in INVARIANTS_SIZES)

    pool = draw_pool(rng, _invariants_candidate, 25 * len(wanted), enough)
    for size in wanted:
        i = next(i for i, (_, block) in enumerate(pool) if len(block[0]) == size)
        base, block = pool.pop(i)
        out.append((base, block, ref.pair_series(base.A, base.J, ZETA_ORDER)[1]))
    return out


def setup_invariants(rng: random.Random, root: Path, data: Path, count: int) -> list[Op]:
    ops = []
    for i, (base, block, lind) in enumerate(invariants_inputs(rng, data, count)):
        labels, a, j = block
        pair_path = _write(root / f"block{i}.json", {"alphabet": list(labels), "A": a, "J": j})
        matrix_path = _write(root / f"matrix{i}.json", {"labels": list(labels), "rows": a})
        ops.append(invariants_op(base, block, pair_path, matrix_path, lind))
    return ops


# -- exhaustive ---------------------------------------------------------------------------


# The size class: 4-symbol pairs with 1000-2000 points of period 10, whose
# lag search has a kernel of dimension 4 (2^4 candidates at entries <= 1).
# The count's cost follows the number of periodic points and the search's
# follows 2^dimension, so both are pinned; on 5-symbol pairs the search's
# cost varied twice as much from pair to pair.
EXHAUSTIVE_SYMBOLS = 4
TRACE10_BAND = (1000, 2000)
KERNEL_DIM = 4


def _exhaustive_candidate(rng: random.Random):
    p = random_pair(rng, EXHAUSTIVE_SYMBOLS, EXHAUSTIVE_SYMBOLS, 0.5)
    if not TRACE10_BAND[0] <= ref.traces(p.A, COUNT_M_MAX)[-1] <= TRACE10_BAND[1]:
        return None
    if ref.commutant_dimension(p.A) != KERNEL_DIM:
        return None
    return p


def exhaustive_inputs(rng: random.Random, count: int) -> list[Pair]:
    """Pairs of the size class; about one draw in 12 is of it."""
    return draw_pool(rng, _exhaustive_candidate, 16 * count,
                     lambda pool: len(pool) >= count)[:count]


def exhaustive_op(p: Pair, path: str) -> Op:
    def check(results):
        problems: list[str] = []
        if not _codes(results, 0, problems, ["count", "sfe-search"]):
            return problems
        docs = [_parse(out, problems, n) for (_, out), n in zip(results, ["count", "sfe"])]
        if any(d is None for d in docs):
            return problems
        try:
            got = {(r["m"], r["n"]): r["count"] for r in docs[0]["rows"]}
        except (KeyError, TypeError):
            got = {}
        triples = ref.flip_counts(p.A, p.J, (COUNT_M_MAX + 1) // 2)
        for m in range(1, COUNT_M_MAX + 1):
            odd, even0, even1 = triples[(m + 1) // 2 - 1]
            for n in COUNT_NS:
                want = odd if m % 2 else (even1 if n % 2 else even0)
                if got.get((m, n)) != want:
                    problems.append(f"count: p({m},{n}) = {got.get((m, n))}, "
                                    f"bilinear form gives {want}")
                if got.get((m, n)) != got.get((m, n % 2)):
                    problems.append(f"count: p({m},{n}) differs from p({m},{n % 2})")
        sols = docs[1].get("solutions") or []
        if not any(s.get("lag") == 2 and s.get("R") == p.A for s in sols):
            problems.append("sfe-search: R = A at lag 2 not found from the pair to itself")
        return problems

    return Op([["count", "--pair", path, "--m-max", str(COUNT_M_MAX),
                "--n", *map(str, COUNT_NS)],
               ["sfe-search", "--from", path, "--to", path,
                "--lag-max", "2", "--entry-max", "1"]], check)


def paper_searches_op(data: Path) -> Op:
    """The paper's two negative searches, on fixed inputs: once per round."""
    def check(results):
        problems: list[str] = []
        names = ["he-search example1", "sfe-search example2"]
        if not _codes(results, 0, problems, names):
            return problems
        for (_, out), name in zip(results, names):
            doc = _parse(out, problems, name)
            if doc is not None and (doc.get("count") != 0 or doc.get("solutions") != []):
                problems.append(f"{name}: found a witness where the paper has none")
        return problems

    return Op([["he-search", "--from", str(data / "example1_AJ.json"),
                "--to", str(data / "example1_AI.json")],
               ["sfe-search", "--from", str(data / "example2_AJ.json"),
                "--to", str(data / "example2_CJ.json"), "--lag-max", "2", "--entry-max", "1"]],
              check, sampled=False)


def setup_exhaustive(rng: random.Random, root: Path, data: Path, count: int) -> list[Op]:
    ops = [exhaustive_op(p, _write(root / f"small{i}.json", p.doc()))
           for i, p in enumerate(exhaustive_inputs(rng, count))]
    return ops + [paper_searches_op(data)]


SETUPS = {"recode": setup_recode, "invariants": setup_invariants,
          "exhaustive": setup_exhaustive}
