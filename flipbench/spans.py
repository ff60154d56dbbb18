"""Span tracing of flipshift's public functions, from outside the package.

Each traced function is replaced, in the namespace of every flipshift module
that holds it, by a wrapper that records a span (id, parent id, name, start,
end).  Class constructors are traced through ``__init__``.  No file of the
package changes; the wrappers exist only in the traced process.

A span's self time is its duration minus the time its child spans cover,
including the wrappers' own bookkeeping for those children, so a layer is
not charged for the tracer's work below it.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# The functions whose spans the per-layer metrics read, by module.
TRACED = {
    "matrices": ("mat_mul", "mat_pow", "char_poly", "rank_over_rationals"),
    "series": ("series_exp",),
    "flips": ("FlipPair",),
    "shifts": ("blocks", "essential_symbols", "enumerate_periodic",
               "count_pmn_bruteforce"),
    "zeta": ("p_flip_counts", "generating_function", "lind_zeta", "artin_mazur_zeta"),
    "equivalence": ("he_check", "sse_verify", "he_search", "sfe_check",
                    "sfe_bounded_search"),
    "constructions": ("higher_block", "OneBlockConjugacySpec", "decompose_conjugacy",
                      "verify_decomposition"),
}
CACHED = ("shifts.blocks", "shifts.enumerate_periodic")

# The per-layer metrics and their units.  Counts and seconds are per round of
# the workload's batch; ratios are over the whole traced run.
PER_LAYER = (
    ("matrices.mat_mul.calls", "count"), ("matrices.mat_mul.self_s", "s"),
    ("matrices.mat_mul.dense_madds", "count"), ("matrices.mat_mul.operand_density", "ratio"),
    ("matrices.mat_pow.calls", "count"), ("matrices.mat_pow.self_s", "s"),
    ("matrices.char_poly.self_s", "s"), ("matrices.rank_over_rationals.self_s", "s"),
    ("series.series_exp.calls", "count"), ("series.series_exp.self_s", "s"),
    ("flips.FlipPair.calls", "count"), ("flips.FlipPair.self_s", "s"),
    ("shifts.blocks.self_s", "s"), ("shifts.blocks.cache_hit_ratio", "ratio"),
    ("shifts.essential_symbols.self_s", "s"),
    ("shifts.enumerate_periodic.self_s", "s"), ("shifts.enumerate_periodic.points", "count"),
    ("shifts.enumerate_periodic.cache_hit_ratio", "ratio"),
    ("shifts.count_pmn_bruteforce.self_s", "s"),
    ("zeta.p_flip_counts.calls", "count"), ("zeta.p_flip_counts.self_s", "s"),
    ("zeta.generating_function.self_s", "s"), ("zeta.lind_zeta.self_s", "s"),
    ("zeta.artin_mazur_zeta.self_s", "s"),
    ("equivalence.he_check.calls", "count"), ("equivalence.he_check.self_s", "s"),
    ("equivalence.sse_verify.self_s", "s"), ("equivalence.he_search.self_s", "s"),
    ("equivalence.sfe_check.calls", "count"), ("equivalence.sfe_check.self_s", "s"),
    ("equivalence.sfe_bounded_search.self_s", "s"),
    ("constructions.higher_block.self_s", "s"),
    ("constructions.OneBlockConjugacySpec.self_s", "s"),
    ("constructions.decompose_conjugacy.self_s", "s"),
    ("constructions.verify_decomposition.self_s", "s"),
    ("jsonio.self_s", "s"), ("cli.run_cli.self_s", "s"), ("cli.output_bytes", "B"),
)


def _nonzeros(m) -> int:
    return sum(1 for row in m.entries for x in row if x)


class Tracer:
    """Records spans and per-function counters while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 1
        self._cached: dict[str, object] = {}
        self._last_misses = 0  # enumerate_periodic's misses after its last call

    # -- wrapping -------------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span named ``name`` on every call."""
        tracer = self

        def traced(*args, **kwargs):
            entered = perf_counter()
            stack = tracer._stack
            parent = stack[-1][0] if stack else 0
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
                tracer.calls[name] += 1
                tracer.self_s[name] += (end - start) - frame[1]
                if after is not None:
                    after(args, result)
                if stack:
                    stack[-1][1] += perf_counter() - entered

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every traced function in every loaded module of the package."""
        prefix = package.__name__
        modules = [m for k, m in sys.modules.items()
                   if (k == prefix or k.startswith(prefix + ".")) and m is not None]
        for short, names in TRACED.items():
            mod = sys.modules[f"{prefix}.{short}"]
            for attr in names:
                self._install_one(modules, mod, short, attr)
        jsonio = sys.modules[f"{prefix}.jsonio"]
        for attr, obj in vars(jsonio).copy().items():
            if inspect.isfunction(obj) and obj.__module__ == jsonio.__name__ \
                    and not attr.startswith("_"):
                self._install_one(modules, jsonio, "jsonio", attr)

    def _install_one(self, modules, mod, short: str, attr: str) -> None:
        name = f"{short}.{attr}"
        original = getattr(mod, attr)
        if inspect.isclass(original):
            init = original.__init__
            original.__init__ = self.wrap(name, init)
            return
        after = None
        if name == "matrices.mat_mul":
            after = self._after_mat_mul
        elif name in CACHED:
            self._cached[name] = original
            if name == "shifts.enumerate_periodic":
                after = self._after_enumerate
        wrapped = self.wrap(name, original, after)
        for m in modules:
            for key, value in vars(m).copy().items():
                if value is original:
                    setattr(m, key, wrapped)

    # -- counters -----------------------------------------------------------------------

    def _after_mat_mul(self, args, result) -> None:
        a, b = args[0], args[1]
        c = self.counters
        c["matrices.mat_mul.dense_madds"] += a.nrows * a.ncols * b.ncols
        c["matrices.mat_mul.nonzeros"] += _nonzeros(a) + _nonzeros(b)
        c["matrices.mat_mul.entries"] += a.nrows * a.ncols + b.nrows * b.ncols

    def _after_enumerate(self, args, result) -> None:
        # count points only when the call enumerated them, not on a cache hit
        info = self._cached["shifts.enumerate_periodic"].cache_info()
        if result is not None and info.misses != self._last_misses:
            self.counters["shifts.enumerate_periodic.points"] += len(result)
        self._last_misses = info.misses

    def read_caches(self) -> None:
        """Add the caches' hits and misses so far; call before clearing them."""
        for name, fn in self._cached.items():
            info = fn.cache_info()
            self.counters[f"{name}.hits"] += info.hits
            self.counters[f"{name}.misses"] += info.misses
        self._last_misses = 0

    # -- output -------------------------------------------------------------------------

    def per_layer(self, rounds: int, output_bytes: int) -> dict:
        """Every metric of PER_LAYER, as {name: {"value", "unit"}}."""
        c = self.counters
        self_s = dict(self.self_s)
        self_s["jsonio"] = sum(v for k, v in self.self_s.items() if k.startswith("jsonio."))
        entries = c["matrices.mat_mul.entries"]
        ratios = {"matrices.mat_mul.operand_density":
                  c["matrices.mat_mul.nonzeros"] / entries if entries else 0.0}
        for name in CACHED:
            looked_up = c[f"{name}.hits"] + c[f"{name}.misses"]
            ratios[f"{name}.cache_hit_ratio"] = \
                c[f"{name}.hits"] / looked_up if looked_up else 0.0
        out = {}
        for metric, unit in PER_LAYER:
            fn, _, kind = metric.rpartition(".")
            if metric in ratios:
                value = ratios[metric]
            elif kind == "calls":
                value = self.calls[fn] / rounds
            elif kind == "self_s":
                value = self_s.get(fn, 0.0) / rounds
            elif metric == "cli.output_bytes":
                value = output_bytes / rounds
            else:
                value = c[metric] / rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """Write the spans as CSV: id, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                f.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")
