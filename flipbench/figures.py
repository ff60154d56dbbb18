"""Reference figures: the ROADMAP's baseline cases, each timed once.

    python3 flipbench/figures.py

Each case runs once under the benchmark's tracer and prints its wall time and
the share of it that ``mat_mul`` spends in its own frames.  The cases take
one to two minutes together; they are not part of any workload.
"""

from __future__ import annotations

import sys
import time

import run
import spans


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pkg = run._import_package()
    tracer = spans.Tracer()
    tracer.install(pkg)
    from flipshift import fixtures
    from flipshift.constructions import higher_block
    from flipshift.matrices import char_poly, mat_mul
    from flipshift.zeta import lind_zeta

    base = fixtures.example2_pair("A")
    built = {}

    def build(n):
        built[n] = higher_block(base, n)[0]

    cases = [
        ("higher_block(example2_A, 3), 138 symbols", lambda: build(3)),
        ("higher_block(example2_A, 4), 359 symbols", lambda: build(4)),
        ("char_poly of the 138-symbol block matrix", lambda: char_poly(built[3].A)),
        ("lind_zeta of the 138-symbol pair, order 32", lambda: lind_zeta(built[3], 32)),
        ("one 359x359 product A*J", lambda: mat_mul(built[4].A, built[4].J)),
    ]
    print("| case | wall s | mat_mul self share |")
    print("|---|---|---|")
    for label, case in cases:
        before = tracer.self_s["matrices.mat_mul"]
        started = time.perf_counter()
        case()
        wall = time.perf_counter() - started
        share = (tracer.self_s["matrices.mat_mul"] - before) / wall
        print(f"| {label} | {wall:.3f} | {100 * share:.0f}% |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
