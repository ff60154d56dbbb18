"""Command-line interface.

Every command takes --format (json, csv or plain) and --timing.  No command
draws at random or samples periodic points, so none takes a seed or a period.
Exit codes: 0 success / all checks passed, 1 a mathematical check failed,
2 usage or input error (unreadable path, malformed or too deeply nested
JSON, schema violation, a range option below 1, exceeded budget, out of memory).
Reports are deterministic byte for byte for fixed inputs and flags; timing is
only included when --timing is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import jsonio
from .constructions import _verification_blocks, build_flip_pair, decompose_conjugacy, \
    higher_block, verify_decomposition
from .equivalence import DEFAULT_MAX_SOLUTIONS, DEFAULT_SEARCH_BUDGET, he_check, \
    he_search, sfe_bounded_search, sfe_check, sse_verify
from .errors import CertificateError, FlipPairError, SchemaError, SpecError
from .matrices import _rank_profile, char_poly
from .refchecks import REFERENCE_ORDER, run_reference_checks
from .report import Report
from .series import DEFAULT_ORDER
from .shifts import count_pmn_bruteforce
from .zeta import artin_mazur_zeta, generating_function, lind_zeta


def _load_json(path: str, inputs: dict[str, str]):
    data = Path(path).read_bytes()
    inputs[path] = hashlib.sha256(data).hexdigest()
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"JSON nested too deeply in {path}") from None


def _series_rows(doc: dict) -> list[list]:
    return [["degree", "coefficient"]] + [[d, c] for d, c in enumerate(doc["coeffs"])]


def _report_rows(rep: Report) -> list[list]:
    rows = [["check", "passed", "detail"]]
    for c in rep.checks:
        rows.append([c.name, "pass" if c.passed else "FAIL", c.detail])
    return rows


def _check_rows(name: str, passed: bool, detail: str = "") -> list[list]:
    return [["check", "passed", "detail"], [name, "pass" if passed else "FAIL", detail]]


def _emit(args, payload: dict, csv_rows: list[list] | None, plain: str) -> None:
    if args.format == "csv":
        if csv_rows is None:
            raise SchemaError("--format", "csv output is not defined for this command")
        import csv as _csv
        writer = _csv.writer(sys.stdout)
        writer.writerows(csv_rows)
    elif args.format == "plain":
        print(plain)
    else:
        print(jsonio.dumps(payload))


def _wrap(args, inputs: dict[str, str], payload: dict, started: float) -> dict:
    out = {"command": args.command, "inputs": inputs}
    out.update(payload)
    if args.timing:
        out["seconds"] = round(time.monotonic() - started, 6)
    return out


# -- handlers ------------------------------------------------------------------


def _cmd_validate(args, inputs) -> tuple[int, dict, list | None, str]:
    doc = _load_json(args.pair, inputs)
    try:
        pair = jsonio.pair_from_doc(doc)
    except FlipPairError as e:
        payload = {"valid": False, "axiom": e.axiom, "message": str(e)}
        return 1, payload, _check_rows("flip pair", False, str(e)), \
            f"flip pair: INVALID ({e.axiom}: {e})"
    payload = {"valid": True, "alphabet_size": pair.size,
               "involution": dict(pair.tau)}
    return 0, payload, _check_rows("flip pair", True), "flip pair: valid"


def _cmd_count(args, inputs):
    if args.m_max < 1:
        raise ValueError("--m-max must be >= 1")
    pair = jsonio.pair_from_doc(_load_json(args.pair, inputs))
    # the top period first, so a walk over budget is refused before any level is built
    count_pmn_bruteforce(pair, args.m_max, 0)
    rows = []
    for m in range(1, args.m_max + 1):
        for n in args.n:
            rows.append({"m": m, "n": n, "count": count_pmn_bruteforce(pair, m, n)})
    csv_rows = [["m", "n", "count"]] + [[r["m"], r["n"], r["count"]] for r in rows]
    plain = "\n".join(f"p({r['m']},{r['n']}) = {r['count']}" for r in rows)
    return 0, {"rows": rows}, csv_rows, plain


def _cmd_zeta(args, inputs):
    pair = jsonio.pair_from_doc(_load_json(args.pair, inputs))
    if args.which == "lind":
        series = lind_zeta(pair, args.order)
    elif args.which == "artin":
        series = artin_mazur_zeta(pair.A, args.order)
    else:
        series = generating_function(pair, args.order)
    doc = jsonio.series_to_doc(series)
    plain = "\n".join(f"t^{d}: {c}" for d, c in enumerate(doc["coeffs"]))
    return 0, {"which": args.which, "series": doc}, _series_rows(doc), plain


def _cmd_charpoly(args, inputs):
    m = jsonio.matrix_from_doc(_load_json(args.matrix, inputs))
    poly = char_poly(m)
    payload = {"coefficients": list(poly.coeffs), "pretty": str(poly)}
    rows = [["degree", "coefficient"]] + [[d, c] for d, c in enumerate(poly.coeffs)]
    return 0, payload, rows, str(poly)


def _cmd_rank_profile(args, inputs):
    if args.max_power < 1:
        raise ValueError("--max-power must be >= 1")
    m = jsonio.matrix_from_doc(_load_json(args.matrix, inputs))
    rank, profile = _rank_profile(m, args.shift, args.max_power)
    payload = {"rank": rank, "shift": args.shift, "profile": profile}
    rows = [["power", "rank"]] + [[j + 1, r] for j, r in enumerate(profile)]
    plain = f"rank {payload['rank']}; profile at shift {args.shift}: {profile}"
    return 0, payload, rows, plain


def _load_endpoints(args, inputs):
    src = jsonio.pair_from_doc(_load_json(args.src, inputs), path="from")
    dst = jsonio.pair_from_doc(_load_json(args.dst, inputs), path="to")
    return src, dst


def _certified(row: str, line: str, check, *args):
    """Run a certificate checker: the valid or invalid payload, its csv row
    named ``row`` and its plain line led by ``line``."""
    try:
        cert = check(*args)
    except CertificateError as e:
        payload = {"valid": False, "identity": e.identity, "message": str(e)}
        return 1, payload, _check_rows(row, False, str(e)), f"{line}: INVALID ({e.identity})"
    payload = {"valid": True, "certificate": cert}
    return 0, payload, _check_rows(row, True), f"{line}: valid"


def _cmd_he_check(args, inputs):
    src, dst = _load_endpoints(args, inputs)
    r = jsonio.r_from_doc(_load_json(args.R, inputs), src.alphabet, dst.alphabet)
    return _certified("splitting step", "splitting step", he_check, src, dst, r)


def _cmd_he_search(args, inputs):
    if args.max_solutions < 1:
        raise ValueError("--max-solutions must be >= 1")
    src, dst = _load_endpoints(args, inputs)
    sols = he_search(src, dst, max_solutions=args.max_solutions)
    payload = {"solutions": sols, "count": len(sols)}
    plain = f"{len(sols)} solution(s)" + "".join(
        f"\nR = {c.R.to_rows()}" for c in sols)
    return 0, payload, None, plain


def _cmd_sse_verify(args, inputs):
    doc = _load_json(args.chain, inputs)
    try:
        chain = jsonio.chain_from_doc(doc)
    except CertificateError as e:
        rep = Report(title="chain")
        rep.add("chain", False, f"{e.identity}: {e}")
        return 1, {"report": rep.to_json()}, _report_rows(rep), rep.render_plain()
    rep = sse_verify(chain)
    return 0, {"lag": chain.lag, "report": rep.to_json()}, _report_rows(rep), \
        rep.render_plain()


def _cmd_sfe_check(args, inputs):
    if args.lag < 1:
        raise ValueError("--lag must be >= 1")
    src, dst = _load_endpoints(args, inputs)
    r = jsonio.r_from_doc(_load_json(args.R, inputs), src.alphabet, dst.alphabet)
    return _certified("lag-k step", f"lag-{args.lag} equivalence",
                      sfe_check, src, dst, r, args.lag)


def _cmd_sfe_search(args, inputs):
    src, dst = _load_endpoints(args, inputs)
    sols = sfe_bounded_search(src, dst, lag_max=args.lag_max,
                              entry_max=args.entry_max, budget=args.budget)
    payload = {"solutions": sols, "count": len(sols)}
    if sols:
        plain = f"{len(sols)} solution(s)" + "".join(
            f"\nlag {c.lag}: R = {c.R.to_rows()}" for c in sols)
    else:
        plain = "none within bounds"
    return 0, payload, None, plain


def _cmd_higher_block(args, inputs):
    pair = jsonio.pair_from_doc(_load_json(args.pair, inputs))
    block_pair, chain = higher_block(pair, args.n)
    rep = sse_verify(chain)
    payload = {"pair": block_pair, "chain": chain, "verification": rep.to_json()}
    return 0, payload, None, \
        f"{args.n + 1}-block pair on {block_pair.size} symbols; " + rep.render_plain()


def _cmd_build_pair(args, inputs):
    spec = jsonio.blockflip_from_doc(_load_json(args.spec, inputs))
    pair, code_map = build_flip_pair(spec)
    payload = {"pair": pair,
               "code": {"radius": code_map.radius,
                        "map": [{"block": " ".join(w), "image": s}
                                for w, s in sorted(code_map.mapping.items())]}}
    return 0, payload, None, f"built pair on {pair.size} symbols"


def _cmd_decompose(args, inputs):
    spec = jsonio.conjugacy_from_doc(_load_json(args.conjugacy, inputs))
    _verification_blocks(spec)
    dec = decompose_conjugacy(spec)
    rep = verify_decomposition(dec, spec)
    payload = {"lag": dec.chain.lag,
               "source_recoding": dec.source_recoding,
               "chain": dec.chain,
               "verification": rep.to_json()}
    code = 0 if rep.passed else 1
    return code, payload, None, f"lag {dec.chain.lag}; " + rep.render_plain()


def _cmd_paper_examples(args, inputs):
    rep = run_reference_checks(order=args.order)
    code = 0 if rep.passed else 1
    return code, {"report": rep.to_json()}, _report_rows(rep), rep.render_plain()


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipshift",
        description="Exact-arithmetic toolkit for shift-flip systems of finite type.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the flip-pair axioms of a pair file")
    p.add_argument("pair")

    p = sub.add_parser("count", help="brute-force counts of jointly fixed points")
    p.add_argument("--pair", required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n", type=int, nargs="+", default=(0, 1))

    p = sub.add_parser("zeta", help="zeta or generating-function series of a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--which", choices=("lind", "artin", "gen"), default="lind")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial of a matrix")
    p.add_argument("matrix")

    p = sub.add_parser("rank-profile",
                       help="ranks of (M - shift*I)^j over the rationals")
    p.add_argument("matrix")
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--max-power", type=int, default=4)

    p = sub.add_parser("he-check", help="verify a single splitting step")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--R", required=True)

    p = sub.add_parser("he-search", help="enumerate single splitting steps")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--max-solutions", type=int, default=DEFAULT_MAX_SOLUTIONS)

    p = sub.add_parser("sse-verify", help="verify a chain of splitting steps")
    p.add_argument("chain")

    p = sub.add_parser("sfe-check", help="verify a lag-k equivalence witness")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--R", required=True)
    p.add_argument("--lag", type=int, required=True)

    p = sub.add_parser("sfe-search", help="bounded search for lag-k equivalences")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--lag-max", type=int, required=True)
    p.add_argument("--entry-max", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)

    p = sub.add_parser("higher-block",
                       help="block-recoded pair plus its splitting chain")
    p.add_argument("--pair", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("build-pair",
                       help="flip pair from a sliding-block flip rule")
    p.add_argument("spec")

    p = sub.add_parser("decompose",
                       help="decompose a one-block conjugacy into splitting steps")
    p.add_argument("conjugacy")

    p = sub.add_parser("paper-examples",
                       help="run the bundled reference examples against expected values")
    p.add_argument("--order", type=int, default=REFERENCE_ORDER)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv", "plain"), default="json")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock seconds in the report")
    return parser


_PARSER = _build_parser()

_HANDLERS = {
    "validate": _cmd_validate,
    "count": _cmd_count,
    "zeta": _cmd_zeta,
    "charpoly": _cmd_charpoly,
    "rank-profile": _cmd_rank_profile,
    "he-check": _cmd_he_check,
    "he-search": _cmd_he_search,
    "sse-verify": _cmd_sse_verify,
    "sfe-check": _cmd_sfe_check,
    "sfe-search": _cmd_sfe_search,
    "higher-block": _cmd_higher_block,
    "build-pair": _cmd_build_pair,
    "decompose": _cmd_decompose,
    "paper-examples": _cmd_paper_examples,
}


def run_cli(argv: list[str]) -> int:
    args = _PARSER.parse_args(argv)
    inputs: dict[str, str] = {}
    started = time.monotonic()
    try:
        code, payload, csv_rows, plain = _HANDLERS[args.command](args, inputs)
        _emit(args, _wrap(args, inputs, payload, started), csv_rows, plain)
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}",
              file=sys.stderr)
        return 2
    except FlipPairError as e:
        print(f"error: input is not a flip pair ({e.axiom}): {e}", file=sys.stderr)
        return 2
    except (SpecError, CertificateError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        # also SchemaError, BudgetError and MatrixShapeError, which are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
