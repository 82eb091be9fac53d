"""Command-line front end.

Every subcommand prints a human table by default, machine JSON with
``--json`` (compact, deterministic key order, every unbounded integer as a
decimal string), or CSV with ``--csv``.  Exit codes: 0 success, 1 usage
error, 2 size/cap error, 3 theorem violation detected or an internal
exactness check failed (``ConsistencyError``), 4 conjecture counterexample
found.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Sequence

from .errors import ConsistencyError, DomainError, NotationError, SizeLimitError
from .groups import (
    BRUTE_FORCE_CAP,
    AbelianGroup,
    brute_force_spectrum,
    enumerate_abelian_groups,
    order_spectrum,
)
from .notation import format_group, group_to_json_dict, parse_group, spectrum_to_json_dict
from .psi import (
    FactoredInteger,
    psi_prime,
    psi_prime_cyclic_closed_form,
    psi_prime_from_spectrum,
    psi_prime_rank2_closed_form,
    psi_sum,
)
from .symmetric import order_polynomial, psi_all
from .verify import (
    check_theorem_c,
    find_cross_order_collisions,
    sweep_conjecture_f,
    sweep_injectivity,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIZE = 2
EXIT_VIOLATION = 3
EXIT_COUNTEREXAMPLE = 4


def _emit_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _styled(text: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[1m{text}\x1b[0m"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    print(_styled("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _csv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(headers)
    writer.writerows(rows)


def _jobs_arg(value: str) -> int | None:
    if value == "auto":
        return None
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid jobs value {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1 or 'auto'")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psiprime",
        description="Exact sums, products, and symmetric functions of "
        "element orders of finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format_flags(p: argparse.ArgumentParser) -> None:
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="machine JSON output")
        fmt.add_argument("--csv", action="store_true", help="CSV output")

    p = sub.add_parser("compute", help="compute invariants of one group")
    p.add_argument("group", help="group notation: Z4xZ3^2 or [4,3,3]")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--psi", action="store_true", help="sum of element orders")
    which.add_argument("--psi-prime", action="store_true", help="product of element orders (factored)")
    which.add_argument("--psi-k", type=int, metavar="K", help="k-th elementary symmetric function")
    which.add_argument("--psi-all", action="store_true", help="all psi_k, k = 1..|G|")
    which.add_argument("--spectrum", action="store_true", help="element-order spectrum")
    which.add_argument("--poly", action="store_true", help="order polynomial prod (X - o(x))")
    p.add_argument("--materialize", action="store_true",
                   help="expand psi' to a decimal integer (requires --digit-limit)")
    p.add_argument("--digit-limit", type=int, metavar="D",
                   help="refuse to materialize beyond D decimal digits")
    add_format_flags(p)

    p = sub.add_parser("enumerate", help="list all abelian groups of one order")
    p.add_argument("m", type=int, help="group order")
    add_format_flags(p)

    v = sub.add_parser("verify", help="run an empirical verification sweep")
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("theorem-c", help="psi' strictly increases along the partition order")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format_flags(p)

    p = vsub.add_parser("injectivity", help="no two groups of one order share psi'")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--jobs", type=_jobs_arg, default=1, help="worker processes or 'auto'")
    add_format_flags(p)

    p = vsub.add_parser("collisions", help="census of cross-order psi' coincidences")
    p.add_argument("--max-order", type=int, required=True)
    add_format_flags(p)

    p = vsub.add_parser("conjecture-f", help="each single psi_k separates groups of one order")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--jobs", type=_jobs_arg, default=1, help="worker processes or 'auto'")
    add_format_flags(p)

    p = sub.add_parser("oracle", help="cross-check formulas against brute enumeration")
    p.add_argument("group", help="group notation: Z4xZ3^2 or [4,3,3]")
    add_format_flags(p)

    return parser


def _cmd_compute(args) -> int:
    G = parse_group(args.group)
    if args.materialize != (args.digit_limit is not None):
        print("error: --materialize and --digit-limit must be given together", file=sys.stderr)
        return EXIT_USAGE
    if args.materialize and not args.psi_prime:
        print("error: --materialize only applies to --psi-prime", file=sys.stderr)
        return EXIT_USAGE

    if args.psi:
        value = psi_sum(G)
        _emit_scalar(args, "psi", value)
    elif args.psi_prime:
        fi = psi_prime(G)
        if args.materialize:
            _emit_scalar(args, "psi_prime", fi.materialize(args.digit_limit))
        elif args.json:
            _emit_json(fi.to_json_dict())
        elif args.csv:
            _csv(["prime", "exponent"], [[str(p), str(e)] for p, e in fi.factors])
        else:
            print(fi)
    elif args.psi_k is not None:
        values = psi_all(G)
        if not 1 <= args.psi_k <= len(values):
            raise DomainError(f"k = {args.psi_k} out of range 1..{len(values)}")
        _emit_scalar(args, f"psi_{args.psi_k}", values[args.psi_k - 1])
    elif args.psi_all:
        values = psi_all(G)
        if args.json:
            _emit_json({"psi_k": [str(v) for v in values]})
        elif args.csv:
            _csv(["k", "psi_k"], [[str(k + 1), str(v)] for k, v in enumerate(values)])
        else:
            _table(["k", "psi_k"], [[str(k + 1), str(v)] for k, v in enumerate(values)])
    elif args.spectrum:
        spectrum = order_spectrum(G)
        if args.json:
            _emit_json(spectrum_to_json_dict(spectrum))
        else:
            rows = [[str(d), str(m)] for d, m in spectrum.entries]
            (_csv if args.csv else _table)(["order", "multiplicity"], rows)
    elif args.poly:
        poly = order_polynomial(G)
        if args.json:
            _emit_json({"coeffs": [str(c) for c in poly.coeffs]})
        elif args.csv:
            _csv(["power", "coefficient"], [[str(j), str(c)] for j, c in enumerate(poly.coeffs)])
        else:
            print(poly)
    return EXIT_OK


def _emit_scalar(args, name: str, value: int) -> None:
    if args.json:
        _emit_json(str(value))
    elif args.csv:
        _csv([name], [[str(value)]])
    else:
        print(value)


def _cmd_enumerate(args) -> int:
    groups = enumerate_abelian_groups(args.m)
    entries = [(G, psi_prime(G)) for G in groups]
    if args.json:
        _emit_json(
            {
                "order": str(args.m),
                "count": str(len(entries)),
                "groups": [
                    {
                        "group": group_to_json_dict(G),
                        "notation": format_group(G),
                        "psi_prime": fi.to_json_dict(),
                    }
                    for G, fi in entries
                ],
            }
        )
    else:
        rows = [[str(i), format_group(G), str(fi)] for i, (G, fi) in enumerate(entries)]
        (_csv if args.csv else _table)(["#", "group", "psi_prime"], rows)
    return EXIT_OK


def _cmd_theorem_c(args) -> int:
    report = check_theorem_c(args.prime, args.n)
    if args.json:
        _emit_json(
            {
                "p": str(report.p),
                "n": str(report.n),
                "rows": [
                    {"partition": list(q.parts), "exponent": str(e)} for q, e in report.rows
                ],
                "violations": [list(v) for v in report.violations],
            }
        )
    else:
        rows = [[str(q), str(e)] for q, e in report.rows]
        (_csv if args.csv else _table)(["partition", "psi_prime_exponent"], rows)
        if not args.csv:
            print(f"violations: {len(report.violations)}")
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_injectivity(args) -> int:
    sweep = sweep_injectivity(args.max_order, jobs=args.jobs)
    if args.json:
        _emit_json(
            {
                "max_order": str(sweep.max_order),
                "groups_checked": str(sweep.groups_checked),
                "duplicates": [
                    {
                        "m": str(r.m),
                        "groups": [group_to_json_dict(G) for dup in r.duplicates for G in dup],
                    }
                    for r in sweep.failures
                ],
            }
        )
    else:
        rows = [[str(sweep.max_order), str(sweep.groups_checked), str(len(sweep.failures))]]
        (_csv if args.csv else _table)(["max_order", "groups_checked", "orders_with_duplicates"], rows)
        for r in sweep.failures:
            for dup in r.duplicates:
                print(f"DUPLICATE at order {r.m}: " + ", ".join(format_group(G) for G in dup))
    return EXIT_OK if sweep.holds else EXIT_VIOLATION


def _cmd_collisions(args) -> int:
    report = find_cross_order_collisions(args.max_order)
    if args.json:
        _emit_json(
            {
                "scope": str(report.scope),
                "pairs": [
                    {
                        "order_a": str(a.order),
                        "group_a": group_to_json_dict(a),
                        "order_b": str(b.order),
                        "group_b": group_to_json_dict(b),
                        "psi_prime": fi.to_json_dict(),
                    }
                    for a, b, fi in report.pairs
                ],
            }
        )
    else:
        rows = [
            [str(a.order), format_group(a), str(b.order), format_group(b), str(fi)]
            for a, b, fi in report.pairs
        ]
        (_csv if args.csv else _table)(
            ["order_a", "group_a", "order_b", "group_b", "shared_psi_prime"], rows
        )
    return EXIT_OK


def _cmd_conjecture_f(args) -> int:
    sweep = sweep_conjecture_f(args.max_order, jobs=args.jobs)
    if args.json:
        _emit_json(
            {
                "max_order": str(sweep.max_order),
                "pairs_checked": str(sweep.pairs_checked),
                "coincidences": [
                    {
                        "m": str(r.m),
                        "group_a": group_to_json_dict(a),
                        "group_b": group_to_json_dict(b),
                        "k": k,
                        "value": str(v),
                    }
                    for r in sweep.failures
                    for a, b, k, v in r.coincidences
                ],
            }
        )
    else:
        rows = [[str(sweep.max_order), str(sweep.pairs_checked), str(len(sweep.failures))]]
        (_csv if args.csv else _table)(["max_order", "pairs_checked", "orders_with_coincidences"], rows)
        if not sweep.holds:
            print("!" * 72)
            print("PSI_K COINCIDENCE FOUND — potential conjecture counterexample:")
            for r in sweep.failures:
                for a, b, k, v in r.coincidences:
                    print(
                        f"  order {r.m}: psi_{k}({format_group(a)}) = "
                        f"psi_{k}({format_group(b)}) = {v}"
                    )
            print("!" * 72)
    return EXIT_OK if sweep.holds else EXIT_COUNTEREXAMPLE


def _oracle_checks(G: AbelianGroup) -> list[tuple[str, str, str]]:
    checks: list[tuple[str, str, str]] = []
    spectrum = order_spectrum(G)

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, "pass" if ok else "fail", detail))

    if G.order <= BRUTE_FORCE_CAP:
        brute = brute_force_spectrum(G)
        record("spectrum counting vs brute enumeration", spectrum == brute)
        record(
            "psi sum vs brute spectrum",
            psi_sum(G) == sum(d * m for d, m in brute.entries),
        )
    else:
        checks.append(("spectrum counting vs brute enumeration", "skipped",
                       f"|G| > {BRUTE_FORCE_CAP}"))
    record(
        "psi' formula vs spectrum product",
        psi_prime(G) == psi_prime_from_spectrum(spectrum),
    )
    types = G.sylow_types()
    if len(types) == 1 and types[0].rank <= 2:
        t = types[0]
        closed = (
            psi_prime_cyclic_closed_form(t.p, t.alphas[0])
            if t.rank == 1
            else psi_prime_rank2_closed_form(t.p, t.alphas[0], t.alphas[1])
        )
        record("closed form vs exponent formula", closed == psi_prime(G))
    else:
        checks.append(("closed form vs exponent formula", "skipped",
                       "only for p-groups of rank <= 2"))
    if G.order <= 256:
        values = psi_all(G)
        ok = values[0] == psi_sum(G) and values[-1] == psi_prime(G).materialize(10**6)
        record("psi_k endpoints (psi_1 = psi, psi_n = psi')", ok)
    else:
        checks.append(("psi_k endpoints (psi_1 = psi, psi_n = psi')", "skipped", "|G| > 256"))
    return checks


def _cmd_oracle(args) -> int:
    G = parse_group(args.group)
    checks = _oracle_checks(G)
    if args.json:
        _emit_json(
            {
                "group": group_to_json_dict(G),
                "order": str(G.order),
                "checks": [
                    {"name": n, "status": s, "detail": d} for n, s, d in checks
                ],
            }
        )
    else:
        rows = [[s.upper(), n, d] for n, s, d in checks]
        (_csv if args.csv else _table)(["status", "check", "detail"], rows)
    return EXIT_OK if all(s != "fail" for _, s, _ in checks) else EXIT_VIOLATION


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "verify":
            if args.check == "theorem-c":
                return _cmd_theorem_c(args)
            if args.check == "injectivity":
                return _cmd_injectivity(args)
            if args.check == "collisions":
                return _cmd_collisions(args)
            if args.check == "conjecture-f":
                return _cmd_conjecture_f(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except NotationError as exc:
        print(f"error: unparseable group notation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
